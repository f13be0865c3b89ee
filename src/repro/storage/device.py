"""Block devices.

Everything the library stores on "disk" goes through a
:class:`BlockDevice`.  Three implementations are provided:

* :class:`SimulatedBlockDevice` -- charges each operation to a
  :class:`~repro.storage.disk_model.DiskModel` and (optionally) retains
  the payload bytes in memory.  This is the backend used by the
  benchmark harness: it provides the paper's terabyte-scale cost
  behaviour at laptop scale.
* :class:`FileBlockDevice` -- a real file on the local filesystem, used
  by integration tests to demonstrate that the storage structures are
  genuinely byte-addressable and recoverable.
* :class:`MemoryBlockDevice` -- a plain ``bytearray``-backed device for
  fast unit tests.

A device is a flat array of fixed-size blocks.  Partial-block writes are
expressed as read-modify-write by the caller (the geometric file does
this for unaligned segment boundaries, mirroring the paper's "only the
first and last block in each over-written segment must be read").
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from .disk_model import DiskModel, DiskParameters, DiskStats, _MirroredCounters


@runtime_checkable
class BlockDevice(Protocol):
    """Protocol for a flat array of fixed-size blocks."""

    @property
    def block_size(self) -> int:
        """Bytes per block."""
        ...

    @property
    def n_blocks(self) -> int:
        """Total number of blocks."""
        ...

    def read_blocks(self, block: int, n_blocks: int) -> bytes:
        """Read ``n_blocks`` contiguous blocks starting at ``block``."""
        ...

    def write_blocks(self, block: int, data: bytes) -> None:
        """Write ``data`` (a whole number of blocks) starting at ``block``."""
        ...

    def sync(self) -> None:
        """Flush any caching to the underlying medium."""
        ...


def write_zeros(device: "BlockDevice", block: int, n_blocks: int) -> None:
    """Write ``n_blocks`` of zeros, without materialising them if possible.

    Cost-charging call sites (segment writes, fill appends, scan
    rewrites) have no payload to store; a
    :class:`SimulatedBlockDevice` without data retention charges the
    transfer directly, while byte-backed devices write real zeros in
    bounded chunks.
    """
    fast = getattr(device, "charge_write", None)
    if fast is not None and fast(block, n_blocks):
        return
    chunk = 256
    while n_blocks > 0:
        burst = min(chunk, n_blocks)
        device.write_blocks(block, b"\x00" * (burst * device.block_size))
        block += burst
        n_blocks -= burst


def read_discard(device: "BlockDevice", block: int, n_blocks: int) -> None:
    """Read ``n_blocks`` and drop the data (cost charging only)."""
    fast = getattr(device, "charge_read", None)
    if fast is not None and fast(block, n_blocks):
        return
    chunk = 256
    while n_blocks > 0:
        burst = min(chunk, n_blocks)
        device.read_blocks(block, burst)
        block += burst
        n_blocks -= burst


def device_stores_bytes(device: "BlockDevice") -> bool:
    """True when reads return what was written (payloads worth encoding).

    Record-retaining flushes encode segments only for byte-storing
    devices; cost-model-only backends keep the :func:`write_zeros`
    charge.  Devices advertise via a ``stores_data`` attribute; absent
    that, a device with no ``charge_write`` fast path performs real
    writes anyway, so it counts as byte-storing.
    """
    probe = getattr(device, "stores_data", None)
    if probe is not None:
        return bool(probe)
    return getattr(device, "charge_write", None) is None


def write_payload(device: "BlockDevice", block: int, n_blocks: int,
                  data: bytes) -> None:
    """Write real payload bytes with :func:`write_zeros`-identical cost.

    ``data`` is zero-padded (or truncated) to ``n_blocks`` whole blocks
    and written in the same bounded bursts as :func:`write_zeros`'s
    fallback loop -- the same number of ``write_blocks`` calls over the
    same block ranges -- so every :class:`DiskStats` counter reconciles
    bit-exactly whichever helper ran.  Callers gate on
    :func:`device_stores_bytes`; for cost-only devices they keep
    calling :func:`write_zeros`, whose fast path the model charges
    identically.
    """
    block_size = device.block_size
    need = n_blocks * block_size
    if len(data) != need:
        data = bytes(data[:need]) + b"\x00" * max(0, need - len(data))
    chunk = 256
    offset = 0
    while n_blocks > 0:
        burst = min(chunk, n_blocks)
        device.write_blocks(block,
                            bytes(data[offset:offset + burst * block_size]))
        block += burst
        n_blocks -= burst
        offset += burst * block_size


def _check_range(device: "BlockDevice", block: int, n_blocks: int) -> None:
    if block < 0 or n_blocks < 1:
        raise ValueError("invalid block range")
    if block + n_blocks > device.n_blocks:
        raise ValueError(
            f"access [{block}, {block + n_blocks}) beyond device "
            f"of {device.n_blocks} blocks"
        )


@dataclass(frozen=True)
class DeviceSpec:
    """A picklable description of a block device, built on demand.

    Multi-process deployments (:mod:`repro.service`) cannot ship live
    devices or factory closures across a ``fork``/``spawn`` boundary --
    neither pickles.  A spec is plain data; each shard worker calls
    :meth:`build` *inside its own process*, rooted at its private shard
    directory, so every shard gets an independent device (its own
    simulated spindle, or its own backing file under ``directory``).

    Attributes:
        kind: ``"simulated"`` (cost-modelled, the benchmark backend),
            ``"memory"`` (byte-backed, no cost model), or ``"file"``
            (a real file named ``device.bin`` under ``directory``).
        n_blocks: device capacity in blocks.
        block_size: bytes per block (``"simulated"`` takes it from
            ``params`` instead).
        params: disk parameters for the simulated kind; ``None`` uses
            the paper's measured disk.
        retain_data: for the simulated kind, keep payload bytes in
            memory so reads return what was written.
    """

    kind: str
    n_blocks: int
    block_size: int = 4096
    params: DiskParameters | None = None
    retain_data: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("simulated", "memory", "file"):
            raise ValueError(f"unknown device kind {self.kind!r}")
        if self.n_blocks < 1:
            raise ValueError("device must have at least one block")

    def build(self, directory: str | os.PathLike[str] | None = None
              ) -> "BlockDevice":
        """Construct the described device.

        Args:
            directory: required for the ``"file"`` kind -- created if
                missing, and the backing file lives inside it.
        """
        if self.kind == "simulated":
            return SimulatedBlockDevice(self.n_blocks, self.params,
                                        retain_data=self.retain_data)
        if self.kind == "memory":
            return MemoryBlockDevice(self.n_blocks, self.block_size)
        if directory is None:
            raise ValueError("a file device needs a directory")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(os.fspath(directory), "device.bin")
        return FileBlockDevice(path, self.n_blocks, self.block_size)


class MemoryBlockDevice:
    """An in-memory block device with no cost model.

    Useful for unit tests that care about byte-level correctness but not
    timing.
    """

    def __init__(self, n_blocks: int, block_size: int = 4096) -> None:
        if n_blocks < 1 or block_size < 1:
            raise ValueError("device must have at least one block")
        self._block_size = block_size
        self._n_blocks = n_blocks
        self._data = bytearray(n_blocks * block_size)
        self._ops = DiskStats()
        self._metrics: _MirroredCounters | None = None

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    #: Reads return real bytes; record-retaining flushes encode payloads.
    stores_data = True

    def stats(self) -> DiskStats:
        """Operation counts so far (the time fields stay zero)."""
        return self._ops.snapshot()

    def instrument(self, registry, *, name: str = "memory") -> None:
        """Mirror operation counts into ``registry`` as ``disk.*`` metrics.

        Args:
            registry: a :class:`repro.obs.MetricsRegistry`.
            name: value of the ``structure`` label.
        """
        self._metrics = _MirroredCounters(registry, name)

    def read_blocks(self, block: int, n_blocks: int) -> bytes:
        """Read ``n_blocks`` contiguous blocks starting at ``block``."""
        _check_range(self, block, n_blocks)
        self._ops.reads += 1
        self._ops.blocks_read += n_blocks
        if self._metrics is not None:
            self._metrics.reads.inc()
            self._metrics.blocks_read.inc(n_blocks)
        start = block * self._block_size
        return bytes(self._data[start:start + n_blocks * self._block_size])

    def write_blocks(self, block: int, data: bytes) -> None:
        """Write whole blocks starting at ``block``."""
        if len(data) % self._block_size != 0:
            raise ValueError("data must be a whole number of blocks")
        n_blocks = len(data) // self._block_size
        _check_range(self, block, n_blocks)
        self._ops.writes += 1
        self._ops.blocks_written += n_blocks
        if self._metrics is not None:
            self._metrics.writes.inc()
            self._metrics.blocks_written.inc(n_blocks)
        start = block * self._block_size
        self._data[start:start + len(data)] = data

    def sync(self) -> None:
        """No-op: memory devices have nothing to flush."""


class SimulatedBlockDevice:
    """A block device whose operations are charged to a :class:`DiskModel`.

    Args:
        n_blocks: capacity in blocks.
        params: disk parameters; defaults to the paper's measured disk.
        retain_data: when True the payload bytes are kept in memory so
            reads return what was written (needed when the caller
            verifies record-level contents).  When False -- the default
            for large benchmark runs -- only costs are tracked and reads
            return zero bytes.
        model: share an existing :class:`DiskModel` (several devices on
            one simulated spindle); a fresh model is created otherwise.
    """

    def __init__(
        self,
        n_blocks: int,
        params: DiskParameters | None = None,
        *,
        retain_data: bool = False,
        model: DiskModel | None = None,
    ) -> None:
        if n_blocks < 1:
            raise ValueError("device must have at least one block")
        self.model = model or DiskModel(params)
        if params is not None and model is not None:
            raise ValueError("pass either params or a shared model, not both")
        self._n_blocks = n_blocks
        self._retain = retain_data
        self._data = bytearray(n_blocks * self.block_size) if retain_data else None

    @property
    def block_size(self) -> int:
        return self.model.params.block_size

    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    @property
    def clock(self) -> float:
        """Simulated seconds of disk time consumed so far."""
        return self.model.clock

    @property
    def stores_data(self) -> bool:
        """True when payload bytes are retained (reads are faithful)."""
        return self._data is not None

    def stats(self) -> DiskStats:
        """Snapshot of the cost model's cumulative counters."""
        return self.model.stats.snapshot()

    def instrument(self, registry, *, name: str = "disk") -> None:
        """Mirror the cost model's counters into ``registry``.

        Args:
            registry: a :class:`repro.obs.MetricsRegistry`.
            name: value of the ``structure`` label.
        """
        self.model.instrument(registry, name=name)

    def read_blocks(self, block: int, n_blocks: int) -> bytes:
        """Read (and charge) ``n_blocks``; zeros unless data is retained."""
        _check_range(self, block, n_blocks)
        self.model.read(block, n_blocks)
        if self._data is None:
            return bytes(n_blocks * self.block_size)
        start = block * self.block_size
        return bytes(self._data[start:start + n_blocks * self.block_size])

    def write_blocks(self, block: int, data: bytes) -> None:
        """Write (and charge) whole blocks starting at ``block``."""
        if len(data) % self.block_size != 0:
            raise ValueError("data must be a whole number of blocks")
        n_blocks = len(data) // self.block_size
        _check_range(self, block, n_blocks)
        self.model.write(block, n_blocks)
        if self._data is not None:
            start = block * self.block_size
            self._data[start:start + len(data)] = data

    def charge_write(self, block: int, n_blocks: int) -> bool:
        """Fast path for :func:`write_zeros`: charge without a payload.

        Returns False when payload bytes are retained, in which case the
        caller must fall back to real zero writes.
        """
        if self._data is not None:
            return False
        _check_range(self, block, n_blocks)
        self.model.write(block, n_blocks)
        return True

    def charge_read(self, block: int, n_blocks: int) -> bool:
        """Fast path for :func:`read_discard`; see :meth:`charge_write`."""
        _check_range(self, block, n_blocks)
        self.model.read(block, n_blocks)
        return True

    def charge_stream(self, n_blocks: int) -> None:
        """Stream the head past ``n_blocks`` without transferring them.

        Issued by the elevator I/O scheduler when two write bursts sit
        close enough that staying on-track beats a random seek; see
        :meth:`~repro.storage.disk_model.DiskModel.stream_past`.
        Devices without a cost model simply lack this method and the
        plan executor skips the charge.
        """
        self.model.stream_past(n_blocks)

    def sync(self) -> None:
        """No-op: the simulated device is always durable."""


class FileBlockDevice:
    """A block device backed by a real file.

    Integration tests use this backend to show the storage structures
    survive a round trip through the operating system.  The file is
    created (or truncated up) to the requested size on open.
    """

    def __init__(self, path: str | os.PathLike[str], n_blocks: int,
                 block_size: int = 4096) -> None:
        if n_blocks < 1 or block_size < 1:
            raise ValueError("device must have at least one block")
        self._block_size = block_size
        self._n_blocks = n_blocks
        self._path = os.fspath(path)
        size = n_blocks * block_size
        # Open for update, creating if absent, without truncating existing
        # contents (reopening an existing device must preserve them).
        mode = "r+b" if os.path.exists(self._path) else "w+b"
        self._file = open(self._path, mode)
        self._file.seek(0, os.SEEK_END)
        if self._file.tell() < size:
            self._file.truncate(size)
        self._ops = DiskStats()
        self._metrics: _MirroredCounters | None = None

    @property
    def path(self) -> str:
        return self._path

    #: Reads return real bytes; record-retaining flushes encode payloads.
    stores_data = True

    def stats(self) -> DiskStats:
        """Operation counts so far (the time fields stay zero)."""
        return self._ops.snapshot()

    def instrument(self, registry, *, name: str = "file") -> None:
        """Mirror operation counts into ``registry`` as ``disk.*`` metrics.

        Args:
            registry: a :class:`repro.obs.MetricsRegistry`.
            name: value of the ``structure`` label.
        """
        self._metrics = _MirroredCounters(registry, name)

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def n_blocks(self) -> int:
        return self._n_blocks

    def read_blocks(self, block: int, n_blocks: int) -> bytes:
        """Read ``n_blocks`` contiguous blocks from the backing file."""
        _check_range(self, block, n_blocks)
        self._ops.reads += 1
        self._ops.blocks_read += n_blocks
        if self._metrics is not None:
            self._metrics.reads.inc()
            self._metrics.blocks_read.inc(n_blocks)
        self._file.seek(block * self._block_size)
        want = n_blocks * self._block_size
        data = self._file.read(want)
        if len(data) < want:
            data += b"\x00" * (want - len(data))
        return data

    def write_blocks(self, block: int, data: bytes) -> None:
        """Write whole blocks to the backing file."""
        if len(data) % self._block_size != 0:
            raise ValueError("data must be a whole number of blocks")
        n_blocks = len(data) // self._block_size
        _check_range(self, block, n_blocks)
        self._ops.writes += 1
        self._ops.blocks_written += n_blocks
        if self._metrics is not None:
            self._metrics.writes.inc()
            self._metrics.blocks_written.inc(n_blocks)
        self._file.seek(block * self._block_size)
        self._file.write(data)

    def sync(self) -> None:
        """Flush and fsync the backing file."""
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        """Close the backing file."""
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "FileBlockDevice":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
