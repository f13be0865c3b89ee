"""Checkpointing a geometric file: an append-only generation log.

Any production deployment of a structure that lives for months (the
paper's premise: the reservoir is the durable synopsis of an unbounded
stream) needs its catalog -- which subsamples exist, which slots and
stack regions they own, how far the stream has progressed -- to survive
restarts.  The paper leaves recovery as engineering; this module
provides it.  :func:`save_geometric_file` writes the complete logical
state (config, progress counters, every ledger, the buffer, the device's
cost counters and both RNG states) and :func:`load_geometric_file`
rebuilds a file that continues *bit-for-bit identically* to the
original (tested).  :class:`CheckpointLog` appends later states to the
same file at the cost of what changed, which is what
:class:`~repro.core.managed.ManagedSample` checkpoints through.

**Frame layout.**  A checkpoint file is a sequence of *generations*.
Each is one CRC32-framed ASCII frame of newline-terminated lines::

    GEN 2 base|delta                      header: format, generation kind
    {"kind": "GeometricFile", ...}        the small state, one JSON line
    RUN <id> <rows> <w> <aux> <base64>    zero or more record runs
    END <length> <crc32>                  trailer

``length`` counts the frame's bytes before the trailer and ``crc32`` is
their zlib CRC-32 in 8 hex digits -- the header/trailer discipline of
the shared-memory ``SlabRing``.  The small state holds the counters,
config, free slots, law and RNG states, the device's ``DiskStats`` and
head position, the caller's ``meta``, and one entry per ledger: its
stack bookkeeping, how far it has consumed its *shape* (the segment
sizes and slots fixed when its subsample was flushed), its run id and
its live length.  A base lists every entry and shape; a delta lists
only the entries that changed, the shapes of new ledgers and the
idents of dropped ones, and the loader folds the deltas since the last
base.  A run is one subsample's packed
:attr:`~repro.storage.records.RecordSchema.dtype` rows as they were
when first written, followed by a float64 weight column when ``w`` is 1
and ``aux`` float64 aux columns, all base64-encoded on one line.
Count-only files write no runs.

**Prefix rule.**  Uniform eviction only truncates a pre-shuffled ledger
from its end, so a subsample's live records are always a prefix of its
run.  A generation therefore names an existing run with the ledger's
live length and writes a run only for a subsample the file does not
hold yet (once, at the first generation after its flush), for the
buffer (rewritten every generation), and for a ledger that a
content-based law rebound through ``evict_indices``.  A full image
(:func:`save_geometric_file`) is one self-contained base.

**Compaction rule.**  :meth:`CheckpointLog.append` rewrites the file as
a base generation -- runs trimmed to their live prefixes -- once the
log's bytes exceed twice its live bytes: the live prefixes of the runs
the newest generation references, plus twice the last base's state.
The rewrite goes to a temporary file, which is fsynced, renamed over
the log, and followed by a directory fsync, so the pre-compaction log
stays in place until the compacted one is durable.  The base is
followed by a state-only copy of itself, so the newest generation of a
log always has an intact predecessor.  Every appended generation is
fsynced.

**Recovery rule.**  The loader reads frames in order and stops at the
first whose header, length or CRC fails (a torn append or a flipped
byte).  It restores the last good generation, decoding only the runs
that generation references, one at a time, and the log's next append
truncates the bad tail.  A file without one intact generation, or an
intact one of another format version, is an error.
"""

from __future__ import annotations

import base64
import io
import json
import os
import tempfile
import zlib
from dataclasses import asdict, dataclass, field
from typing import IO

import numpy as np

from ..storage.device import BlockDevice
from ..storage.disk_model import DiskModel, DiskStats
from ..storage.recordbatch import RecordBatch
from .biased_file import (
    BiasedGeometricFile,
    BiasedMultipleGeometricFiles,
    BiasedSamplingMixin,
)
from .geometric_file import GeometricFile, GeometricFileConfig
from .multi import MultiFileConfig, MultipleGeometricFiles
from .subsample import SubsampleLedger

FORMAT_VERSION = 2

#: Per-ledger entry, in the order of the JSON list that stores it.
#: ``head``/``slots_head`` count the segments and slots the ledger has
#: released from its shape (sizes and slots fixed at its creation).
_LEDGER_FIELDS = ("file", "ident", "run", "live", "first_level",
                  "tail_size", "stack_balance", "stack_capacity",
                  "max_stack_balance", "reconciled_balance", "stack_region",
                  "head", "slots_head")


def save_geometric_file(gf: GeometricFile | MultipleGeometricFiles,
                        sink: IO, *, meta: dict | None = None) -> None:
    """Write the structure's complete state as one base generation.

    Args:
        gf: a (possibly biased) geometric file or a multi-file
            structure.
        sink: a text or binary file-like object to write to.
        meta: optional caller metadata stored alongside the state and
            returned by :func:`load_geometric_file` as
            ``gf.checkpoint_meta``.  The sharded service uses this to
            stamp each checkpoint with the batch sequence number it
            covers, so recovery replays exactly the batches the
            checkpoint has not seen -- storing the two in one frame
            (one CRC) is what makes the no-loss/no-double-count
            guarantee crash-safe.
    """
    write = sink.write
    if isinstance(sink, io.TextIOBase):
        def write(data: bytes) -> None:
            sink.write(data.decode("ascii"))
    _write_generation(gf, write, meta, _Generation())


def load_geometric_file(source: IO, device: BlockDevice,
                        weight_fn=None) -> GeometricFile:
    """Rebuild a structure from the last intact generation of a log.

    Args:
        source: a text or binary file-like object holding a log
            written by :func:`save_geometric_file` or
            :class:`CheckpointLog`; it must support ``tell``/``seek``.
        device: a (fresh or original) backing device, at least as large
            as the original one.
        weight_fn: required when restoring a biased file -- functions
            cannot be serialised, so the caller re-supplies ``f``.

    Returns:
        A file whose subsequent behaviour is identical to the saved one.
        Any ``meta`` mapping passed when saving is attached as
        ``checkpoint_meta`` (``None`` when absent).
    """
    return _read_log(source, device, weight_fn)[0]


class CheckpointLog:
    """The writing side of one generation-log file.

    Remembers which runs the file holds for which live ledgers, and the
    ledger entries of the newest generation, so :meth:`append` writes
    only what changed.  Open an existing log with :meth:`open`; a fresh
    one starts empty and its first :meth:`append` creates the file.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        #: Bytes of the intact log; the next append starts here.
        self.size = 0
        self._newest = _Generation()

    @property
    def live_bytes(self) -> int:
        """Live-run bytes plus twice the last base's state: half the
        size at which the log is compacted."""
        return self._newest.live_bytes

    @classmethod
    def open(cls, path: str | os.PathLike[str], device: BlockDevice,
             weight_fn=None):
        """Restore the structure from ``path``; returns ``(gf, log)``."""
        log = cls(path)
        with open(log.path, "rb") as source:
            gf, log._newest, log.size = _read_log(source, device,
                                                  weight_fn)
        return gf, log

    def append(self, gf, meta: dict | None = None) -> tuple[int, str]:
        """Durably write the next generation of ``gf``'s state.

        Returns ``(bytes written, "base" or "delta")``.  A delta is
        appended in place (truncating any torn tail) and fsynced; a base
        rewrite replaces the whole file (see the compaction rule).
        """
        if self.size == 0 or self.size > 2 * self.live_bytes:
            return self._rewrite(gf, meta), "base"
        with open(self.path, "r+b") as sink:
            sink.seek(self.size)
            generation = _write_generation(gf, sink.write, meta,
                                           self._newest)
            sink.truncate()
            sink.flush()
            os.fsync(sink.fileno())
        self._newest = generation
        self.size += generation.written
        return generation.written, "delta"

    def _rewrite(self, gf, meta: dict | None) -> int:
        directory = os.path.dirname(self.path) or "."
        descriptor, temp_path = tempfile.mkstemp(
            dir=directory, prefix=".checkpoint-", suffix=".log")
        try:
            with os.fdopen(descriptor, "wb") as sink:
                generation = _write_generation(
                    gf, sink.write, meta,
                    _Generation(next_run=self._newest.next_run))
                # The state-only copy: nothing changed since the base.
                copy = dict(generation.state, ledgers=[], shapes=[],
                            dropped=[])
                written = generation.written + _write_frame(
                    sink.write, "delta", _state_line(copy), ())
                sink.flush()
                os.fsync(sink.fileno())
            os.replace(temp_path, self.path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
        _fsync_directory(directory)
        self._newest = generation
        self.size = written
        return written


@dataclass
class _Generation:
    """What one written (or restored) generation leaves behind for the
    next: runs held per ledger, ledger entries, and size bookkeeping."""

    #: Ledger ident -> (run id, records object, rows in the run).
    held: dict = field(default_factory=dict)
    #: Ledger ident -> its encoded entry (``_LEDGER_FIELDS`` order);
    #: ``None`` before the first generation, making the next a base.
    entries: dict | None = None
    #: Ledger ident -> its shape, ``(segment sizes, slots)``.
    shapes: dict = field(default_factory=dict)
    next_run: int = 0
    #: Bytes of the newest base generation's state line.
    base_state_bytes: int = 0
    #: Base64 bytes of the live prefixes of every referenced run.
    run_bytes: int = 0
    #: Bytes of the frame as written (0 for a restored generation).
    written: int = 0
    state: dict = field(default_factory=dict)

    @property
    def live_bytes(self) -> int:
        return self.run_bytes + 2 * self.base_state_bytes


# -- writing -----------------------------------------------------------------

def _write_generation(gf, write, meta: dict | None,
                      previous: _Generation) -> _Generation:
    """Write the generation of ``gf`` that follows ``previous``.

    A ``previous`` without ledger entries makes this a base: every
    ledger, shape and run is written.  Otherwise it is a delta: only
    ledgers whose entry changed, shapes of new ledgers, the idents of
    dropped ones, and runs ``previous`` does not hold.
    """
    schema = gf.schema
    base = previous.entries is None
    held = {} if base else previous.held
    out = _Generation(next_run=previous.next_run, entries={},
                      base_state_bytes=previous.base_state_bytes)
    runs: list[tuple] = []

    def add_run(records, weights, aux) -> int:
        run_id = out.next_run
        out.next_run += 1
        runs.append((run_id, records, weights, aux))
        return run_id

    changed, shapes = [], []
    for index, ledger in _indexed_ledgers(gf):
        run_id = None
        if ledger.records is not None:
            out.run_bytes += _run_bytes(schema, ledger.live,
                                        ledger.weights, ledger.aux)
            entry = held.get(ledger.ident)
            if (entry is None or entry[1] is not ledger.records
                    or entry[2] < ledger.live):
                entry = (add_run(ledger.records, ledger.weights,
                                 ledger.aux),
                         ledger.records, ledger.live)
            out.held[ledger.ident] = entry
            run_id = entry[0]
        sizes, slots, head, slots_head = ledger.layout_state()
        encoded = [index, ledger.ident, run_id, ledger.live,
                   ledger.first_level, ledger.tail_size,
                   ledger.stack_balance, ledger.stack_capacity,
                   ledger.max_stack_balance, ledger._reconciled_balance,
                   ledger.stack_region, head, slots_head]
        out.entries[ledger.ident] = encoded
        if base or previous.entries.get(ledger.ident) != encoded:
            changed.append(encoded)
        shape = None if base else previous.shapes.get(ledger.ident)
        if shape is None or shape != (sizes, slots):
            shape = (list(sizes), list(slots))
            shapes.append([ledger.ident, *shape])
        out.shapes[ledger.ident] = shape
    state = _encode_state(gf, meta)
    state["ledgers"] = changed
    state["shapes"] = shapes
    state["dropped"] = ([] if base else
                        [ident for ident in previous.entries
                         if ident not in out.entries])
    buffer = gf.buffer
    if buffer.retains_records:
        records = buffer.pending_batch()
        aux = buffer.aux_view() if buffer.aux_width else None
        state["buffer"]["run"] = add_run(records, buffer._weights, aux)
        out.run_bytes += _run_bytes(schema, buffer.count, buffer._weights,
                                    aux)
    out.state = state
    state_line = _state_line(state)
    if base:
        out.base_state_bytes = len(state_line)
    out.written = _write_frame(write, "base" if base else "delta",
                               state_line, runs)
    return out


def _indexed_ledgers(gf):
    """``(file index, ledger)`` over every live ledger."""
    if isinstance(gf, MultipleGeometricFiles):
        for index, file in enumerate(gf.files):
            for ledger in file.subsamples:
                yield index, ledger
    else:
        for ledger in gf.subsamples:
            yield 0, ledger


def _state_line(state: dict) -> bytes:
    return json.dumps(state, separators=(",", ":")).encode("ascii")


def _write_frame(write, kind: str, state_line: bytes, runs) -> int:
    """Write one CRC32-framed generation; returns its size in bytes."""
    length = crc = 0

    def put(data: bytes) -> None:
        nonlocal length, crc
        write(data)
        length += len(data)
        crc = zlib.crc32(data, crc)

    put(b"GEN %d %s\n" % (FORMAT_VERSION, kind.encode("ascii")))
    put(state_line + b"\n")
    for run_id, records, weights, aux in runs:
        width = 0 if aux is None else aux.shape[1]
        put(b"RUN %d %d %d %d " % (run_id, len(records),
                                   weights is not None, width))
        put(base64.b64encode(_pack(records, weights, aux)) + b"\n")
    trailer = b"END %d %08x\n" % (length, crc)
    write(trailer)
    return length + len(trailer)


def _pack(records, weights, aux) -> bytes:
    """One run's bytes: packed rows, then the weight and aux columns."""
    parts = [records.to_bytes()]
    if weights is not None:
        parts.append(np.asarray(weights, dtype="<f8").tobytes())
    if aux is not None:
        parts.append(np.ascontiguousarray(aux, dtype="<f8").tobytes())
    return b"".join(parts)


def _run_bytes(schema, rows: int, weights, aux) -> int:
    """Base64 bytes of a run of ``rows`` rows (its line's payload)."""
    width = schema.record_size + (8 if weights is not None else 0)
    if aux is not None:
        width += 8 * aux.shape[1]
    return 4 * -(-rows * width // 3)


def _encode_state(gf, meta: dict | None) -> dict:
    buffer = gf.buffer
    files = gf.files if isinstance(gf, MultipleGeometricFiles) else None
    layouts = ([file.layout for file in files] if files is not None
               else [gf._layout])
    state = {
        "kind": type(gf).__name__,
        "config": asdict(gf.config),
        "seen": gf._seen,
        "samples_added": gf._samples_added,
        "flushes": gf.flushes,
        "stack_overflows": gf.stack_overflows,
        "startup_index": gf._startup_index,
        "next_ident": gf._next_ident,
        "buffer": {"count": buffer.count, "run": None,
                   "scale": buffer._scale},
        "law_state": gf._law.state_dict(),
        "rng_state": _encode_py_rng(gf._rng.getstate()),
        "np_rng_state": _encode_np_rng(gf._np_rng),
        "device": _device_state(gf.device),
        "meta": meta,
        "files": [{"free_slots": layout._free_slots,
                   "startup_cursor": getattr(layout, "_startup_cursor",
                                             None)}
                  for layout in layouts],
    }
    if files is not None:
        for file_state, file in zip(state["files"], files):
            file_state["dummy_slots"] = list(file.dummy_slots)
    if isinstance(gf, BiasedSamplingMixin):
        state["total_weight"] = gf.total_weight
        state["multipliers"] = {str(k): v
                                for k, v in gf.multipliers.items()}
        state["overflow_events"] = gf.overflow_events
    return state


def _device_state(device) -> dict | None:
    """The simulated disk's cost counters and head, when it has them."""
    model = getattr(device, "model", None)
    if not isinstance(model, DiskModel):
        return None
    return {"stats": asdict(model.stats), "head": model.head_position}


def _fsync_directory(directory: str) -> None:
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


# -- reading -----------------------------------------------------------------

def _read_log(source: IO, device: BlockDevice, weight_fn) -> tuple:
    """Scan every frame, then rebuild from the last intact generation.

    Returns ``(gf, generation, end)``: the restored structure, what a
    :class:`CheckpointLog` continues from, and the end offset of the
    intact log.
    """
    readline = source.readline
    if isinstance(source, io.TextIOBase):
        def readline() -> bytes:
            return source.readline().encode("ascii", "replace")
    offsets: dict[int, int] = {}
    newest = None
    entries: dict[int, list] = {}
    shapes: dict[int, tuple] = {}
    base_state_bytes = end = 0
    while True:
        frame = _read_frame(readline, source.tell)
        if frame is None:
            break
        version, kind, state_line, frame_runs, end = frame
        if version != str(FORMAT_VERSION):
            raise ValueError(f"unsupported checkpoint version {version!r}")
        newest = json.loads(state_line)
        if kind == "base":
            entries, shapes = {}, {}
            base_state_bytes = len(state_line) - 1
        for ident in newest["dropped"]:
            del entries[ident], shapes[ident]
        for encoded in newest["ledgers"]:
            entries[encoded[1]] = encoded
        for ident, sizes, slots in newest["shapes"]:
            shapes[ident] = (sizes, slots)
        offsets.update(frame_runs)
    if newest is None:
        raise ValueError("checkpoint holds no intact generation")
    gf = _build(newest, device, weight_fn)
    restored = _Generation(entries=entries, shapes=shapes,
                           next_run=max(offsets, default=-1) + 1,
                           base_state_bytes=base_state_bytes)
    # (run id, live rows, owning ledger or None for the buffer)
    pending = [(run_id, ledger.live, ledger) for ledger, run_id
               in _decode_layout(gf, newest, entries, shapes)
               if run_id is not None]
    buffer_state = newest["buffer"]
    if buffer_state["run"] is not None:
        pending.append((buffer_state["run"], buffer_state["count"], None))
    elif not gf.buffer.retains_records:
        gf.buffer.append_count(buffer_state["count"])
    try:
        pending.sort(key=lambda item: offsets[item[0]])
    except KeyError as missing:
        raise ValueError(f"checkpoint generation references run {missing} "
                         "that the log does not hold") from None
    for run_id, live, ledger in pending:
        source.seek(offsets[run_id])
        records, weights, aux, rows = _unpack(gf.schema, readline(), live)
        restored.run_bytes += _run_bytes(gf.schema, live, weights, aux)
        if ledger is None:
            _restore_buffer(gf.buffer, records, weights,
                            buffer_state["scale"], aux)
        else:
            ledger.records, ledger.weights, ledger.aux = records, weights, aux
            restored.held[ledger.ident] = (run_id, records, rows)
    _restore_scalars(gf, newest)
    return gf, restored, end


def _read_frame(readline, tell):
    """One frame: ``(version, kind, state line, {run id: offset}, end)``.

    ``None`` at the end of the log and at the first frame that fails
    its header, length or CRC check.
    """
    header = readline()
    parts = header.split()
    if (not header.endswith(b"\n") or len(parts) != 3
            or parts[0] != b"GEN" or parts[2] not in (b"base", b"delta")):
        return None
    length, crc = len(header), zlib.crc32(header)
    state_line = readline()
    if not state_line.endswith(b"\n"):
        return None
    length += len(state_line)
    crc = zlib.crc32(state_line, crc)
    runs: dict[int, int] = {}
    while True:
        offset = tell()
        line = readline()
        if not line.endswith(b"\n"):
            return None
        if line.startswith(b"END "):
            try:
                _, want_length, want_crc = line.split()
                intact = (int(want_length) == length
                          and int(want_crc, 16) == crc)
            except ValueError:
                return None
            if not intact:
                return None
            return (parts[1].decode("ascii"), parts[2].decode("ascii"),
                    state_line, runs, tell())
        if not line.startswith(b"RUN "):
            return None
        length += len(line)
        crc = zlib.crc32(line, crc)
        try:
            runs[int(line.split(b" ", 2)[1])] = offset
        except ValueError:
            return None


def _unpack(schema, line: bytes, live: int) -> tuple:
    """Decode one run line; returns ``(records, weights, aux, rows)``
    for its first ``live`` rows."""
    _, _, rows, weighted, width, payload = line.split(b" ", 5)
    rows, weighted, width = int(rows), int(weighted), int(width)
    blob = base64.b64decode(payload)
    records = RecordBatch(
        schema, np.frombuffer(blob, dtype=schema.dtype, count=live).copy())
    offset = rows * schema.record_size
    weights = aux = None
    if weighted:
        weights = np.frombuffer(blob, dtype="<f8", count=live,
                                offset=offset).tolist()
        offset += rows * 8
    if width:
        aux = np.frombuffer(blob, dtype="<f8", count=live * width,
                            offset=offset).reshape(live, width).copy()
    return records, weights, aux, rows


def _build(state: dict, device: BlockDevice, weight_fn):
    kind = state["kind"]
    # Logs written before the slab became the only record store carry
    # a ``columnar`` flag; it no longer selects anything.
    state["config"].pop("columnar", None)
    if kind in ("BiasedGeometricFile", "BiasedMultipleGeometricFiles"):
        if weight_fn is None:
            raise ValueError("restoring a biased file requires weight_fn")
        if kind == "BiasedGeometricFile":
            config = GeometricFileConfig(**state["config"])
            gf: GeometricFile | MultipleGeometricFiles = \
                BiasedGeometricFile(device, config, weight_fn, seed=0)
        else:
            multi_config = MultiFileConfig(**state["config"])
            gf = BiasedMultipleGeometricFiles(device, multi_config,
                                              weight_fn, seed=0)
        gf.total_weight = state["total_weight"]
        gf.multipliers = {int(k): v
                          for k, v in state["multipliers"].items()}
        gf.overflow_events = state["overflow_events"]
    elif kind == "GeometricFile":
        config = GeometricFileConfig(**state["config"])
        gf = GeometricFile(device, config, seed=0, weight_fn=weight_fn)
    elif kind == "MultipleGeometricFiles":
        config = MultiFileConfig(**state["config"])
        gf = MultipleGeometricFiles(device, config, seed=0,
                                    weight_fn=weight_fn)
    else:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    return gf


def _decode_layout(gf, state: dict, entries: dict,
                   shapes: dict) -> list[tuple[SubsampleLedger, int]]:
    """Install every file layout and ledger (records still missing);
    returns ``(ledger, run id)`` pairs."""
    if isinstance(gf, MultipleGeometricFiles):
        layouts = [file.layout for file in gf.files]
        for file, file_state in zip(gf.files, state["files"]):
            file.dummy_slots = list(file_state["dummy_slots"])
            file.subsamples = []
        lists = [file.subsamples for file in gf.files]
    else:
        layouts = [gf._layout]
        gf.subsamples = []
        lists = [gf.subsamples]
    for layout, file_state in zip(layouts, state["files"]):
        layout._free_slots = [list(s) for s in file_state["free_slots"]]
        if file_state["startup_cursor"] is not None:
            layout._startup_cursor = file_state["startup_cursor"]
    decoded = []
    # Subsample lists run newest first: flushes insert at the front.
    for encoded in sorted(entries.values(), key=lambda e: -e[1]):
        fields = dict(zip(_LEDGER_FIELDS, encoded))
        ledger = _decode_ledger(fields, *shapes[fields["ident"]])
        lists[fields["file"]].append(ledger)
        decoded.append((ledger, fields["run"]))
    return decoded


def _decode_ledger(fields: dict, sizes: list,
                   slots: list) -> SubsampleLedger:
    ledger = SubsampleLedger.__new__(SubsampleLedger)
    ledger.ident = fields["ident"]
    ledger.first_level = fields["first_level"]
    ledger.tail_size = fields["tail_size"]
    ledger.live = fields["live"]
    ledger.records = ledger.weights = ledger.aux = None
    ledger.stack_balance = fields["stack_balance"]
    ledger.stack_capacity = fields["stack_capacity"]
    ledger.overflowed = False
    ledger.max_stack_balance = fields["max_stack_balance"]
    ledger._reconciled_balance = fields["reconciled_balance"]
    ledger.stack_region = fields["stack_region"]
    ledger.restore_layout_state(sizes, slots, fields["head"],
                                fields["slots_head"])
    return ledger


def _restore_buffer(buffer, records, weights, scale: float,
                    aux) -> None:
    count = len(records)
    buffer._slab[:count] = records.array
    buffer._weights = weights
    buffer._scale = scale
    if aux is not None:
        buffer._aux[:count] = aux
    buffer._count = count


def _restore_scalars(gf, state: dict) -> None:
    gf._seen = state["seen"]
    gf._samples_added = state["samples_added"]
    gf.flushes = state["flushes"]
    gf.stack_overflows = state["stack_overflows"]
    gf._startup_index = state["startup_index"]
    gf._next_ident = state["next_ident"]
    law_state = state["law_state"]
    if law_state is not None:
        gf._law.restore_state(law_state)
    gf._rng.setstate(_decode_py_rng(state["rng_state"]))
    _restore_np_rng(gf._np_rng, state["np_rng_state"])
    device = state["device"]
    model = getattr(gf.device, "model", None)
    if device is not None and isinstance(model, DiskModel):
        model.stats = DiskStats(**device["stats"])
        model._head = device["head"]
    gf.checkpoint_meta = state["meta"]


def _encode_py_rng(state: tuple) -> list:
    """random.Random state is nested tuples; JSON wants lists."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def _decode_py_rng(state: list) -> tuple:
    version, internal, gauss_next = state
    return (version, tuple(internal), gauss_next)


def _encode_np_rng(np_rng) -> dict:
    """numpy ``Generator`` state as pure-builtin JSON types.

    ``bit_generator.state`` nests only strings and integers for PCG64
    (including the 32-bit carry in ``has_uint32``/``uinteger``, so the
    snapshot is the *complete* generator state), but numpy does not
    promise builtin ``int`` for the values.  Coercing every scalar
    explicitly makes the JSON round trip bit-exact by construction --
    Python ints are arbitrary precision, so the 128-bit PCG64 counters
    survive untouched.
    """
    return _pure_json(np_rng.bit_generator.state)


def _pure_json(value):
    if isinstance(value, dict):
        return {str(k): _pure_json(v) for k, v in value.items()}
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return value
    try:
        return int(value)
    except (TypeError, ValueError):
        raise TypeError(
            f"cannot serialise RNG state member {value!r}"
        ) from None


def _restore_np_rng(np_rng, state: dict) -> None:
    """Install a saved bit-generator state, failing loudly on mismatch."""
    expected = type(np_rng.bit_generator).__name__
    saved = state.get("bit_generator")
    if saved != expected:
        raise ValueError(
            f"checkpoint holds {saved!r} RNG state; the restored "
            f"structure uses {expected!r}"
        )
    np_rng.bit_generator.state = state
