"""Shared pieces of the end-to-end benchmark: sizes, the seeded stream,
percentiles, and the metric registry.

Every input the program sees is a pure function of the workload seed:
``stream_batch(seed, stream, index, n)`` is batch ``index`` of stream
``stream``.  Stream 0 is the set-up prefill; streams 1 and up belong to
load-generator sessions.  Keys inside one stream are contiguous, so the
set of offered keys is a handful of ranges (:class:`OfferedKeys`).
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch area inside the checkout: service directories and traces.
WORK = ROOT / ".perfbench"

#: Key stride between streams; a stream never offers this many records.
STREAM_STRIDE = 1 << 40


def require_source() -> None:
    """Put ``src/`` on the import path, or exit if the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class ServedScale:
    """The served service and its load (``ingest``)."""

    shards: int = 2
    capacity: int = 50_000          # per shard
    buffer: int = 5_000             # per shard
    record_size: int = 50
    checkpoint_batches: int = 8
    prefill: int = 245_760          # 2.5x shards * capacity: every shard full
    prefill_batch: int = 8_192
    ingest_batch: int = 512
    sample_k: int = 64
    probe_samples: int = 300        # ingest: sample probe, split over setups
    chi_k: int = 4_000              # records drawn for the chi-square test
    setups: int = 3                 # launches per run; setup_s is the median
    reopenings: int = 3             # restarts per run; restore_s is the median
    replay_messages: int = 96       # shard replay: messages after prefill


@dataclass(frozen=True)
class EngineScale:
    """The bare geometric file on the simulated disk (``engine``)."""

    capacity: int = 200_000
    buffer: int = 20_000
    record_size: int = 50
    batch: int = 4_096
    pass_batches: int = 150         # 614,400 records per pass
    min_passes: int = 2             # the determinism check needs two
    samples_per_pass: int = 25
    reopens_per_pass: int = 2
    setups: int = 3
    replay_messages: int = 96
    served: ServedScale = field(default_factory=ServedScale)


# -- the seeded stream --------------------------------------------------------

def key_base(seed: int) -> int:
    """Seeded offset of every stream's first key."""
    return (seed * 2_654_435_761) % (1 << 30)


def stream_keys(seed: int, stream: int, index: int, n: int):
    import numpy as np

    start = stream * STREAM_STRIDE + key_base(seed) + index * n
    return np.arange(start, start + n, dtype=np.int64)


def stream_batch(seed: int, stream: int, index: int, n: int, schema):
    """Batch ``index`` of ``stream`` as a ``RecordBatch``."""
    import numpy as np

    from repro.storage.recordbatch import RecordBatch

    keys = stream_keys(seed, stream, index, n)
    rng = np.random.default_rng([seed, stream, index])
    values = rng.random(n) * 1000.0
    stamps = np.arange(index * n, index * n + n, dtype=np.float64)
    return RecordBatch.from_columns(schema, keys, values, stamps)


def stream_records(seed: int, stream: int, index: int, n: int) -> list:
    """Batch ``index`` of ``stream`` as a list of ``Record`` objects."""
    import numpy as np

    from repro.storage.records import Record

    keys = stream_keys(seed, stream, index, n).tolist()
    values = (np.random.default_rng([seed, stream, index]).random(n)
              * 1000.0).tolist()
    base = float(index * n)
    return [Record(key=k, value=v, timestamp=base + i)
            for i, (k, v) in enumerate(zip(keys, values))]


class OfferedKeys:
    """The exact set of keys offered: a prefix of each stream."""

    def __init__(self, seed: int) -> None:
        self.base = key_base(seed)
        self.counts: dict[int, int] = {}

    def add(self, stream: int, n: int) -> None:
        self.counts[stream] = self.counts.get(stream, 0) + n

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def rank(self, key: int) -> int | None:
        """Position of ``key`` in the sorted offered set, or None."""
        stream, offset = divmod(int(key) - self.base, STREAM_STRIDE)
        if offset < 0 or offset >= self.counts.get(stream, 0):
            return None
        return sum(c for s, c in self.counts.items() if s < stream) + offset


# -- summaries ----------------------------------------------------------------

def percentile(values, q: float, *, beyond: float | None = None) -> float:
    """Nearest-rank percentile; ``math.inf`` entries (failed requests)
    sit beyond every finite latency and read as ``beyond``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    value = ordered[index]
    if math.isinf(value):
        return beyond if beyond is not None else max(
            v for v in ordered if not math.isinf(v))
    return value


def median(values, default: float = 0.0) -> float:
    return statistics.median(values) if values else default


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (via ``/proc/*/task/*/children``)."""
    found: list[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children",
                          encoding="ascii") as handle:
                    children = [int(c) for c in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            frontier.extend(children)
    return found


# -- metric registry (mirrors BENCHMARK.json) ---------------------------------

WORKLOADS = {
    "ingest": "closed-loop offer_batch from two sessions on a prefilled "
              "2-shard process/shm service: the whole write path "
              "(wire codec, IPC, shard admission, JSON checkpoints)",
    "engine": "4,096-record batches through a bare GeometricFile on the "
              "simulated disk: the paper's Figure 7 path, no codec, IPC "
              "or checkpoint",
}

#: name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ingest_rps": ("rec/s", "higher", 0.25),
    "offer_p50_ms": ("ms", "lower", 0.25),
    "offer_p95_ms": ("ms", "lower", 0.25),
    "sim_rps": ("rec/sim_s", "higher", 0.03),
    "restore_s": ("s", "lower", 0.25),
    "rss_mb": ("MiB", "lower", 0.1),
    "ok_share": ("ratio", "higher", 0.01),
}

#: The read path's client-side figures.  Every run prints them, but they
#: are not end-to-end metrics with a bound: ``sample(64)`` is memory-bound
#: (it copies the whole retained reservoir), and on a shared 2-vCPU host
#: its median moved 2x between runs of the same seed while compute-bound
#: offers moved 5%, an interquartile spread over ten seeds of 0.16-0.54,
#: past any bound that could still catch a regression.  The traced run
#: reports them as ``client.*`` layer metrics.
READS = {
    "sample_qps": ("1/s", "higher"),
    "sample_p50_ms": ("ms", "lower"),
    "sample_p95_ms": ("ms", "lower"),
}

#: name -> (unit, better)
PER_LAYER = {
    "protocol.offer_bytes_per_record": ("B/rec", "lower"),
    "protocol.encode_ms_per_krec": ("ms/krec", "lower"),
    "protocol.decode_ms_per_krec": ("ms/krec", "lower"),
    "protocol.sample_reply_bytes": ("B", "lower"),
    "server.handle_ms.offer_batch.p50": ("ms", "lower"),
    "server.handle_ms.offer_batch.p95": ("ms", "lower"),
    "server.handle_ms.sample.p50": ("ms", "lower"),
    "server.handle_ms.sample.p95": ("ms", "lower"),
    "server.dispatch_self_ms": ("ms", "lower"),
    "server.wait_ms.p95": ("ms", "lower"),
    "server.busy_rejections": ("count", "lower"),
    "server.rate_limited": ("count", "lower"),
    "sharded.offer_batch_ms.p50": ("ms", "lower"),
    "sharded.offer_batch_ms.p95": ("ms", "lower"),
    "sharded.sample_ms.p50": ("ms", "lower"),
    "sharded.sample_ms.p95": ("ms", "lower"),
    "sharded.backpressure_stalls": ("count", "lower"),
    "sharded.journal_depth_max": ("count", "lower"),
    "ipc.send_wait_share": ("ratio", "lower"),
    "ipc.recv_wait_ms_per_query": ("ms", "lower"),
    "ipc.zero_copy_bytes_per_record": ("B/rec", "higher"),
    "ipc.fallback_slabs": ("count", "lower"),
    "ipc.ring_stalls": ("count", "lower"),
    "ipc.dropped_replies": ("count", "lower"),
    "checkpoint.ms.p50": ("ms", "lower"),
    "checkpoint.ms.p95": ("ms", "lower"),
    "checkpoint.count": ("count", "lower"),
    "checkpoint.bytes_per_record": ("B/rec", "lower"),
    "checkpoint.restore_ms": ("ms", "lower"),
    "engine.admit_ms_per_krec": ("ms/krec", "lower"),
    "engine.flush_ms": ("ms", "lower"),
    "engine.flushes": ("count", "lower"),
    "engine.admit_ratio": ("ratio", "lower"),
    "engine.sample_ms": ("ms", "lower"),
    "disk.seeks_per_flush": ("count", "lower"),
    "disk.blocks_written_per_flush": ("count", "lower"),
    "disk.sim_s_per_flush": ("sim_s", "lower"),
    "disk.sequential_ratio": ("ratio", "higher"),
    "client.retries": ("count", "lower"),
    "client.sample_qps": ("1/s", "higher"),
    "client.sample_p50_ms": ("ms", "lower"),
    "client.sample_p95_ms": ("ms", "lower"),
    "trace.client_wall_s": ("s", "lower"),
    "trace.self_share.client_wait": ("ratio", "lower"),
    "trace.self_share.handle_frame": ("ratio", "lower"),
    "trace.self_share.dispatch": ("ratio", "lower"),
    "trace.self_share.sharded": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_ms": ("ms", "lower"),
}


def metric_block(values: dict, registry: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every registry name, in order."""
    missing = [name for name in registry if name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {name: {"value": float(values[name]), "unit": registry[name][0]}
            for name in registry}
