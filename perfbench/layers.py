"""Per-layer measurements for the traced run (``--trace 1``).

Everything here calls the program's public functions from outside; no
program source is touched.  Three sources feed the per-layer metrics:

* **spans** -- client request spans (this process) joined with the
  server's ``handle_frame`` > ``dispatch`` > sharded-call spans
  (``server.py``).  The clocks are the same system-wide monotonic
  clock, and a session has one request in flight, so a server span
  belongs to the client request of its session that contains it;
* **counters** -- deltas of ``ipc_stats()`` and the server's pushback
  counters across the traced phase;
* **replays** -- worker-side costs are invisible from the coordinator,
  so one shard's partition of the run's stream (split with the
  service's own partitioner) is replayed into a ``ManagedSample`` built
  from that shard's ``ShardSpec``, checkpointing on the worker's
  cadence; and the wire codec is timed on the run's own batches.

Layers a workload does not run through (the server, the coordinator
and IPC on ``engine``) report 0.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
from collections import defaultdict

from common import (
    WORK,
    PER_LAYER,
    ServedScale,
    median,
    percentile,
    stream_batch,
    stream_records,
)


def zero_layers() -> dict:
    return {name: 0.0 for name in PER_LAYER}


# -- serve.protocol -----------------------------------------------------------

def codec_metrics(batches: list, sample_records: list, repeats: int = 3
                  ) -> dict:
    """Time the ``offer_batch`` wire codec on the workload's own batches.

    Encode is ``encode_records`` + ``encode_frame``; decode is
    ``decode_frame`` + ``decode_records``, the server's side of it.
    """
    from repro.serve.protocol import (
        Request,
        decode_frame,
        decode_records,
        encode_frame,
        encode_records,
        success,
    )

    encode, decode, sizes = [], [], []
    for _ in range(repeats):
        for index, records in enumerate(batches):
            t0 = time.perf_counter()
            frame = encode_frame(Request(
                op="offer_batch", id=index,
                args={"records": encode_records(records)}).to_wire())
            t1 = time.perf_counter()
            decode_records(Request.from_wire(decode_frame(frame))
                           .args["records"])
            t2 = time.perf_counter()
            per_krec = 1e6 / len(records)
            encode.append((t1 - t0) * per_krec)
            decode.append((t2 - t1) * per_krec)
            sizes.append(len(frame) / len(records))
    reply = encode_frame(success(1, {"records": encode_records(
        sample_records)}).to_wire())
    return {
        "protocol.offer_bytes_per_record": median(sizes),
        "protocol.encode_ms_per_krec": median(encode),
        "protocol.decode_ms_per_krec": median(decode),
        "protocol.sample_reply_bytes": len(reply),
    }


# -- serve.server / service.sharded / trace -----------------------------------

def load_spans(path: str) -> list[tuple]:
    with open(path, encoding="ascii") as source:
        return [tuple(json.loads(line)) for line in source]


def join_spans(client_spans: list, server_spans: list) -> list[dict]:
    """One row per client request: its wall, and the durations of the
    server spans it contains, by layer."""
    children = defaultdict(list)
    for span in server_spans:
        children[span[1]].append(span)
    frames = defaultdict(list)
    for span in server_spans:
        if span[2] == "handle_frame":
            frames[span[5]].append(span)
    for spans in frames.values():
        spans.sort(key=lambda s: s[3])
    rows = []
    cursor = defaultdict(int)
    for session, op, start, end in sorted(client_spans, key=lambda c: c[2]):
        row = {"op": op, "wall": end - start, "handle": 0.0,
               "dispatch": 0.0, "sharded": 0.0, "matched": 0}
        spans = frames.get(session, [])
        i = cursor[session]
        while i < len(spans) and spans[i][3] < start:
            i += 1
        while i < len(spans) and spans[i][4] <= end:
            frame = spans[i]
            row["matched"] += 1
            row["handle"] += frame[4] - frame[3]
            for d in children[frame[0]]:
                row["dispatch"] += d[4] - d[3]
                for engine in children[d[0]]:
                    row["sharded"] += engine[4] - engine[3]
            i += 1
        cursor[session] = i
        rows.append(row)
    return rows


def span_metrics(client_spans: list, server_spans: list) -> dict:
    rows = join_spans(client_spans, server_spans)
    handle = defaultdict(list)
    sharded = defaultdict(list)
    dispatch_self = []
    children = defaultdict(list)
    for span in server_spans:
        children[span[1]].append(span)
    for span in server_spans:
        if span[2] == "dispatch":
            inner = sum(c[4] - c[3] for c in children[span[0]])
            dispatch_self.append(span[4] - span[3] - inner)
            if span[1] >= 0:
                frame = server_spans[span[1]]
                handle[span[6]].append(frame[4] - frame[3])
        elif span[2].startswith("sharded."):
            sharded[span[2]].append(span[4] - span[3])
    matched = [r for r in rows if r["matched"]]
    wall = sum(r["wall"] for r in matched) or 1.0

    def ms(values, q):
        return percentile(values, q) * 1e3 if values else 0.0

    return {
        "server.handle_ms.offer_batch.p50": ms(handle["offer_batch"], 0.50),
        "server.handle_ms.offer_batch.p95": ms(handle["offer_batch"], 0.95),
        "server.handle_ms.sample.p50": ms(handle["sample"], 0.50),
        "server.handle_ms.sample.p95": ms(handle["sample"], 0.95),
        "server.dispatch_self_ms": median(dispatch_self) * 1e3,
        "server.wait_ms.p95": ms([r["wall"] - r["handle"] for r in matched],
                                 0.95),
        "sharded.offer_batch_ms.p50": ms(sharded["sharded.offer_batch"],
                                         0.50),
        "sharded.offer_batch_ms.p95": ms(sharded["sharded.offer_batch"],
                                         0.95),
        "sharded.sample_ms.p50": ms(sharded["sharded.sample"], 0.50),
        "sharded.sample_ms.p95": ms(sharded["sharded.sample"], 0.95),
        "trace.client_wall_s": wall,
        "trace.self_share.client_wait": sum(
            r["wall"] - r["handle"] for r in matched) / wall,
        "trace.self_share.handle_frame": sum(
            r["handle"] - r["dispatch"] for r in matched) / wall,
        "trace.self_share.dispatch": sum(
            r["dispatch"] - r["sharded"] for r in matched) / wall,
        "trace.self_share.sharded": sum(
            r["sharded"] for r in matched) / wall,
        "trace.coverage": len(matched) / len(rows) if rows else 0.0,
    }


def counter_metrics(mark0: dict, mark1: dict, phase, done: dict) -> dict:
    ipc0, ipc1 = mark0["ipc"], mark1["ipc"]
    wall = mark1["t"] - mark0["t"]
    queries = phase.ops["sample"].attempted
    return {
        "server.busy_rejections": mark1["busy"] - mark0["busy"],
        "server.rate_limited": mark1["rate_limited"] - mark0["rate_limited"],
        "sharded.backpressure_stalls": (mark1["backpressure_stalls"]
                                        - mark0["backpressure_stalls"]),
        "sharded.journal_depth_max": done.get("journal_depth_max", 0),
        "ipc.send_wait_share": (ipc1["send_wait_seconds"]
                                - ipc0["send_wait_seconds"]) / wall,
        "ipc.recv_wait_ms_per_query": (
            (ipc1["recv_wait_seconds"] - ipc0["recv_wait_seconds"]) * 1e3
            / queries if queries else 0.0),
        "ipc.zero_copy_bytes_per_record": (
            (ipc1["zero_copy_bytes"] - ipc0["zero_copy_bytes"])
            / phase.acked if phase.acked else 0.0),
        "ipc.fallback_slabs": ipc1["fallback_slabs"] - ipc0["fallback_slabs"],
        "ipc.ring_stalls": ipc1["ring_stalls"] - ipc0["ring_stalls"],
        "ipc.dropped_replies": (ipc1["dropped_replies"]
                                - ipc0["dropped_replies"]),
    }


# -- core.managed / core.checkpoint / reservoir / disk ------------------------

def engine_layer_metrics(latencies: list, flushed: list, stats,
                         batch_records: list[int]) -> dict:
    """``engine.*`` and ``disk.*`` from per-call offer timings.

    ``flushed[i]`` says whether call ``i`` flushed (a ``flushes``
    delta); ``stats`` is the counter delta over the same calls.
    """
    admit = [t / n * 1e6 for t, f, n in zip(latencies, flushed,
                                            batch_records) if not f]
    plain = median([t for t, f in zip(latencies, flushed) if not f])
    flush = [t for t, f in zip(latencies, flushed) if f]
    flushes = stats["flushes"] or 1
    blocks = stats["blocks_read"] + stats["blocks_written"]
    return {
        "engine.admit_ms_per_krec": median(admit),
        "engine.flush_ms": (median(flush) - plain) * 1e3 if flush else 0.0,
        "engine.flushes": stats["flushes"],
        "engine.admit_ratio": (stats["samples_added"] / stats["seen"]
                               if stats["seen"] else 0.0),
        "disk.seeks_per_flush": stats["seeks"] / flushes,
        "disk.blocks_written_per_flush": stats["blocks_written"] / flushes,
        "disk.sim_s_per_flush": stats["clock"] / flushes,
        "disk.sequential_ratio": (stats["sequential_blocks"] / blocks
                                  if blocks else 0.0),
    }


def stats_counts(stats) -> dict:
    """The counters of a ``ReservoirStats`` that the layers read."""
    io = stats.io
    return {
        "seen": stats.seen,
        "samples_added": stats.samples_added,
        "flushes": stats.flushes,
        "clock": stats.clock,
        "seeks": io.seeks,
        "blocks_read": io.blocks_read,
        "blocks_written": io.blocks_written,
        "sequential_blocks": io.sequential_blocks,
    }


def stats_delta(before, after) -> dict:
    start, end = stats_counts(before), stats_counts(after)
    return {name: end[name] - start[name] for name in end}


def shard_replay(seed: int, scale: ServedScale, streams: list[tuple],
                 messages: int, k: int) -> dict:
    """Replay shard 0's partition of the stream into a ``ManagedSample``.

    ``streams`` lists ``(stream, batches, batch_size)`` after the
    prefill, in order.  The prefill goes in as ``RecordBatch``es split
    by ``split_batch`` (the service's columnar scatter) and is followed
    by a forced checkpoint, as in ``server.py``; then up to
    ``messages`` non-empty sub-batches of the listed streams go in as
    record lists split by ``split`` (what the server hands the service),
    checkpointing every ``checkpoint_batches`` messages as the shard
    worker does.  Only that second part is measured.
    """
    from repro.core.geometric_file import GeometricFileConfig
    from repro.service.partition import make_partitioner
    from repro.service.sharded import default_device_spec
    from repro.service.spec import ShardSpec, shard_directory
    from repro.storage.records import RecordSchema

    config = GeometricFileConfig(
        capacity=scale.capacity, buffer_capacity=scale.buffer,
        record_size=scale.record_size, retain_records=True,
        admission="uniform")
    work = WORK / f"replay-{os.getpid()}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    spec = ShardSpec(
        shard_id=0, directory=shard_directory(work, 0), kind="geometric",
        config=config, device=default_device_spec("geometric", config),
        seed=seed, checkpoint_batches=scale.checkpoint_batches)
    try:
        managed = spec.build()
        partitioner = make_partitioner("hash", scale.shards)
        schema = RecordSchema(scale.record_size)
        for index in range(scale.prefill // scale.prefill_batch):
            part = partitioner.split_batch(stream_batch(
                seed, 0, index, scale.prefill_batch, schema))[0]
            managed.offer_batch(part)
        managed.checkpoint(meta={"seq": 0})
        gf = managed.structure
        before = gf.stats()
        latencies, flushed, sizes, checkpoints = [], [], [], []
        applied = 0
        for stream, batches, size in streams:
            for index in range(batches):
                if applied >= messages:
                    break
                part = partitioner.split(stream_records(seed, stream,
                                                        index, size))[0]
                if not part:
                    continue
                flushes = gf.flushes
                t0 = time.perf_counter()
                managed.offer_batch(part)
                latencies.append(time.perf_counter() - t0)
                flushed.append(gf.flushes != flushes)
                sizes.append(len(part))
                applied += 1
                if applied % scale.checkpoint_batches == 0:
                    t0 = time.perf_counter()
                    managed.checkpoint(meta={"seq": applied})
                    checkpoints.append(time.perf_counter() - t0)
        delta = stats_delta(before, gf.stats())
        if not checkpoints:
            t0 = time.perf_counter()
            managed.checkpoint(meta={"seq": applied})
            checkpoints.append(time.perf_counter() - t0)
        retained = min(gf.stats().seen, config.capacity)
        size_bytes = os.path.getsize(spec.checkpoint_path)
        rng = random.Random(seed)
        sample_ms = []
        for _ in range(5):
            t0 = time.perf_counter()
            managed.sample(k, rng=rng)
            sample_ms.append((time.perf_counter() - t0) * 1e3)
        restores = []
        for _ in range(3):
            t0 = time.perf_counter()
            restored = spec.restore()
            restores.append((time.perf_counter() - t0) * 1e3)
            restored.structure.close()
        gf.close()
        metrics = engine_layer_metrics(latencies, flushed, delta, sizes)
        metrics.update({
            "engine.sample_ms": median(sample_ms),
            "checkpoint.ms.p50": percentile(checkpoints, 0.50) * 1e3,
            "checkpoint.ms.p95": percentile(checkpoints, 0.95) * 1e3,
            "checkpoint.count": len(checkpoints),
            "checkpoint.bytes_per_record": size_bytes / retained,
            "checkpoint.restore_ms": median(restores),
        })
        return metrics
    finally:
        shutil.rmtree(work, ignore_errors=True)
