"""The ``engine`` workload: the bare geometric file, in this process.

No server, no service, no checkpoint in the measured loop.  Set-up
builds every input batch from the seed (generating them inside the
timed loop swung the rate by a third) and a fresh ``GeometricFile``
(capacity 200,000, buffer 20,000, 50 B records, ``retain_records=True``,
otherwise the default config) on the paper's simulated disk.

The run replays the same batches through a fresh file, pass after
pass, until the run's seconds are used (at least two passes).  After
each pass it times ``samples_per_pass`` direct ``sample(64)`` calls and
``reopens_per_pass`` reopenings of the first pass's checkpoint.  Every
pass of one seed must charge identical ``DiskStats`` and simulated
clock; that is one of the run's correctness checks.
"""

from __future__ import annotations

import io
import random
import time
from dataclasses import astuple

from checks import check_identical, check_sample, check_seen
from common import (
    EngineScale,
    OfferedKeys,
    median,
    percentile,
    stream_batch,
    vm_hwm_mib,
)

#: Stream id of the engine's input (stream 0 is the served prefill).
ENGINE_STREAM = 1


def engine_config(scale: EngineScale):
    from repro.core.geometric_file import GeometricFileConfig

    return GeometricFileConfig(capacity=scale.capacity,
                               buffer_capacity=scale.buffer,
                               record_size=scale.record_size,
                               retain_records=True)


def fresh_file(config, seed: int):
    from repro.core.geometric_file import GeometricFile
    from repro.service.sharded import default_device_spec

    return GeometricFile(default_device_spec("geometric", config).build(),
                         config, seed=seed)


def set_up(seed: int, scale: EngineScale):
    """Inputs plus a fresh file: what ``setup_s`` times."""
    from repro.storage.records import RecordSchema

    schema = RecordSchema(scale.record_size)
    config = engine_config(scale)
    batches = [stream_batch(seed, ENGINE_STREAM, index, scale.batch, schema)
               for index in range(scale.pass_batches)]
    return config, batches, fresh_file(config, seed)


def run_pass(gf, batches, *, note_flushes: bool) -> dict:
    """Offer every batch; per-call latency and (optionally) flush flags."""
    latencies, flushed = [], []
    flushes = gf.flushes
    start = time.perf_counter()
    for batch in batches:
        t0 = time.perf_counter()
        gf.offer_batch(batch)
        latencies.append(time.perf_counter() - t0)
        if note_flushes:
            flushed.append(gf.flushes != flushes)
            flushes = gf.flushes
    wall = time.perf_counter() - start
    stats = gf.stats()
    return {"wall": wall, "latencies": latencies, "flushed": flushed,
            "stats": stats,
            "digest": (stats.clock, stats.seen, stats.samples_added,
                       stats.flushes, astuple(stats.io))}


def timed_samples(gf, count: int, k: int, seed: int, offered: OfferedKeys):
    latencies, problems = [], []
    rng = random.Random(seed)
    for _ in range(count):
        t0 = time.perf_counter()
        records = gf.sample(k, rng=rng)
        latencies.append(time.perf_counter() - t0)
        problems += check_sample([r.key for r in records], k, offered)
    return latencies, problems


def checkpoint_image(gf) -> str:
    """The file's state as ``save_geometric_file`` writes it."""
    from repro.core.checkpoint import save_geometric_file

    sink = io.StringIO()
    save_geometric_file(gf, sink)
    return sink.getvalue()


def reopen(image: str, config, seed: int, k: int, offered: OfferedKeys,
           label: str):
    """Time loading ``image`` to the first answered ``sample(k)``."""
    from repro.core.checkpoint import load_geometric_file
    from repro.service.sharded import default_device_spec

    device = default_device_spec("geometric", config).build()
    t0 = time.perf_counter()
    restored = load_geometric_file(io.StringIO(image), device)
    records = restored.sample(k, rng=random.Random(seed))
    seconds = time.perf_counter() - t0
    return seconds, [
        (f"{label} sample",
         check_sample([r.key for r in records], k, offered)),
        (f"{label} zero loss",
         check_seen(restored.stats().seen, offered.total,
                    "after reopening")),
    ]


def run_engine(seed: int, seconds: float, *,
               scale: EngineScale = EngineScale(), trace: bool = False
               ) -> dict:
    """Passes until ``seconds`` are used; after each pass, timed samples
    and timed reopenings of the first pass's checkpoint, so the
    repeated measurements spread over the whole run."""
    setups = []
    for _ in range(scale.setups):
        # Drop the previous set first, so the peak resident set holds
        # one set of inputs and one file, not two.
        batches = gf = None
        t0 = time.perf_counter()
        config, batches, gf = set_up(seed, scale)
        setups.append(time.perf_counter() - t0)
    records = len(batches) * scale.batch
    offered = OfferedKeys(seed)
    offered.add(ENGINE_STREAM, records)
    k = scale.served.sample_k
    passes, checks, sample_latencies, restores = [], [], [], []
    untraced = image = None
    deadline = time.perf_counter() + seconds
    while len(passes) < scale.min_passes or time.perf_counter() < deadline:
        if gf is None:
            gf = fresh_file(config, seed)
        note = trace and untraced is not None
        result = run_pass(gf, batches, note_flushes=note)
        if trace and untraced is None:
            # First pass of a traced run is the untraced twin.
            untraced, gf = result, None
            continue
        passes.append(result)
        label = f"pass {len(passes)}"
        checks.append((f"{label} zero loss",
                       check_seen(result["stats"].seen, records,
                                  "after the pass")))
        latencies, problems = timed_samples(gf, scale.samples_per_pass, k,
                                            seed + len(passes), offered)
        sample_latencies += latencies
        checks.append((f"{label} samples", problems))
        if image is None:
            image = checkpoint_image(gf)
        # Each pass's file is dropped before the reopening, so the
        # reopened file is built beside the image alone.
        gf = None
        for index in range(scale.reopens_per_pass):
            took, reopened = reopen(image, config, seed, k, offered,
                                    f"{label} reopen {index}")
            restores.append(took)
            checks += reopened
    digests = [p["digest"] for p in passes]
    if untraced is not None:
        digests.append(untraced["digest"])
    checks.append(("identical DiskStats and clock",
                   check_identical(digests, "DiskStats and clock")))
    return {"setups": setups, "passes": passes, "untraced": untraced,
            "samples": sample_latencies, "restores": restores,
            "checks": checks, "records": records, "offered": offered,
            "batches": batches, "rss_mb": vm_hwm_mib()}


def engine_metrics(raw: dict) -> dict:
    passes = raw["passes"]
    offers = [t for p in passes for t in p["latencies"]]
    samples = raw["samples"]
    clock = passes[0]["stats"].clock
    return {
        "setup_s": median(raw["setups"]),
        "ingest_rps": (raw["records"] * len(passes)
                       / sum(p["wall"] for p in passes)),
        "offer_p50_ms": percentile(offers, 0.50) * 1e3,
        "offer_p95_ms": percentile(offers, 0.95) * 1e3,
        "sample_qps": len(samples) / sum(samples),
        "sample_p50_ms": percentile(samples, 0.50) * 1e3,
        "sample_p95_ms": percentile(samples, 0.95) * 1e3,
        "sim_rps": raw["records"] / clock,
        "restore_s": median(raw["restores"]),
        "rss_mb": raw["rss_mb"],
    }


def engine_counts(raw: dict) -> dict:
    passes = raw["passes"]
    return {
        "offer_batch": {"attempted": sum(len(p["latencies"]) for p in passes),
                        "failed": 0},
        "sample": {"attempted": len(raw["samples"]), "failed": 0},
        "checks": {"attempted": len(raw["checks"]),
                   "failed": sum(1 for _, p in raw["checks"] if p)},
        "retries": 0,
    }
