"""Slab-engine micro-benchmark: flush encode, query, and AQP.

Retained records live in one packed structured-array slab per ledger.
This module measures what the slab buys over the record-object API on
*one* smoke-scale geometric file, for three operations:

* ``flush_encode`` -- serialising a whole segment:
  :meth:`RecordSchema.encode_batch` over record objects (one compiled
  ``pack_into`` per record) vs :meth:`RecordBatch.to_bytes` (one
  ``tobytes`` over the structured slab);
* ``query_aqp`` -- the end-to-end query loop: ``sample()`` +
  :class:`~repro.estimate.aqp.SampleQuery` (decode every row into a
  ``Record``, then per-record Python predicates and sums) vs
  ``sample_batch()`` + :class:`~repro.estimate.aqp.BatchQuery` (column
  views and ``numpy`` reductions, no record objects at all);
* ``zone_map`` -- a pruned range scan: the record iterator
  :meth:`~repro.core.zonemap.ZoneMapIndex.query` vs
  :meth:`~repro.core.zonemap.ZoneMapIndex.query_batch`.

The "scalar" column of the report is the record API, the "columnar"
column the slab API.  As with the ingest smoke test, the point is
regression detection: the report (``BENCH_query.json``) pins the
measured speedups so a change that quietly re-routes a slab path
through per-record Python shows up as a collapsed ratio.  Both columns
read the same file, so wall-clock CPU time is the right metric here.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.geometric_file import GeometricFile, GeometricFileConfig
from ..core.zonemap import ZoneMapIndex
from ..estimate.aqp import BatchQuery, SampleQuery
from ..storage.device import SimulatedBlockDevice
from ..storage.recordbatch import RecordBatch
from ..storage.records import RecordSchema
from .experiments import ExperimentSpec, experiment_1

#: Default stream length: two smoke-reservoir fills, enough to push the
#: twin files well past startup into steady-state flushing.
DEFAULT_RECORDS = 200_000

#: Default records per ingest chunk.
DEFAULT_BATCH = 4096

#: Default timed repetitions per measured operation.
DEFAULT_ROUNDS = 3


def _make_file(spec: ExperimentSpec) -> GeometricFile:
    config = GeometricFileConfig(
        capacity=spec.capacity,
        buffer_capacity=spec.buffer_capacity,
        record_size=spec.record_size,
        retain_records=True,
        admission="uniform",
    )
    params = spec.disk_parameters()
    blocks = GeometricFile.required_blocks(config, params.block_size)
    return GeometricFile(SimulatedBlockDevice(blocks, params), config,
                         seed=spec.seed)


def _make_stream(schema: RecordSchema, records: int,
                 seed: int) -> RecordBatch:
    """A value-bearing, time-correlated stream as one batch.

    Values are lognormal (a plausible AQP measure column); timestamps
    are stream order, which is what makes the zone-map comparison
    meaningful (envelopes prune to a suffix).
    """
    rng = np.random.default_rng(seed)
    return RecordBatch.from_columns(
        schema,
        keys=np.arange(records, dtype=np.int64),
        values=rng.lognormal(mean=3.0, sigma=0.5, size=records),
        timestamps=np.arange(records, dtype=np.float64),
    )


def _ingest(spec: ExperimentSpec, stream: RecordBatch,
            batch_size: int) -> GeometricFile:
    gf = _make_file(spec)
    for start in range(0, len(stream), batch_size):
        gf.offer_batch(stream[start:start + batch_size])
    return gf


def _time_rounds(op, rounds: int) -> float:
    """Wall-clock seconds for ``rounds`` calls of ``op``."""
    start = time.perf_counter()
    for _ in range(rounds):
        op()
    return max(time.perf_counter() - start, 1e-9)


def measure_flush_encode(schema: RecordSchema, batch: RecordBatch, *,
                         rounds: int = DEFAULT_ROUNDS) -> dict:
    """Whole-segment serialisation: record codec vs slab ``tobytes``."""
    rows = batch.to_records()
    expected = schema.encode_batch(rows)
    if batch.to_bytes() != expected:
        raise AssertionError("slab encode is not byte-identical")
    scalar_s = _time_rounds(lambda: schema.encode_batch(rows), rounds)
    columnar_s = _time_rounds(batch.to_bytes, rounds)
    n = len(batch) * rounds
    scalar_rps = n / scalar_s
    columnar_rps = n / columnar_s
    return {
        "records": len(batch),
        "scalar_rps": round(scalar_rps),
        "columnar_rps": round(columnar_rps),
        "speedup": round(columnar_rps / scalar_rps, 2),
    }


def measure_query_aqp(gf: GeometricFile, *,
                      rounds: int = DEFAULT_ROUNDS) -> dict:
    """sample() + SampleQuery vs sample_batch() + BatchQuery.

    One round is the full AQP loop the docs demonstrate: materialise
    the sample, range-filter on ``value``, then AVG over the selection
    plus SUM and a predicate COUNT over the whole sample.
    """
    population = gf.stats().seen
    low, high = 15.0, 35.0

    def scalar_round() -> None:
        query = SampleQuery(gf.sample(), population_size=population)
        selection = query.filter(lambda r: low <= r.value <= high)
        selection.avg()
        query.sum()
        query.count(lambda r: r.value >= high)

    def columnar_round() -> None:
        query = BatchQuery(gf.sample_batch(), population_size=population)
        selection = query.filter("value", low, high)
        selection.avg()
        query.sum()
        query.count(query.mask("value", low=high))

    sample_size = len(gf.sample_batch())
    scalar_s = _time_rounds(scalar_round, rounds)
    columnar_s = _time_rounds(columnar_round, rounds)
    n = sample_size * rounds
    scalar_rps = n / scalar_s
    columnar_rps = n / columnar_s
    return {
        "sample_size": sample_size,
        "scalar_rps": round(scalar_rps),
        "columnar_rps": round(columnar_rps),
        "speedup": round(columnar_rps / scalar_rps, 2),
    }


def measure_zone_map(gf: GeometricFile, *,
                     rounds: int = DEFAULT_ROUNDS) -> dict:
    """Pruned range scan: record iterator vs query_batch.

    The window is the newest tenth of the (time-correlated) stream, so
    the envelopes prune most subsamples and the comparison isolates the
    per-record cost of scanning the survivors.
    """
    seen = gf.stats().seen
    low, high = seen * 0.9, float(seen)
    index = ZoneMapIndex(gf, field="timestamp")
    matched = len(index.query_batch(low, high))
    if matched != sum(1 for _ in index.query(low, high)):
        raise AssertionError("zone-map paths matched different row sets")
    scalar_s = _time_rounds(
        lambda: sum(1 for _ in index.query(low, high)), rounds)
    columnar_s = _time_rounds(lambda: index.query_batch(low, high), rounds)
    scanned = index.stats().records_scanned
    n = max(scanned, 1) * rounds
    scalar_rps = n / scalar_s
    columnar_rps = n / columnar_s
    return {
        "records_scanned": scanned,
        "records_matched": matched,
        "scalar_rps": round(scalar_rps),
        "columnar_rps": round(columnar_rps),
        "speedup": round(columnar_rps / scalar_rps, 2),
    }


def query_smoke(*, records: int = DEFAULT_RECORDS,
                batch_size: int = DEFAULT_BATCH, seed: int = 0,
                rounds: int = DEFAULT_ROUNDS) -> dict:
    """Run the whole slab query benchmark; returns the report dict."""
    spec = experiment_1(scale=0, seed=seed)
    schema = RecordSchema(spec.record_size)
    stream = _make_stream(schema, records, seed)
    gf = _ingest(spec, stream, batch_size)
    resident = gf.sample_batch()
    return {
        "benchmark": "columnar query smoke",
        "config": {
            "capacity": spec.capacity,
            "buffer_capacity": spec.buffer_capacity,
            "record_size": spec.record_size,
            "records": records,
            "batch_size": batch_size,
            "rounds": rounds,
            "seed": seed,
        },
        "flush_encode": measure_flush_encode(schema, resident,
                                             rounds=rounds),
        "query_aqp": measure_query_aqp(gf, rounds=rounds),
        "zone_map": measure_zone_map(gf, rounds=rounds),
    }


def render_query_report(report: dict) -> str:
    """Human-readable table of the query_smoke report dict."""
    lines = ["record API vs slab API (records/second, wall clock)", ""]
    lines.append(f"  {'path':<22} {'record':>14} {'slab':>14} "
                 f"{'speedup':>8}")
    for key in ("flush_encode", "query_aqp", "zone_map"):
        row = report[key]
        lines.append(f"  {key:<22} {row['scalar_rps']:>14,} "
                     f"{row['columnar_rps']:>14,} {row['speedup']:>7.1f}x")
    zone = report["zone_map"]
    lines.append("")
    lines.append(f"  zone map scanned {zone['records_scanned']:,} records, "
                 f"matched {zone['records_matched']:,}")
    return "\n".join(lines)
