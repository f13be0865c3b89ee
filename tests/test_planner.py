"""Tests for the tiered AQP answer engine (``repro.estimate.planner``).

Three statistical properties anchor the suite:

* chi-square membership uniformity of :class:`HotSubsample` under
  sustained overwrite churn (both the scalar and the vectorised
  admission paths);
* KS equivalence between cache-answered estimates and estimates from
  ideal uniform reservoir draws of the same size (the law every
  reservoir's ``sample()`` is separately tested against);
* CLT interval coverage across 200 seeded runs.

The rest covers the planner's tiering mechanics -- bound checks,
escalation sizing, coherence self-healing, trace/gauge wiring -- and
the cache's integration with every front-end named by the protocol:
``GeometricFile``, ``MultipleGeometricFiles``, ``ManagedSample``,
``ShardedReservoir``, and ``ServeClient`` (where a cache hit must skip
the transport entirely).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.stats

from conftest import TEST_BLOCK, make_geometric_file, make_multi_file, \
    small_disk_params
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.core.managed import ManagedSample
from repro.estimate import (
    HotSubsample,
    QueryPlanner,
    SnapshotEstimator,
)
from repro.obs import MetricsRegistry, TraceSink
from repro.serve import ReservoirServer, ServeClient
from repro.service import ShardedReservoir
from repro.storage.device import SimulatedBlockDevice
from repro.storage.recordbatch import RecordBatch
from repro.storage.records import Record, RecordSchema

pytestmark = pytest.mark.aqp

SCHEMA = RecordSchema(40)


def records_with_values(values, start=0):
    return [Record(key=start + i, value=float(v), timestamp=0.0)
            for i, v in enumerate(values)]


def keyed(n, start=0):
    return records_with_values(range(start, start + n), start)


# -- the hot subsample --------------------------------------------------------


class TestHotSubsample:
    def test_warm_fill_keeps_everything(self):
        hot = HotSubsample(SCHEMA, budget=64)
        hot.observe_many(keyed(40))
        assert hot.fill == 40 and hot.seen == 40 and hot.coherent
        assert sorted(hot.view().column("key").tolist()) == list(range(40))
        hot.check_invariant()

    def test_scalar_and_batch_verbs_share_the_law(self):
        hot = HotSubsample(SCHEMA, budget=32)
        for r in keyed(100):
            hot.observe(r)
        batch = RecordBatch.from_records(SCHEMA, keyed(100, start=100))
        hot.observe_batch(batch)
        assert hot.seen == 200 and hot.fill == 32
        hot.check_invariant()

    def test_rejects_degenerate_budget(self):
        with pytest.raises(ValueError):
            HotSubsample(SCHEMA, budget=1)

    def test_observe_count_breaks_coherence(self):
        hot = HotSubsample(SCHEMA, budget=16)
        hot.observe_many(keyed(16))
        hot.observe_count(10)
        assert not hot.coherent and hot.seen == 26
        # Further record-bearing ingest keeps counting but cannot admit.
        hot.observe_many(keyed(5, start=26))
        assert hot.seen == 31 and not hot.coherent
        assert hot.staleness() == 1.0

    def test_none_payload_breaks_coherence(self):
        hot = HotSubsample(SCHEMA, budget=16)
        hot.observe(None)
        assert not hot.coherent and hot.seen == 1

    def test_refresh_restores_coherence_and_thins_to_budget(self):
        hot = HotSubsample(SCHEMA, budget=16)
        hot.observe_count(500)
        assert not hot.coherent
        hot.refresh(RecordBatch.from_records(SCHEMA, keyed(100)), seen=500)
        assert hot.coherent and hot.fill == 16 and hot.seen == 500
        assert hot.refreshes == 1
        hot.check_invariant()

    def test_refresh_smaller_than_budget_shrinks_m(self):
        hot = HotSubsample(SCHEMA, budget=64)
        hot.observe_count(100)
        hot.refresh(RecordBatch.from_records(SCHEMA, keyed(20)), seen=100)
        assert hot.fill == 20 and hot.coherent
        # Subsequent stream admissions hold the shrunken reservoir size
        # fixed (Algorithm R cannot soundly regrow m mid-stream).
        hot.observe_many(keyed(200, start=100))
        assert hot.fill == 20
        hot.check_invariant()

    def test_refresh_rejects_impossible_population(self):
        hot = HotSubsample(SCHEMA, budget=8)
        with pytest.raises(ValueError):
            hot.refresh(RecordBatch.from_records(SCHEMA, keyed(10)), seen=5)

    def test_enabled_mid_stream_starts_incoherent(self):
        hot = HotSubsample(SCHEMA, budget=8, stream_seen=1000)
        assert not hot.coherent and hot.seen == 1000

    def test_membership_uniformity_chi_square_batched(self):
        """Under heavy overwrite churn every stream position is cached
        with equal probability (vectorised admission path)."""
        m, n, trials = 50, 1000, 400
        counts = np.zeros(n)
        for seed in range(trials):
            hot = HotSubsample(SCHEMA, budget=m, seed=seed)
            for start in range(0, n, 250):
                hot.observe_many(keyed(250, start=start))
            assert hot.fill == m
            counts[hot.view().column("key")] += 1
        assert counts.sum() == trials * m
        _, p = scipy.stats.chisquare(counts)
        assert p > 1e-3, f"cached membership is not uniform (p={p:.2e})"

    def test_membership_uniformity_chi_square_scalar(self):
        """Same law through the one-record ``observe`` path."""
        m, n, trials = 20, 200, 400
        counts = np.zeros(n)
        for seed in range(trials):
            hot = HotSubsample(SCHEMA, budget=m, seed=seed)
            for r in keyed(n):
                hot.observe(r)
            counts[hot.view().column("key")] += 1
        _, p = scipy.stats.chisquare(counts)
        assert p > 1e-3, f"cached membership is not uniform (p={p:.2e})"

    def test_cache_estimates_match_reservoir_law_ks(self):
        """Cache-answered AVG estimates are distributed like estimates
        from ideal uniform draws of the same size -- the law the full
        reservoir's ``sample()`` is separately tested against."""
        m, n, runs = 256, 3000, 150
        cache_estimates, reservoir_estimates = [], []
        for seed in range(runs):
            rng = np.random.default_rng(10_000 + seed)
            values = rng.uniform(0.0, 1000.0, size=n)
            hot = HotSubsample(SCHEMA, budget=m, seed=seed)
            for start in range(0, n, 1000):
                hot.observe_many(
                    records_with_values(values[start:start + 1000], start))
            cache_estimates.append(hot.query().avg().value)
            draw = rng.choice(values, size=m, replace=False)
            reservoir_estimates.append(float(draw.mean()))
        _, p = scipy.stats.ks_2samp(cache_estimates, reservoir_estimates)
        assert p > 1e-3, (
            f"cache-answered estimates diverge from the uniform "
            f"reservoir law (KS p={p:.2e})")

    def test_clt_coverage_across_200_seeded_runs(self):
        """95% intervals from the cache cover the true stream mean at
        (at least) the nominal rate across 200 independent streams."""
        m, n, runs = 512, 4000, 200
        covered = 0
        for seed in range(runs):
            rng = np.random.default_rng(20_000 + seed)
            values = rng.uniform(0.0, 1000.0, size=n)
            hot = HotSubsample(SCHEMA, budget=m, seed=seed)
            hot.observe_many(records_with_values(values))
            interval = hot.query().avg().interval(0.95)
            truth = float(values.mean())
            if interval.low <= truth <= interval.high:
                covered += 1
        # Binomial(200, 0.95) puts 3+ sigma below the mean at ~180;
        # without-replacement sampling only widens the margin.
        assert covered >= 180, f"coverage {covered}/200 below nominal"


# -- the shared snapshot estimator -------------------------------------------


class TestSnapshotEstimator:
    def test_sum_count_avg(self):
        est = SnapshotEstimator(keyed(100), 1000)
        assert est.sum().value == pytest.approx(10 * sum(range(100)))
        assert est.count().value == pytest.approx(1000)
        assert est.avg().value == pytest.approx(49.5)
        assert est.count(lambda r: r.value < 50).value == pytest.approx(500)

    def test_sum_needs_population(self):
        with pytest.raises(ValueError, match="population_size"):
            SnapshotEstimator(keyed(10)).sum()

    def test_avg_needs_two_matching(self):
        with pytest.raises(ValueError, match="fewer than two"):
            SnapshotEstimator(keyed(10)).avg(
                predicate=lambda r: r.value > 8)

    def test_rejects_impossible_population(self):
        with pytest.raises(ValueError):
            SnapshotEstimator(keyed(10), 5)


# -- the planner over the geometric file -------------------------------------


def planner_over_geometric(tmp_path=None, *, capacity=512, stream=4000,
                           budget=1024, error=0.05, seed=0):
    gf = make_geometric_file(capacity=capacity, buffer_capacity=64,
                             record_size=40, seed=seed)
    planner = QueryPlanner(gf, error=error, confidence=0.95,
                           budget=budget, seed=seed)
    rng = np.random.default_rng(seed)
    for start in range(0, stream, 1000):
        gf.offer_batch(records_with_values(
            rng.uniform(0.0, 1000.0, size=1000), start))
    return gf, planner


class TestQueryPlannerGeometric:
    def test_broad_aggregates_hit_the_cache(self):
        gf, planner = planner_over_geometric()
        for answer in (planner.avg(), planner.sum(), planner.count()):
            assert answer.tier == "cache"
            assert answer.target_met
            assert answer.k_drawn is None and answer.reason is None
        assert planner.hit_rate == 1.0
        # The Section 2 arithmetic: uniform values (cv ~ 0.58) need
        # ~513 rows for 5% at 95%, which the 1024-row cache holds.
        assert planner.avg().n_used <= 1024

    def test_selective_query_escalates_with_sized_draw(self):
        gf, planner = planner_over_geometric()
        answer = planner.count(where=("value", 990.0, 1000.0))
        assert answer.tier == "disk"
        assert answer.reason == "bound_missed"
        # A 1% predicate needs ~150k rows; the draw is clamped to the
        # structure capacity (the largest always-answerable draw).
        assert answer.k_drawn == 512
        assert planner.escalations == 1

    def test_estimates_are_consistent_with_truth(self):
        gf, planner = planner_over_geometric()
        answer = planner.avg()
        # Uniform [0, 1000): the cache estimate must land near 500 well
        # within a few interval half-widths.
        assert abs(answer.value - 500.0) < 5 * answer.interval.half_width

    def test_count_only_feed_escalates_then_heals(self):
        """Any count-only feeder (``ingest``, skip gaps) breaks cache
        coherence; the next query escalates and the refresh from that
        uniform draw restores it."""
        gf, planner = planner_over_geometric()
        planner.cache.observe_count(500)
        assert not planner.cache.coherent
        healed = planner.avg()
        assert healed.tier == "disk" and healed.reason == "incoherent"
        assert planner.cache.coherent
        assert planner.cache.seen == gf.stats().seen
        # The healed cache holds one capacity-sized draw (512 rows --
        # right at the 5% AVG boundary), so assert the hit at a target
        # those rows certify with margin.
        assert planner.avg(error=0.08).tier == "cache"

    def test_ingest_verb_marks_cache_incoherent(self):
        """The count-only ``ingest`` hook feeds ``observe_count`` (on a
        structure that allows count-only mode)."""
        gf = make_geometric_file(capacity=256, buffer_capacity=32,
                                 record_size=40, retain_records=False)
        hot = gf.enable_aqp_cache(budget=64)
        gf.ingest(100)
        assert not hot.coherent and hot.seen == 100
        assert hot.seen == gf.stats().seen

    def test_tighter_target_escalates(self):
        gf, planner = planner_over_geometric()
        assert planner.avg(error=0.05).tier == "cache"
        answer = planner.avg(error=0.0005)
        assert answer.tier == "disk" and answer.reason == "bound_missed"

    def test_trace_events_and_gauges(self):
        gf, planner = planner_over_geometric()
        registry = MetricsRegistry()
        trace = TraceSink()
        planner.instrument(registry, trace, name="gf-planner")
        planner.avg()
        planner.count(where=("value", 990.0, 1000.0))
        hits = trace.events(kind="aqp_cache_hit", source="gf-planner")
        escalations = trace.events(kind="aqp_escalate", source="gf-planner")
        assert len(hits) == 1 and hits[0].fields["aggregate"] == "avg"
        assert len(escalations) == 1
        assert escalations[0].fields["reason"] == "bound_missed"
        gauges = {m.name for m in registry}
        assert {"aqp.hit_rate", "aqp.cache_staleness",
                "aqp.cache_fill"} <= gauges
        assert registry.gauge(
            "aqp.hit_rate", structure="gf-planner").value == 0.5

    def test_bit_exact_with_uncached_twin(self):
        """Enabling the cache and planning queries never perturbs the
        engine: an uncached twin fed the same stream and issued the
        same draws finishes byte-identical (samples, DiskStats,
        clock)."""
        def build(seed=3):
            return make_geometric_file(capacity=512, buffer_capacity=64,
                                       record_size=40, seed=seed)

        planner_gf, twin = build(), build()
        draws = []
        inner = planner_gf.snapshot_batch

        def recording(k=None, **kwargs):
            draws.append(k)
            return inner(k, **kwargs)

        planner_gf.snapshot_batch = recording
        planner = QueryPlanner(planner_gf, error=0.05, budget=128, seed=3)
        rng = np.random.default_rng(3)
        for start in range(0, 3000, 1000):
            batch = records_with_values(
                rng.uniform(0.0, 1000.0, size=1000), start)
            planner_gf.offer_batch(batch)
            twin.offer_batch(batch)
        planner.avg()                                    # cache hit
        planner.count(where=("value", 995.0, 1000.0))    # escalation
        planner.sum(where=("value", 990.0, 1000.0))      # escalation
        del planner_gf.snapshot_batch
        assert len(draws) >= 2
        for k in draws:
            twin.snapshot_batch(k)
        batch_a, seen_a = planner_gf.snapshot_batch(None)
        batch_b, seen_b = twin.snapshot_batch(None)
        assert seen_a == seen_b
        assert batch_a.array.tobytes() == batch_b.array.tobytes()
        stats_a, stats_b = planner_gf.stats(), twin.stats()
        assert stats_a.clock == stats_b.clock
        assert stats_a.io == stats_b.io

    def test_enable_is_idempotent(self):
        gf = make_geometric_file(capacity=256, buffer_capacity=32,
                                 record_size=40)
        first = gf.enable_aqp_cache(budget=64)
        assert gf.enable_aqp_cache(budget=128) is first
        assert gf.aqp_cache is first


# -- the other front-ends -----------------------------------------------------


class TestPlannerFrontEnds:
    def test_multi_file(self):
        mf = make_multi_file(capacity=640, buffer_capacity=64,
                             record_size=40)
        planner = QueryPlanner(mf, error=0.05, budget=1024)
        rng = np.random.default_rng(0)
        mf.offer_batch(records_with_values(
            rng.uniform(0.0, 1000.0, size=3000)))
        assert planner.avg().tier == "cache"
        assert planner.count(where=("value", 995.0, 1000.0)).tier == "disk"

    def test_managed_sample(self, tmp_path):
        cfg = GeometricFileConfig(capacity=400, buffer_capacity=40,
                                  record_size=40, retain_records=True,
                                  beta_records=4)
        blocks = GeometricFile.required_blocks(cfg, TEST_BLOCK)
        ms = ManagedSample(
            tmp_path / "s.json",
            lambda: SimulatedBlockDevice(blocks, small_disk_params()),
            cfg, checkpoint_every=1000)
        planner = QueryPlanner(ms, error=0.05, budget=1024)
        rng = np.random.default_rng(1)
        ms.offer_batch(records_with_values(
            rng.uniform(0.0, 1000.0, size=2000)))
        answer = planner.avg()
        assert answer.tier == "cache" and answer.target_met
        ms.close()

    def test_sharded_service_cache_rides_the_union_stream(self, tmp_path):
        config = GeometricFileConfig(capacity=500, buffer_capacity=50,
                                     record_size=40, retain_records=True,
                                     admission="uniform")
        engine = ShardedReservoir(tmp_path / "svc", config, shards=4,
                                  pool="inline", partition="round-robin",
                                  seed=0)
        try:
            planner = QueryPlanner(engine, error=0.05, budget=1024)
            rng = np.random.default_rng(2)
            for start in range(0, 4000, 1000):
                engine.offer_batch(records_with_values(
                    rng.uniform(0.0, 1000.0, size=1000), start))
            assert planner.cache.seen == 4000
            assert planner.cache.coherent
            assert planner.avg().tier == "cache"
            selective = planner.count(where=("value", 995.0, 1000.0))
            assert selective.tier == "disk"
            # Escalation draws are capped at one shard's capacity (the
            # largest always-answerable merged draw).
            assert selective.k_drawn <= config.capacity
        finally:
            engine.close()

    def test_serve_client_cache_hits_skip_the_transport(self, tmp_path):
        config = GeometricFileConfig(capacity=500, buffer_capacity=50,
                                     record_size=40, retain_records=True,
                                     admission="uniform")
        engine = ShardedReservoir(tmp_path / "svc", config, shards=4,
                                  pool="inline", partition="round-robin",
                                  seed=0)
        server = ReservoirServer(engine)
        client = ServeClient.in_process(server)
        try:
            planner = QueryPlanner(client, error=0.05, budget=1024)
            rng = np.random.default_rng(4)
            for start in range(0, 4000, 1000):
                client.offer_batch(records_with_values(
                    rng.uniform(0.0, 1000.0, size=1000), start))

            calls = []
            inner = client._call

            def counting(op, args=None):
                calls.append(op)
                return inner(op, args)

            client._call = counting
            answer = planner.avg()
            assert answer.tier == "cache" and calls == [], (
                "a cache hit paid a transport round-trip")
            selective = planner.count(where=("value", 995.0, 1000.0))
            assert selective.tier == "disk" and "snapshot" in calls
            del client._call
        finally:
            client.close()
            engine.close()

    def test_serve_client_estimate_shims_preserved(self, tmp_path):
        config = GeometricFileConfig(capacity=500, buffer_capacity=50,
                                     record_size=40, retain_records=True,
                                     admission="uniform")
        engine = ShardedReservoir(tmp_path / "svc", config, shards=2,
                                  pool="inline", seed=0)
        server = ReservoirServer(engine)
        client = ServeClient.in_process(server)
        try:
            client.offer_batch(keyed(1000))
            est = client.estimate_sum(100)
            assert est.value > 0
            assert client.estimate_count(
                100, lambda r: r.value < 500).value > 0
            assert client.estimate_avg(100).value > 0
        finally:
            client.close()
            engine.close()
