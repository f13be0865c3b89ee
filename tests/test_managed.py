"""Tests for the managed (auto-checkpointing) sample wrapper."""

import json
import os
import random

import pytest

from conftest import TEST_BLOCK, damage_newest_generation, small_disk_params
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.core.managed import ManagedSample
from repro.core.multi import MultiFileConfig, MultipleGeometricFiles
from repro.obs import MetricsRegistry, TraceSink
from repro.storage.device import SimulatedBlockDevice
from repro.storage.records import Record


def config(**kwargs):
    defaults = dict(capacity=400, buffer_capacity=40, record_size=40,
                    retain_records=True, beta_records=4)
    defaults.update(kwargs)
    return GeometricFileConfig(**defaults)


def factory_for(cfg, cls=GeometricFile):
    blocks = cls.required_blocks(cfg, TEST_BLOCK)
    return lambda: SimulatedBlockDevice(blocks, small_disk_params())


def feed(ms, n, start=0):
    for i in range(start, start + n):
        ms.offer(Record(key=i, value=float(i), timestamp=float(i)))


class TestLifecycle:
    def test_fresh_creation(self, tmp_path):
        cfg = config()
        ms = ManagedSample(tmp_path / "s.json", factory_for(cfg), cfg,
                           checkpoint_every=5)
        assert not ms.restored
        feed(ms, 1000)
        assert ms.disk_size == 400  # delegated observer

    def test_automatic_checkpoints_appear(self, tmp_path):
        cfg = config()
        path = tmp_path / "s.json"
        ms = ManagedSample(path, factory_for(cfg), cfg,
                           checkpoint_every=3)
        feed(ms, 1000)
        assert path.exists()
        assert ms.flushes_since_checkpoint < 3
        header, state = path.read_text().splitlines()[:2]
        assert header.startswith("GEN ")
        assert json.loads(state)["kind"] == "GeometricFile"

    def test_restart_resumes_identically(self, tmp_path):
        cfg = config()
        path = tmp_path / "s.json"
        ms = ManagedSample(path, factory_for(cfg), cfg,
                           checkpoint_every=1, seed=7)
        feed(ms, 1200)
        ms.checkpoint()
        resumed = ManagedSample(path, factory_for(cfg), cfg,
                                checkpoint_every=1)
        assert resumed.restored
        feed(ms, 600, start=1200)
        feed(resumed, 600, start=1200)
        keys_a = sorted(r.key for r in ms.sample())
        keys_b = sorted(r.key for r in resumed.sample())
        assert keys_a == keys_b

    def test_crash_loses_at_most_the_tail(self, tmp_path):
        cfg = config()
        path = tmp_path / "s.json"
        ms = ManagedSample(path, factory_for(cfg), cfg,
                           checkpoint_every=4)
        feed(ms, 900)  # a "crash" here: last checkpoint <= 4 flushes old
        resumed = ManagedSample(path, factory_for(cfg), cfg)
        lost = ms.stats().seen - resumed.stats().seen
        assert 0 <= lost <= 5 * cfg.buffer_capacity
        resumed.check_invariants()

    def test_manual_checkpoint_only(self, tmp_path):
        cfg = config()
        path = tmp_path / "s.json"
        ms = ManagedSample(path, factory_for(cfg), cfg,
                           checkpoint_every=0)
        feed(ms, 600)
        assert not path.exists()
        ms.checkpoint()
        assert path.exists()

    def test_count_only_ingest(self, tmp_path):
        cfg = config(retain_records=False, admission="always")
        path = tmp_path / "s.json"
        ms = ManagedSample(path, factory_for(cfg), cfg,
                           checkpoint_every=2)
        ms.ingest(2000)
        resumed = ManagedSample(path, factory_for(cfg), cfg)
        assert resumed.restored
        resumed.ingest(500)
        resumed.check_invariants()


class TestKinds:
    def test_multi_kind(self, tmp_path):
        cfg = MultiFileConfig(capacity=400, buffer_capacity=40,
                              record_size=40, retain_records=True,
                              beta_records=4, alpha_prime=0.6)
        blocks = MultipleGeometricFiles.required_blocks(cfg, TEST_BLOCK)
        factory = lambda: SimulatedBlockDevice(blocks,  # noqa: E731
                                               small_disk_params())
        path = tmp_path / "m.json"
        ms = ManagedSample(path, factory, cfg, kind="multi",
                           checkpoint_every=2)
        feed(ms, 1500)
        resumed = ManagedSample(path, factory, cfg, kind="multi")
        assert resumed.restored
        assert resumed.n_files == ms.n_files

    def test_biased_kind(self, tmp_path):
        cfg = config()
        weight_fn = lambda r: 1.0 + r.timestamp / 100.0  # noqa: E731
        path = tmp_path / "b.json"
        ms = ManagedSample(path, factory_for(cfg), cfg, kind="biased",
                           weight_fn=weight_fn, checkpoint_every=2)
        feed(ms, 1200)
        resumed = ManagedSample(path, factory_for(cfg), cfg,
                                kind="biased", weight_fn=weight_fn)
        assert resumed.restored
        # The restored totalWeight is the value at the last checkpoint,
        # which trails the live structure by at most a few flushes.
        assert 0 < resumed.total_weight <= ms.total_weight
        assert resumed.total_weight == pytest.approx(ms.total_weight,
                                                     rel=0.2)

    def test_biased_requires_weight_fn(self, tmp_path):
        cfg = config()
        with pytest.raises(ValueError):
            ManagedSample(tmp_path / "x.json", factory_for(cfg), cfg,
                          kind="biased")

    def test_unknown_kind(self, tmp_path):
        cfg = config()
        with pytest.raises(ValueError):
            ManagedSample(tmp_path / "x.json", factory_for(cfg), cfg,
                          kind="btree")

    def test_kind_config_mismatch(self, tmp_path):
        cfg = config()
        with pytest.raises(ValueError):
            ManagedSample(tmp_path / "x.json", factory_for(cfg), cfg,
                          kind="multi")

    def test_checkpoint_kind_mismatch_detected(self, tmp_path):
        cfg = config()
        path = tmp_path / "s.json"
        ms = ManagedSample(path, factory_for(cfg), cfg)
        feed(ms, 100)
        ms.checkpoint()
        mcfg = MultiFileConfig(capacity=400, buffer_capacity=40,
                               record_size=40, retain_records=True,
                               beta_records=4, alpha_prime=0.6)
        with pytest.raises(ValueError):
            ManagedSample(path, factory_for(cfg), mcfg, kind="multi")


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        cfg = config()
        ms = ManagedSample(tmp_path / "s.json", factory_for(cfg), cfg,
                           checkpoint_every=1)
        feed(ms, 800)
        leftovers = [p for p in os.listdir(tmp_path)
                     if p.startswith(".checkpoint-")]
        assert leftovers == []


class TestBiasedMultiKind:
    def test_biased_multi_lifecycle(self, tmp_path):
        from repro.core.biased_file import BiasedMultipleGeometricFiles

        cfg = MultiFileConfig(capacity=300, buffer_capacity=30,
                              record_size=40, retain_records=True,
                              beta_records=3, alpha_prime=0.6)
        blocks = BiasedMultipleGeometricFiles.required_blocks(
            cfg, TEST_BLOCK
        )
        factory = lambda: SimulatedBlockDevice(blocks,  # noqa: E731
                                               small_disk_params())
        weight_fn = lambda r: 1.0 + r.timestamp / 500.0  # noqa: E731
        path = tmp_path / "bm.json"
        ms = ManagedSample(path, factory, cfg, kind="biased-multi",
                           weight_fn=weight_fn, checkpoint_every=2)
        feed(ms, 1000)
        resumed = ManagedSample(path, factory, cfg, kind="biased-multi",
                                weight_fn=weight_fn)
        assert resumed.restored
        assert resumed.n_files == ms.n_files
        assert len(list(resumed.items())) == 300
        resumed.check_invariants()


class TestRestoreParity:
    """The checkpoint RNG round-trip is bit-exact (PR 3 satellite).

    A restored sample fed the identical continuation must be
    indistinguishable from the never-interrupted original: same numpy
    and stdlib RNG states after the same draws, and identical reservoir
    contents *in order* at the next flush boundary.  This is the
    property the sharded service's crash recovery stands on -- journal
    replay only reproduces the pre-crash reservoir if every random
    choice replays identically.
    """

    def test_restore_classmethod_requires_checkpoint(self, tmp_path):
        cfg = config()
        with pytest.raises(FileNotFoundError):
            ManagedSample.restore(tmp_path / "missing.json",
                                  factory_for(cfg))

    def test_config_none_requires_checkpoint(self, tmp_path):
        cfg = config()
        with pytest.raises(ValueError):
            ManagedSample(tmp_path / "missing.json", factory_for(cfg),
                          None)

    def test_checkpoint_meta_round_trips(self, tmp_path):
        cfg = config()
        path = tmp_path / "s.json"
        ms = ManagedSample(path, factory_for(cfg), cfg,
                           checkpoint_every=0, seed=3)
        feed(ms, 100)
        ms.checkpoint(meta={"seq": 17})
        restored = ManagedSample.restore(path, factory_for(cfg))
        assert restored.checkpoint_meta == {"seq": 17}

    def test_continuation_is_bit_exact(self, tmp_path):
        import random

        cfg = config()
        path = tmp_path / "s.json"
        live = ManagedSample(path, factory_for(cfg), cfg,
                             checkpoint_every=0, seed=11)
        feed(live, 700)
        live.checkpoint()
        restored = ManagedSample.restore(path, factory_for(cfg),
                                         checkpoint_every=0)
        # The restored RNGs start exactly where the live ones stand...
        assert (restored.structure._np_rng.bit_generator.state
                == live.structure._np_rng.bit_generator.state)
        assert restored.structure._rng.getstate() == live.structure._rng.getstate()
        # ...and stay in lockstep through several more flush boundaries
        # of the identical continuation.
        feed(live, 3 * cfg.buffer_capacity, start=700)
        feed(restored, 3 * cfg.buffer_capacity, start=700)
        assert (restored.structure._np_rng.bit_generator.state
                == live.structure._np_rng.bit_generator.state)
        assert restored.structure._rng.getstate() == live.structure._rng.getstate()
        stats_live, stats_restored = live.stats(), restored.stats()
        assert stats_restored.seen == stats_live.seen
        assert stats_restored.samples_added == stats_live.samples_added
        assert stats_restored.flushes == stats_live.flushes
        # Contents agree in order, not merely as sets: the query-time
        # materialisation below uses equal private RNGs so it cannot
        # perturb the comparison (or the structures' own streams).
        keys_live = [r.key for r in
                     live.sample(rng=random.Random(99))]
        keys_restored = [r.key for r in
                         restored.sample(rng=random.Random(99))]
        assert keys_live == keys_restored


class TestTornGenerations:
    """A torn or corrupted newest generation falls back one generation;
    re-offering from the restored position reproduces the
    uninterrupted twin exactly."""

    @pytest.mark.parametrize("how", ["truncate", "flip"])
    def test_recovery_matches_an_uninterrupted_twin(self, tmp_path, how):
        cfg = config()
        records = [Record(key=i, value=float(i), timestamp=float(i))
                   for i in range(3000)]
        chunk = 150
        trace = TraceSink()
        path = tmp_path / "s.log"
        ms = ManagedSample(path, factory_for(cfg), cfg,
                           checkpoint_every=0, seed=3)
        ms.instrument(MetricsRegistry(), trace)
        acknowledged = []
        for start in range(0, 1800, chunk):
            ms.offer_many(records[start:start + chunk])
            ms.checkpoint()
            acknowledged.append(ms.stats().seen)
        generations = [e.fields["generation"]
                       for e in trace.events("checkpoint")]
        assert generations[-1] == "delta"
        damage_newest_generation(path, how)
        recovered = ManagedSample(path, factory_for(cfg), cfg,
                                  checkpoint_every=0)
        assert recovered.stats().seen == acknowledged[-2]
        for start in range(acknowledged[-2], 3000, chunk):
            recovered.offer_many(records[start:start + chunk])
        twin = ManagedSample(tmp_path / "twin.log", factory_for(cfg), cfg,
                             checkpoint_every=0, seed=3)
        for start in range(0, 3000, chunk):
            twin.offer_many(records[start:start + chunk])

        def observed(sample):
            stats = sample.stats()
            keys = [r.key for r in sample.sample(rng=random.Random(5))]
            return stats.seen, stats.io, stats.clock, keys

        assert observed(recovered) == observed(twin)
        # The next generation truncates the damaged tail for good.
        recovered.checkpoint()
        reopened = ManagedSample(path, factory_for(cfg), cfg)
        assert observed(reopened) == observed(twin)


class TestDurability:
    def test_every_generation_is_fsynced(self, tmp_path, monkeypatch):
        cfg = config()
        synced = []
        real_fsync = os.fsync

        def counting_fsync(descriptor):
            synced.append(descriptor)
            real_fsync(descriptor)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        ms = ManagedSample(tmp_path / "s.log", factory_for(cfg), cfg,
                           checkpoint_every=0)
        trace = TraceSink()
        ms.instrument(MetricsRegistry(), trace)
        per_generation = []
        for start in range(0, 1200, 100):
            feed(ms, 100, start=start)
            before = len(synced)
            ms.checkpoint()
            per_generation.append(len(synced) - before)
        kinds = [e.fields["generation"] for e in trace.events("checkpoint")]
        assert kinds[0] == "base" and "delta" in kinds
        # A delta fsyncs the log; a base rewrite fsyncs the new file
        # and, after the rename, its directory.
        assert per_generation == [2 if kind == "base" else 1
                                  for kind in kinds]
