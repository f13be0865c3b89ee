"""Unit and statistical tests for the single geometric file."""

import collections
import math

import pytest

from conftest import (
    TEST_BLOCK,
    make_geometric_file,
    make_multi_file,
    small_disk_params,
)
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.storage.device import SimulatedBlockDevice
from repro.storage.records import Record


def feed(gf, n, start=0):
    for i in range(start, start + n):
        gf.offer(Record(key=i, value=float(i), timestamp=float(i)))


class TestConfigValidation:
    def test_buffer_must_be_smaller_than_capacity(self):
        with pytest.raises(ValueError):
            GeometricFileConfig(capacity=100, buffer_capacity=100)

    def test_buffer_minimum(self):
        with pytest.raises(ValueError):
            GeometricFileConfig(capacity=100, buffer_capacity=1)

    def test_bad_record_size(self):
        with pytest.raises(ValueError):
            GeometricFileConfig(capacity=100, buffer_capacity=10,
                                record_size=0)

    def test_bad_stack_multiplier(self):
        with pytest.raises(ValueError):
            GeometricFileConfig(capacity=100, buffer_capacity=10,
                                stack_multiplier=0)

    def test_beta_default_is_one_block(self):
        config = GeometricFileConfig(capacity=1000, buffer_capacity=100,
                                     record_size=50)
        assert config.resolve_beta(32 * 1024) == 655

    def test_stack_records_is_3_sqrt_b(self):
        config = GeometricFileConfig(capacity=10 ** 6,
                                     buffer_capacity=10 ** 4)
        assert config.stack_records() == math.ceil(3 * 100)


class TestConstruction:
    def test_alpha_follows_lemma_1(self):
        gf = make_geometric_file(capacity=10000, buffer_capacity=100)
        assert gf.alpha == pytest.approx(0.99)

    def test_ladder_total_is_buffer(self):
        gf = make_geometric_file()
        assert gf.ladder.total == gf.config.buffer_capacity

    def test_device_too_small_rejected(self):
        config = GeometricFileConfig(capacity=2000, buffer_capacity=100,
                                     record_size=40, beta_records=10)
        device = SimulatedBlockDevice(2, small_disk_params())
        with pytest.raises(ValueError):
            GeometricFile(device, config)

    def test_required_blocks_is_sufficient(self):
        config = GeometricFileConfig(capacity=5000, buffer_capacity=200,
                                     record_size=40)
        blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
        device = SimulatedBlockDevice(blocks, small_disk_params())
        GeometricFile(device, config)  # must not raise

    def test_disk_footprint_close_to_reservoir(self):
        """Section 5: a single geometric file stores ~|R| records."""
        config = GeometricFileConfig(capacity=100_000,
                                     buffer_capacity=1000, record_size=50,
                                     beta_records=80)
        blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
        data_bytes = blocks * TEST_BLOCK
        reservoir_bytes = 100_000 * 50
        # Slack slots, per-level block rounding and stacks cost a little,
        # but the footprint stays close to |R| (Lemma 1) and the
        # overhead shrinks further with scale.
        assert reservoir_bytes <= data_bytes < 1.3 * reservoir_bytes


class TestStartup:
    def test_startup_completes_at_capacity(self):
        gf = make_geometric_file(capacity=1000, buffer_capacity=50)
        feed(gf, 999)
        assert gf.in_startup
        feed(gf, 1, start=999)
        assert not gf.in_startup
        assert gf.disk_size == 1000

    def test_startup_holds_every_record(self):
        gf = make_geometric_file(capacity=1000, buffer_capacity=50)
        feed(gf, 600)
        sample = gf.sample()
        assert sorted(r.key for r in sample) == list(range(600))

    def test_first_flush_is_a_full_buffer(self):
        gf = make_geometric_file(capacity=1000, buffer_capacity=50)
        feed(gf, 50)
        assert gf.flushes == 1
        assert gf.subsamples[0].live == 50

    def test_startup_subsample_sizes_decay(self):
        gf = make_geometric_file(capacity=2000, buffer_capacity=100)
        feed(gf, 2000)
        sizes = [ledger.live for ledger in gf.subsamples]
        # Newest-first ordering: the oldest startup subsample is the
        # largest; rounding can wiggle neighbours by a record or two.
        assert sizes[-1] == max(sizes) == 100
        assert sizes[0] == min(sizes)
        assert sum(sizes) == 2000


class TestSteadyState:
    def test_disk_size_constant_after_fill(self):
        gf = make_geometric_file(capacity=1000, buffer_capacity=50)
        feed(gf, 5000)
        gf.check_invariants()
        assert gf.disk_size == 1000

    def test_sample_size_and_uniqueness(self):
        gf = make_geometric_file(capacity=1000, buffer_capacity=50)
        feed(gf, 5000)
        sample = gf.sample()
        keys = [r.key for r in sample]
        assert len(keys) == 1000
        assert len(set(keys)) == 1000
        assert all(0 <= k < 5000 for k in keys)

    def test_flush_cadence(self):
        gf = make_geometric_file(capacity=1000, buffer_capacity=50,
                                 admission="always")
        feed(gf, 1000)
        startup_flushes = gf.flushes
        feed(gf, 500, start=1000)
        # 500 admissions fill the 50-record buffer ~10 times; the
        # in-buffer replacement branch (probability count/N) absorbs a
        # few admissions, so allow one flush of slack.
        assert startup_flushes + 9 <= gf.flushes <= startup_flushes + 10

    def test_invariants_hold_throughout(self):
        gf = make_geometric_file(capacity=600, buffer_capacity=40)
        for i in range(4000):
            gf.offer(Record(key=i))
            if i % 400 == 0:
                gf.check_invariants()
        gf.check_invariants()

    def test_every_flush_writes_every_level(self):
        gf = make_geometric_file(capacity=2000, buffer_capacity=100,
                                 admission="always")
        feed(gf, 2000)
        writes_before = gf.device.model.stats.writes
        flushes_before = gf.flushes
        feed(gf, 500, start=2000)
        flushes = gf.flushes - flushes_before
        writes = gf.device.model.stats.writes - writes_before
        assert flushes >= 4
        # One write per ladder level per flush, plus stack traffic.
        assert writes >= flushes * gf.ladder.n_disk_segments

    def test_subsample_count_bounded(self):
        gf = make_geometric_file(capacity=1000, buffer_capacity=100)
        feed(gf, 20000)
        # Disk-holding subsamples <= ladder depth; plus decaying tails.
        disk_holding = sum(1 for s in gf.subsamples if s.segment_sizes)
        assert disk_holding <= gf.ladder.n_disk_segments + 1
        assert gf.n_subsamples < 200

    def test_newest_subsample_is_full_buffer(self):
        gf = make_geometric_file(capacity=1000, buffer_capacity=50,
                                 admission="always")
        feed(gf, 1200)  # well past the first steady flush
        assert gf.subsamples[0].live == 50


class TestUniformity:
    def test_inclusion_uniform_over_stream(self):
        """The headline guarantee: a true uniform sample at all times."""
        trials, capacity, stream = 300, 200, 1000
        counts = collections.Counter()
        for t in range(trials):
            gf = make_geometric_file(capacity=capacity, buffer_capacity=20,
                                     seed=5000 + t)
            feed(gf, stream)
            counts.update(r.key for r in gf.sample())
        expected = trials * capacity / stream
        sigma = math.sqrt(trials * (capacity / stream)
                          * (1 - capacity / stream))
        # Per-record count within 5 sigma, and no systematic position
        # bias between the oldest and newest stream deciles.
        for key in range(stream):
            assert abs(counts[key] - expected) < 5 * sigma, key
        first = sum(counts[k] for k in range(100)) / 100
        last = sum(counts[k] for k in range(900, 1000)) / 100
        assert abs(first - last) < 0.6 * sigma

    def test_chi_square(self):
        trials, capacity, stream = 200, 100, 500
        counts = collections.Counter()
        for t in range(trials):
            gf = make_geometric_file(capacity=capacity, buffer_capacity=20,
                                     seed=9000 + t)
            feed(gf, stream)
            counts.update(r.key for r in gf.sample())
        expected = trials * capacity / stream
        chi2 = sum((counts[k] - expected) ** 2 / expected
                   for k in range(stream))
        # 499 dof: mean 499, sd ~31.6; 600 is ~3 sigma plus margin.
        assert chi2 < 650


class TestIOBehaviour:
    def test_no_reads_of_data_in_steady_state(self):
        """Design goal (2): buffer flushes require no data reads."""
        gf = make_geometric_file(capacity=2000, buffer_capacity=100,
                                 admission="always")
        feed(gf, 2000)
        reads_before = gf.device.model.stats.blocks_read
        feed(gf, 1000, start=2000)
        reads = gf.device.model.stats.blocks_read - reads_before
        # Only stack retirements read; bounded by a few stack regions.
        assert reads <= 10 * gf._layout.stack_blocks + 10

    def test_seeks_scale_with_segments_not_buffer(self):
        gf = make_geometric_file(capacity=2000, buffer_capacity=100,
                                 admission="always")
        feed(gf, 2000)
        seeks_before = gf.device.model.stats.seeks
        flushes_before = gf.flushes
        feed(gf, 500, start=2000)
        flushes = gf.flushes - flushes_before
        seeks = (gf.device.model.stats.seeks - seeks_before) / flushes
        segments = gf.ladder.n_disk_segments
        # Paper: around four head movements per segment.
        assert segments <= seeks <= 6 * segments

    def test_count_only_matches_record_mode_io(self):
        """The fast path must charge the same I/O as the exact path."""
        gf_fast = make_geometric_file(capacity=1000, buffer_capacity=100,
                                      retain_records=False,
                                      admission="always", seed=7)
        gf_fast.ingest(5000)
        gf_slow = make_geometric_file(capacity=1000, buffer_capacity=100,
                                      retain_records=True,
                                      admission="always", seed=7)
        feed(gf_slow, 5000)
        fast = gf_fast.device.model.stats
        slow = gf_slow.device.model.stats
        # The count-only path folds in-buffer replacements into joins,
        # shifting the flush cadence by under B/(2N); per-flush I/O must
        # agree tightly.
        assert gf_fast.flushes == pytest.approx(gf_slow.flushes, abs=3)
        assert (fast.blocks_written / gf_fast.flushes
                == pytest.approx(slow.blocks_written / gf_slow.flushes,
                                 rel=0.05))
        assert (fast.seeks / gf_fast.flushes
                == pytest.approx(slow.seeks / gf_slow.flushes, rel=0.10))

    def test_stack_overflows_are_rare_with_3_sqrt_b(self):
        gf = make_geometric_file(capacity=5000, buffer_capacity=500,
                                 admission="always")
        feed(gf, 30000)
        assert gf.stack_overflows == 0


class TestModes:
    def test_count_only_sample_rejected(self):
        gf = make_geometric_file(retain_records=False)
        gf.ingest(100)
        with pytest.raises(TypeError):
            gf.sample()

    def test_uniform_admission_thins_the_stream(self):
        gf = make_geometric_file(capacity=1000, buffer_capacity=50,
                                 admission="uniform")
        feed(gf, 10000)
        # Expected admissions: 1000 + sum_{i>1000} 1000/i ~ 3302.
        expected = 1000 + sum(1000 / i for i in range(1001, 10001))
        assert gf.stats().samples_added == pytest.approx(expected, rel=0.1)

    def test_always_admission_takes_everything(self):
        gf = make_geometric_file(capacity=1000, buffer_capacity=50,
                                 admission="always")
        feed(gf, 3000)
        assert gf.stats().samples_added == 3000

    def test_mid_flush_sample_is_full_size(self):
        gf = make_geometric_file(capacity=1000, buffer_capacity=50,
                                 admission="always")
        feed(gf, 1025)  # half a buffer pending
        sample = gf.sample()
        assert len(sample) == 1000
        keys = {r.key for r in sample}
        assert len(keys) == 1000


class TestAlwaysAdmissionLaw:
    def test_inclusion_decays_geometrically_with_age(self):
        """In "always" mode (the paper's benchmark setting) a record
        that arrived a*N admissions ago survives with probability about
        (1 - 1/N)^(a*N) ~ exp(-a): the recency bias the paper notes."""
        import math

        capacity, stream = 200, 1000
        trials = 400
        survivors_by_age_band = [0, 0, 0]  # bands: <1N, 1-2N, 2-3N old
        for t in range(trials):
            gf = make_geometric_file(capacity=capacity, buffer_capacity=20,
                                     admission="always", seed=20_000 + t)
            feed(gf, stream)
            for record in gf.sample():
                age = (stream - 1 - record.key) / capacity
                if age < 1.0:
                    survivors_by_age_band[0] += 1
                elif age < 2.0:
                    survivors_by_age_band[1] += 1
                elif age < 3.0:
                    survivors_by_age_band[2] += 1
        # Expected count in band [a, a+1): trials * N * (e^-a - e^-(a+1))
        for band, observed in enumerate(survivors_by_age_band):
            expected = (trials * capacity
                        * (math.exp(-band) - math.exp(-(band + 1))))
            assert observed == pytest.approx(expected, rel=0.1), band


class TestStartupIO:
    def test_fill_phase_is_near_sequential(self):
        """Section 8: every option writes the first |R| records 'more
        or less directly to disk' -- one seek per start-up flush, not
        one per segment."""
        gf = make_geometric_file(capacity=2000, buffer_capacity=100,
                                 retain_records=False, admission="always")
        gf.ingest(2000)  # exactly the fill
        stats = gf.device.model.stats
        assert not gf.in_startup
        # One head movement per start-up flush (plus rounding slack),
        # far fewer than flushes * segments.
        assert stats.seeks <= gf.flushes + 2
        assert stats.blocks_read == 0


class TestSlotReclamation:
    """Dead subsamples must hand their slots back (regression).

    With one-record segments a subsample is often fully evicted while
    it still holds disk segments; before the fix those slots leaked
    out of the free lists and deep levels ran dry within ~100 records
    ("level L has no free slots").
    """

    def test_tiny_segments_survive_long_streams(self):
        gf = make_geometric_file(capacity=39, buffer_capacity=13,
                                 beta_records=1, admission="always",
                                 seed=4089)
        for i in range(3000):
            gf.offer(Record(key=i))
        gf.check_invariants()
        assert len(gf.sample()) == 39

    def test_slot_conservation_holds_throughout(self):
        gf = make_geometric_file(capacity=60, buffer_capacity=12,
                                 beta_records=1, admission="always",
                                 seed=7)
        for i in range(1500):
            gf.offer(Record(key=i))
            if i % 97 == 0:
                gf.check_invariants()  # includes per-level slot audit
        gf.check_invariants()

    def test_multi_file_tiny_segments_survive(self):
        mf = make_multi_file(capacity=60, buffer_capacity=12,
                             beta_records=1, admission="always",
                             alpha_prime=0.5, seed=11)
        for i in range(1500):
            mf.offer(Record(key=i))
        mf.check_invariants()
        assert len(mf.sample()) == 60
