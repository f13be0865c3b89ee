"""Tests for geometric-file checkpoint / recovery."""

import io
import math
import os
import tempfile
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    TEST_BLOCK,
    damage_newest_generation,
    make_geometric_file,
    make_multi_file,
    small_disk_params,
)
from repro.core.biased_file import (
    BiasedGeometricFile,
    BiasedMultipleGeometricFiles,
)
from repro.core.checkpoint import (
    CheckpointLog,
    load_geometric_file,
    save_geometric_file,
)
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.core.multi import MultiFileConfig
from repro.storage.device import SimulatedBlockDevice
from repro.storage.records import Record


def feed(gf, n, start=0):
    for i in range(start, start + n):
        gf.offer(Record(key=i, value=float(i), timestamp=float(i)))


def round_trip(gf, weight_fn=None):
    sink = io.StringIO()
    save_geometric_file(gf, sink)
    sink.seek(0)
    device = SimulatedBlockDevice(gf.device.n_blocks, small_disk_params())
    return load_geometric_file(sink, device, weight_fn=weight_fn)


class TestRoundTrip:
    def test_state_survives(self):
        gf = make_geometric_file(capacity=500, buffer_capacity=50)
        feed(gf, 2345)
        restored = round_trip(gf)
        assert restored.stats().seen == gf.stats().seen
        assert restored.stats().samples_added == gf.stats().samples_added
        assert restored.flushes == gf.flushes
        assert restored.disk_size == gf.disk_size
        assert restored.buffer.count == gf.buffer.count
        restored.check_invariants()

    def test_sample_contents_survive(self):
        gf = make_geometric_file(capacity=500, buffer_capacity=50)
        feed(gf, 2000)
        restored = round_trip(gf)
        original_keys = sorted(r.key for ledger in gf.subsamples
                               for r in ledger.records)
        restored_keys = sorted(r.key for ledger in restored.subsamples
                               for r in ledger.records)
        assert original_keys == restored_keys

    def test_continuation_is_bit_identical(self):
        """The restored file must make the same future decisions."""
        gf = make_geometric_file(capacity=400, buffer_capacity=40)
        feed(gf, 1234)
        restored = round_trip(gf)
        feed(gf, 1000, start=1234)
        feed(restored, 1000, start=1234)
        keys_a = sorted(r.key for r in gf.sample())
        keys_b = sorted(r.key for r in restored.sample())
        assert keys_a == keys_b
        assert gf.flushes == restored.flushes
        gf.check_invariants()
        restored.check_invariants()

    def test_mid_startup_checkpoint(self):
        gf = make_geometric_file(capacity=1000, buffer_capacity=50)
        feed(gf, 321)
        restored = round_trip(gf)
        assert restored.in_startup
        feed(restored, 2000, start=321)
        restored.check_invariants()
        assert restored.disk_size == 1000

    def test_count_only_checkpoint(self):
        gf = make_geometric_file(capacity=500, buffer_capacity=50,
                                 retain_records=False, admission="always")
        gf.ingest(1777)
        restored = round_trip(gf)
        assert restored.disk_size == gf.disk_size
        assert restored.buffer.count == gf.buffer.count
        restored.ingest(1000)
        restored.check_invariants()

    def test_payloads_survive(self):
        gf = make_geometric_file(capacity=100, buffer_capacity=10)
        for i in range(100):
            gf.offer(Record(key=i, payload=f"p{i}".encode()))
        restored = round_trip(gf)
        payloads = {r.key: r.payload for ledger in restored.subsamples
                    for r in ledger.records}
        assert payloads[42] == b"p42"


class TestBiasedRoundTrip:
    @staticmethod
    def weight_fn(record):
        return math.exp(record.timestamp / 500.0)

    def make_biased(self):
        config = GeometricFileConfig(
            capacity=300, buffer_capacity=30, record_size=40,
            retain_records=True, beta_records=4,
        )
        blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
        device = SimulatedBlockDevice(blocks, small_disk_params())
        return BiasedGeometricFile(device, config, self.weight_fn, seed=0)

    def test_biased_state_survives(self):
        bf = self.make_biased()
        feed(bf, 1500)
        sink = io.StringIO()
        save_geometric_file(bf, sink)
        sink.seek(0)
        device = SimulatedBlockDevice(bf.device.n_blocks,
                                      small_disk_params())
        restored = load_geometric_file(sink, device,
                                       weight_fn=self.weight_fn)
        assert isinstance(restored, BiasedGeometricFile)
        assert restored.total_weight == pytest.approx(bf.total_weight)
        assert restored.multipliers == bf.multipliers
        original = sorted((r.key, w) for r, w in bf.items())
        recovered = sorted((r.key, w) for r, w in restored.items())
        assert original == recovered
        restored.check_invariants()

    def test_biased_restore_requires_weight_fn(self):
        bf = self.make_biased()
        feed(bf, 500)
        sink = io.StringIO()
        save_geometric_file(bf, sink)
        sink.seek(0)
        device = SimulatedBlockDevice(bf.device.n_blocks,
                                      small_disk_params())
        with pytest.raises(ValueError):
            load_geometric_file(sink, device)


def reframe(text: str, edit) -> str:
    """Apply ``edit`` to a one-generation image's lines and rewrite
    its trailer, so the frame stays intact (CRC and length valid)."""
    lines = text.splitlines(keepends=True)[:-1]
    body = "".join(edit(lines)).encode("ascii")
    return body.decode("ascii") + "END %d %08x\n" % (len(body),
                                                      zlib.crc32(body))


class TestValidation:
    def test_unknown_version_rejected(self):
        gf = make_geometric_file(capacity=300, buffer_capacity=30)
        feed(gf, 100)
        sink = io.StringIO()
        save_geometric_file(gf, sink)
        text = reframe(sink.getvalue(),
                       lambda lines: ["GEN 99 base\n"] + lines[1:])
        device = SimulatedBlockDevice(gf.device.n_blocks,
                                      small_disk_params())
        with pytest.raises(ValueError, match="version"):
            load_geometric_file(io.StringIO(text), device)

    def test_unknown_kind_rejected(self):
        gf = make_geometric_file(capacity=300, buffer_capacity=30)
        feed(gf, 100)
        sink = io.StringIO()
        save_geometric_file(gf, sink)
        text = reframe(sink.getvalue(), lambda lines: [
            line.replace('"GeometricFile"', '"Mystery"') for line in lines])
        device = SimulatedBlockDevice(gf.device.n_blocks,
                                      small_disk_params())
        with pytest.raises(ValueError, match="kind"):
            load_geometric_file(io.StringIO(text), device)

    def test_image_without_an_intact_generation_rejected(self):
        gf = make_geometric_file(capacity=300, buffer_capacity=30)
        feed(gf, 100)
        sink = io.StringIO()
        save_geometric_file(gf, sink)
        device = SimulatedBlockDevice(gf.device.n_blocks,
                                      small_disk_params())
        with pytest.raises(ValueError, match="no intact generation"):
            load_geometric_file(io.StringIO(sink.getvalue()[:-5]), device)


class TestMultiFileRoundTrip:
    def make_multi(self):
        import conftest
        return conftest.make_multi_file(capacity=600, buffer_capacity=60,
                                        alpha_prime=0.6)

    def test_multi_state_survives_and_continues_identically(self):
        import io as _io

        from repro.core.multi import MultipleGeometricFiles
        from repro.storage.device import SimulatedBlockDevice
        from conftest import small_disk_params

        mf = self.make_multi()
        feed(mf, 2500)
        sink = _io.StringIO()
        save_geometric_file(mf, sink)
        sink.seek(0)
        device = SimulatedBlockDevice(mf.device.n_blocks,
                                      small_disk_params())
        restored = load_geometric_file(sink, device)
        assert isinstance(restored, MultipleGeometricFiles)
        assert restored.n_files == mf.n_files
        assert restored.disk_size == mf.disk_size
        feed(mf, 1500, start=2500)
        feed(restored, 1500, start=2500)
        keys_a = sorted(r.key for r in mf.sample())
        keys_b = sorted(r.key for r in restored.sample())
        assert keys_a == keys_b
        mf.check_invariants()
        restored.check_invariants()

    def test_multi_dummy_slots_restored(self):
        import io as _io

        from repro.storage.device import SimulatedBlockDevice
        from conftest import small_disk_params

        mf = self.make_multi()
        feed(mf, 1800)
        sink = _io.StringIO()
        save_geometric_file(mf, sink)
        sink.seek(0)
        device = SimulatedBlockDevice(mf.device.n_blocks,
                                      small_disk_params())
        restored = load_geometric_file(sink, device)
        for original, recovered in zip(mf.files, restored.files):
            assert original.dummy_slots == recovered.dummy_slots


class TestBiasedMultiRoundTrip:
    @staticmethod
    def weight_fn(record):
        return 1.0 + record.timestamp / 1000.0

    def test_biased_multi_survives_and_continues(self):
        import io as _io

        from repro.core.biased_file import BiasedMultipleGeometricFiles
        from repro.core.multi import MultiFileConfig
        from conftest import small_disk_params

        config = MultiFileConfig(capacity=400, buffer_capacity=40,
                                 record_size=40, retain_records=True,
                                 beta_records=4, alpha_prime=0.6)
        blocks = BiasedMultipleGeometricFiles.required_blocks(config,
                                                              TEST_BLOCK)
        device = SimulatedBlockDevice(blocks, small_disk_params())
        bf = BiasedMultipleGeometricFiles(device, config, self.weight_fn,
                                          seed=0)
        feed(bf, 1800)
        sink = _io.StringIO()
        save_geometric_file(bf, sink)
        sink.seek(0)
        device2 = SimulatedBlockDevice(blocks, small_disk_params())
        restored = load_geometric_file(sink, device2,
                                       weight_fn=self.weight_fn)
        assert isinstance(restored, BiasedMultipleGeometricFiles)
        assert restored.total_weight == pytest.approx(bf.total_weight)
        feed(bf, 600, start=1800)
        feed(restored, 600, start=1800)
        assert (sorted((r.key, w) for r, w in bf.items())
                == sorted((r.key, w) for r, w in restored.items()))
        restored.check_invariants()


# -- the generation log --------------------------------------------------------

LOG_KINDS = ("geometric", "count-only", "biased", "multi", "biased-multi")


def log_weight(record):
    return 1.0 + record.timestamp / 1000.0


def make_kind(kind, seed):
    """A small structure of one checkpointable kind, on a simulated disk."""
    sizing = dict(capacity=600, buffer_capacity=60, record_size=40,
                  beta_records=4)
    if kind == "geometric":
        return make_geometric_file(seed=seed, **sizing)
    if kind == "count-only":
        return make_geometric_file(seed=seed, retain_records=False,
                                   admission="always", **sizing)
    if kind == "multi":
        return make_multi_file(seed=seed, alpha_prime=0.6, **sizing)
    if kind == "biased":
        config = GeometricFileConfig(retain_records=True, **sizing)
        blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
        return BiasedGeometricFile(
            SimulatedBlockDevice(blocks, small_disk_params()), config,
            log_weight, seed=seed)
    config = MultiFileConfig(retain_records=True, alpha_prime=0.6, **sizing)
    blocks = BiasedMultipleGeometricFiles.required_blocks(config, TEST_BLOCK)
    return BiasedMultipleGeometricFiles(
        SimulatedBlockDevice(blocks, small_disk_params()), config,
        log_weight, seed=seed)


def feed_kind(gf, n, start):
    if gf.config.retain_records:
        gf.offer_many([Record(key=i, value=float(i), timestamp=float(i))
                       for i in range(start, start + n)])
    else:
        gf.ingest(n)


def fresh_device(gf):
    return SimulatedBlockDevice(gf.device.n_blocks, small_disk_params())


def fingerprint(gf):
    """Everything a restore must reproduce, compared exactly."""
    stats = gf.stats()
    buffer = gf.buffer
    return (
        stats.seen, stats.samples_added, gf.flushes, stats.clock,
        gf.device.stats(),
        [(ledger.ident, ledger.live, ledger.tail_size,
          ledger.stack_balance, ledger.segment_sizes, ledger.slots,
          None if ledger.records is None else list(ledger.records),
          ledger.weights,
          None if ledger.aux is None else ledger.aux.tolist())
         for ledger in gf.iter_ledgers()],
        list(buffer) if buffer.retains_records else buffer.count,
        buffer.weights() if buffer._weights is not None else None,
        gf._rng.getstate(), gf._np_rng.bit_generator.state,
        getattr(gf, "multipliers", None),
    )


class TestGenerationLog:
    @given(kind=st.sampled_from(LOG_KINDS),
           chunks=st.lists(st.integers(1, 500), min_size=1, max_size=6),
           seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_base_plus_deltas_matches_full_image(self, kind, chunks, seed):
        """Restoring a log of generations appended at arbitrary points
        equals restoring one full image of the same state -- and both
        continue exactly like the original: samples, DiskStats, clock,
        RNG streams."""
        gf = make_kind(kind, seed)
        position = 0
        with tempfile.TemporaryDirectory() as directory:
            log = CheckpointLog(os.path.join(directory, "checkpoint.log"))
            for n in chunks:
                feed_kind(gf, n, position)
                position += n
                log.append(gf)
            from_log, _ = CheckpointLog.open(log.path, fresh_device(gf),
                                             weight_fn=log_weight)
        image = io.StringIO()
        save_geometric_file(gf, image)
        image.seek(0)
        from_image = load_geometric_file(image, fresh_device(gf),
                                         weight_fn=log_weight)
        assert fingerprint(from_log) == fingerprint(gf)
        assert fingerprint(from_image) == fingerprint(gf)
        for copy in (gf, from_log, from_image):
            feed_kind(copy, 300, position)
        assert fingerprint(from_log) == fingerprint(gf)
        assert fingerprint(from_image) == fingerprint(gf)
        from_log.check_invariants()

    def test_delta_writes_only_what_changed(self, tmp_path):
        """Without a flush in between, a delta carries the state and the
        buffer run only; each flush adds exactly one subsample run."""
        gf = make_geometric_file(capacity=600, buffer_capacity=60,
                                 beta_records=4, admission="always")
        feed(gf, 1000)
        log = CheckpointLog(tmp_path / "checkpoint.log")
        assert log.append(gf)[1] == "base"
        feed(gf, 10, start=1000)
        written, generation = log.append(gf)
        frame = (tmp_path / "checkpoint.log").read_bytes()[-written:]
        assert generation == "delta"
        assert frame.count(b"\nRUN ") == 1  # the buffer
        key, target = 1010, gf.flushes + 2
        while gf.flushes < target:
            feed(gf, 1, start=key)
            key += 1
        written, _ = log.append(gf)
        frame = (tmp_path / "checkpoint.log").read_bytes()[-written:]
        assert frame.count(b"\nRUN ") == 3  # two subsamples, the buffer

    def test_delta_bytes_do_not_grow_with_capacity(self, tmp_path):
        """Generations two flushes apart append the same bytes at 10x
        the capacity -- two subsample runs and the small state -- while
        a full image grows with the reservoir."""
        deltas, bases = [], []
        for capacity in (5_000, 50_000):
            gf = make_geometric_file(capacity=capacity, buffer_capacity=500,
                                     record_size=400, beta_records=4,
                                     admission="always")
            keys = iter(range(10**9))
            gf.offer_many([Record(key=next(keys)) for _ in range(capacity)])
            log = CheckpointLog(tmp_path / f"{capacity}.log")
            bases.append(log.append(gf)[0])
            for _ in range(3):
                target = gf.flushes + 2
                while gf.flushes < target:
                    gf.offer(Record(key=next(keys)))
                written, generation = log.append(gf)
                assert generation == "delta"
            deltas.append(written)
        assert bases[1] > 8 * bases[0]
        # Within 10%: the 10x file evicts ~45 fewer rows from the
        # older of the two new runs before the checkpoint, and holds
        # more ledgers whose small entries change.
        assert deltas[1] <= 1.1 * deltas[0]

    def test_compaction_bounds_the_log(self, tmp_path):
        gf = make_geometric_file(capacity=600, buffer_capacity=60,
                                 beta_records=4)
        log = CheckpointLog(tmp_path / "checkpoint.log")
        generations = []
        for step in range(60):
            feed(gf, 50, start=50 * step)
            limit = 2 * log.live_bytes
            written, generation = log.append(gf)
            generations.append(generation)
            assert log.size == os.path.getsize(log.path)
            if generation == "delta":
                assert log.size - written <= limit
        assert generations[0] == "base"
        assert "base" in generations[1:]
        assert "delta" in generations
        restored, _ = CheckpointLog.open(log.path, fresh_device(gf))
        assert fingerprint(restored) == fingerprint(gf)
        assert not [name for name in os.listdir(tmp_path)
                    if name.startswith(".checkpoint-")]

    @pytest.mark.parametrize("how", ["truncate", "flip"])
    def test_damaged_newest_generation_falls_back_one(self, tmp_path, how):
        gf = make_geometric_file(capacity=600, buffer_capacity=60,
                                 beta_records=4)
        log = CheckpointLog(tmp_path / "checkpoint.log")
        feed(gf, 900)
        log.append(gf, {"seq": 1})
        feed(gf, 90, start=900)
        log.append(gf, {"seq": 2})
        before = fingerprint(gf)
        feed(gf, 90, start=990)
        assert log.append(gf, {"seq": 3})[1] == "delta"
        damage_newest_generation(log.path, how)
        restored, reopened = CheckpointLog.open(log.path, fresh_device(gf))
        assert restored.checkpoint_meta == {"seq": 2}
        assert fingerprint(restored) == before
        # The next append truncates the damaged tail.
        reopened.append(restored, {"seq": 4})
        again, _ = CheckpointLog.open(log.path, fresh_device(gf))
        assert again.checkpoint_meta == {"seq": 4}
        assert fingerprint(again) == fingerprint(restored)
