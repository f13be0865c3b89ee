"""Unit tests for the Algorithm 2 sample buffer."""

import collections
import random

import pytest

from repro.core.buffer import SampleBuffer
from repro.storage.records import MIN_RECORD_SIZE, Record, RecordSchema

#: Header-only record layout for bare buffers.
HEADER = RecordSchema(MIN_RECORD_SIZE)


def records(n):
    return [Record(key=i) for i in range(n)]


class TestAppend:
    def test_append_fills_in_order(self):
        buf = SampleBuffer(5, random.Random(0), schema=HEADER)
        for r in records(3):
            buf.append(r)
        assert buf.count == 3 and not buf.is_full
        assert [r.key for r in buf] == [0, 1, 2]

    def test_append_beyond_capacity_rejected(self):
        buf = SampleBuffer(2, random.Random(0), schema=HEADER)
        buf.append(Record(key=0))
        buf.append(Record(key=1))
        with pytest.raises(ValueError):
            buf.append(Record(key=2))

    def test_append_requires_record_in_retaining_mode(self):
        buf = SampleBuffer(2, random.Random(0), schema=HEADER)
        with pytest.raises(ValueError):
            buf.append(None)

    def test_append_count_in_count_only_mode(self):
        buf = SampleBuffer(10, random.Random(0), retain_records=False)
        buf.append_count(7)
        assert buf.count == 7
        with pytest.raises(ValueError):
            buf.append_count(4)  # would overfill

    def test_append_count_rejected_in_retaining_mode(self):
        buf = SampleBuffer(10, random.Random(0), schema=HEADER)
        with pytest.raises(TypeError):
            buf.append_count(3)

    def test_iteration_rejected_in_count_only_mode(self):
        buf = SampleBuffer(10, random.Random(0), retain_records=False)
        with pytest.raises(TypeError):
            list(buf)


class TestAddAdmitted:
    def test_first_admission_always_joins(self):
        buf = SampleBuffer(5, random.Random(0), schema=HEADER)
        assert buf.add_admitted(Record(key=0), reservoir_size=100) is True
        assert buf.count == 1

    def test_replacement_probability_is_count_over_n(self):
        """Monte Carlo check of Algorithm 2's count(B)/|R| branch."""
        joins = 0
        trials = 4000
        for t in range(trials):
            buf = SampleBuffer(100, random.Random(t), schema=HEADER)
            for r in records(50):
                buf.append(r)
            if buf.add_admitted(Record(key=999), reservoir_size=100):
                joins += 1
        # P(join) = 1 - 50/100 = 0.5.
        assert joins / trials == pytest.approx(0.5, abs=0.04)

    def test_replacement_does_not_change_count(self):
        buf = SampleBuffer(10, random.Random(1), schema=HEADER)
        for r in records(9):
            buf.append(r)
        # reservoir_size == count makes replacement certain.
        joined = buf.add_admitted(Record(key=99), reservoir_size=9)
        assert joined is False
        assert buf.count == 9
        assert 99 in {r.key for r in buf}

    def test_full_buffer_rejected(self):
        buf = SampleBuffer(2, random.Random(0), schema=HEADER)
        buf.append(Record(key=0))
        buf.append(Record(key=1))
        with pytest.raises(ValueError):
            buf.add_admitted(Record(key=2), reservoir_size=100)

    def test_replacement_slot_uniform(self):
        counts = collections.Counter()
        for t in range(3000):
            buf = SampleBuffer(4, random.Random(t), schema=HEADER)
            for r in records(3):
                buf.append(r)
            buf.add_admitted(Record(key=99), reservoir_size=3)  # certain
            for index, record in enumerate(buf):
                if record.key == 99:
                    counts[index] += 1
        for slot in range(3):
            assert counts[slot] == pytest.approx(1000, abs=150)


class TestDrain:
    def test_drain_returns_everything_and_resets(self):
        buf = SampleBuffer(5, random.Random(0), schema=HEADER)
        for r in records(5):
            buf.append(r)
        out, weights, count = buf.drain()
        assert count == 5
        assert sorted(r.key for r in out) == [0, 1, 2, 3, 4]
        assert weights is None
        assert buf.count == 0

    def test_drain_shuffles(self):
        """Over many drains, each record appears at each position."""
        position_of_zero = collections.Counter()
        for t in range(2000):
            buf = SampleBuffer(5, random.Random(t), schema=HEADER)
            for r in records(5):
                buf.append(r)
            out, _, _ = buf.drain()
            position_of_zero[[r.key for r in out].index(0)] += 1
        for pos in range(5):
            assert position_of_zero[pos] == pytest.approx(400, abs=100)

    def test_count_only_drain(self):
        buf = SampleBuffer(5, random.Random(0), retain_records=False)
        buf.append_count(5)
        out, weights, count = buf.drain()
        assert out is None and weights is None and count == 5


class TestWeights:
    def test_weighted_mode_keeps_pairs_aligned(self):
        buf = SampleBuffer(5, random.Random(3), schema=HEADER)
        for r in records(5):
            buf.append(r, weight=float(r.key) + 1.0)
        out, weights, _ = buf.drain()
        for record, weight in zip(out, weights):
            assert weight == pytest.approx(record.key + 1.0)

    def test_scale_weights(self):
        buf = SampleBuffer(3, random.Random(0), schema=HEADER)
        buf.append(Record(key=0), weight=2.0)
        buf.scale_weights(3.0)
        assert buf.weights() == [pytest.approx(6.0)]

    def test_scale_requires_weighted_mode(self):
        buf = SampleBuffer(3, random.Random(0), schema=HEADER)
        with pytest.raises(TypeError):
            buf.scale_weights(2.0)

    def test_scale_factor_must_be_positive(self):
        buf = SampleBuffer(3, random.Random(0), schema=HEADER)
        buf.append(Record(key=0), weight=1.0)
        with pytest.raises(ValueError):
            buf.scale_weights(0.0)

    def test_cannot_switch_to_weighted_mid_fill(self):
        buf = SampleBuffer(3, random.Random(0), schema=HEADER)
        buf.append(Record(key=0))
        with pytest.raises(ValueError):
            buf.append(Record(key=1), weight=1.0)

    def test_weighted_mode_requires_weight_every_time(self):
        buf = SampleBuffer(3, random.Random(0), schema=HEADER)
        buf.append(Record(key=0), weight=1.0)
        with pytest.raises(ValueError):
            buf.append(Record(key=1))

    def test_replacement_updates_weight(self):
        buf = SampleBuffer(4, random.Random(2), schema=HEADER)
        for r in records(3):
            buf.append(r, weight=1.0)
        buf.add_admitted(Record(key=99), reservoir_size=3, weight=7.0)
        out, weights, _ = buf.drain()
        by_key = {r.key: w for r, w in zip(out, weights)}
        assert by_key[99] == pytest.approx(7.0)

    def test_weights_survive_drain_reset(self):
        buf = SampleBuffer(2, random.Random(0), schema=HEADER)
        buf.append(Record(key=0), weight=1.0)
        buf.drain()
        buf.append(Record(key=1), weight=2.0)
        _, weights, _ = buf.drain()
        assert weights == [pytest.approx(2.0)]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SampleBuffer(0, random.Random(0), schema=HEADER)
