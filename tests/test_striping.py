"""Tests for the multi-spindle striped device."""

import pytest

from repro.storage import DiskParameters, StripedBlockDevice
from repro.storage.device import BlockDevice, read_discard, write_zeros


def make(n_disks=5, n_blocks=10_000, stripe=1):
    return StripedBlockDevice(n_blocks, n_disks,
                              DiskParameters(block_size=1024),
                              stripe_blocks=stripe)


class TestBasics:
    def test_satisfies_protocol(self):
        assert isinstance(make(), BlockDevice)

    def test_validation(self):
        with pytest.raises(ValueError):
            StripedBlockDevice(0)
        with pytest.raises(ValueError):
            StripedBlockDevice(10, n_disks=0)
        with pytest.raises(ValueError):
            StripedBlockDevice(10, stripe_blocks=0)

    def test_range_checks(self):
        dev = make(n_blocks=10)
        with pytest.raises(ValueError):
            dev.read_blocks(9, 2)

    def test_reads_return_zeros(self):
        dev = make()
        assert dev.read_blocks(0, 2) == b"\x00" * 2048

    def test_round_robin_placement(self):
        dev = make(n_disks=3)
        for block in range(6):
            dev.write_blocks(block, b"\x00" * 1024)
        # blocks 0..5 land on disks 0,1,2,0,1,2
        for disk in dev.disks:
            assert disk.stats.blocks_written == 2


class TestParallelism:
    def test_sequential_transfer_speeds_up_m_times(self):
        single = make(n_disks=1, n_blocks=20_000)
        five = make(n_disks=5, n_blocks=20_000)
        write_zeros(single, 0, 20_000)
        write_zeros(five, 0, 20_000)
        # Idealised array: the volume clock is the busiest spindle.
        # One fixed seek per spindle blurs the exact 5x at this size.
        assert five.clock == pytest.approx(single.clock / 5, rel=0.12)

    def test_random_access_does_not_speed_up(self):
        """A single random block access still pays one full seek."""
        dev = make(n_disks=5)
        dev.read_blocks(4321, 1)
        assert dev.clock >= 0.010

    def test_combined_stats_sum_spindles(self):
        dev = make(n_disks=4)
        write_zeros(dev, 0, 4000)
        read_discard(dev, 0, 4000)
        stats = dev.stats()
        assert stats.blocks_written == 4000
        assert stats.blocks_read == 4000

    def test_intra_spindle_contiguity(self):
        """Alternating stripes on one spindle stay sequential there."""
        dev = make(n_disks=2, n_blocks=1000)
        write_zeros(dev, 0, 1000)  # one big sequential volume write
        for disk in dev.disks:
            assert disk.stats.seeks == 1  # never re-seeks mid-stream


class TestPaperArithmetic:
    def test_250_records_per_second_on_five_spindles(self):
        """Introduction: a terabyte on 5 disks gives ~500 head
        movements/second, so the virtual-memory approach samples only
        ~250 records/second (2 random I/Os each)."""
        dev = make(n_disks=5, n_blocks=100_000)
        import random
        rng = random.Random(0)
        n_records = 2000
        for _ in range(n_records):
            block = rng.randrange(100_000)
            dev.read_blocks(block, 1)     # read the victim block
            dev.write_blocks(block, b"\x00" * 1024)  # write it back
        rate = n_records / dev.clock
        assert rate == pytest.approx(250, rel=0.15)
