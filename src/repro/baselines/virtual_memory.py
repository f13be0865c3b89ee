"""The virtual-memory extension (paper Section 3.2, first alternative).

"The most obvious adaptation for very large sample sizes is to simply
treat the reservoir as if it were stored in virtual memory.  The
problem ... is that every new sample that is added to the reservoir
will overwrite a random, existing record on disk, and so it will
require two random disk I/Os: one to read in the block where the record
will be written, and one to re-write it with the new sample."

The implementation below is exactly that: the reservoir is a flat array
of record slots; each admitted record picks a uniformly random slot and
performs a read-modify-write of the containing block through an LRU
buffer pool that gets *all* of the option's memory (the paper gives it
the full 600 MB / 150 MB).  Once the reservoir dwarfs the pool, nearly
every access misses, evicts a dirty page, and therefore pays two random
head movements -- the paper's back-of-the-envelope "250 records per
second" with a terabyte reservoir.
"""

from __future__ import annotations

import numpy as np

from ..storage.buffer_pool import LRUBufferPool
from ..storage.device import BlockDevice
from ..storage.recordbatch import RecordBatch
from ..storage.records import Record
from .base import BufferedDiskReservoir, DiskReservoirConfig


class VirtualMemoryReservoir(BufferedDiskReservoir):
    """Reservoir maintained by random in-place block updates.

    The :class:`~repro.baselines.base.BufferedDiskReservoir` machinery
    is reused only for the sequential fill phase; in steady state every
    admitted record goes straight to a random slot (there is no
    new-sample buffer -- ``config.buffer_capacity`` is ignored, matching
    the paper's allocation of all memory to the LRU pool).
    """

    name = "virtual mem"

    def __init__(self, device: BlockDevice, config: DiskReservoirConfig,
                 *, seed: int | None = 0) -> None:
        super().__init__(device, config, seed=seed)
        self.pool = LRUBufferPool(device, config.pool_blocks)
        # Steady state pays per record, not per flush: let the runner
        # shrink chunks to track the horizon precisely.
        self.chunk_floor = 1
        self._records: RecordBatch | None = None
        self._n_blocks_used = self.schema.blocks_for_records(
            config.capacity, device.block_size
        )
        if self._n_blocks_used > device.n_blocks:
            raise ValueError(
                f"device too small: reservoir needs {self._n_blocks_used} "
                f"blocks, device has {device.n_blocks}"
            )

    @classmethod
    def required_blocks(cls, config: DiskReservoirConfig,
                        block_size: int) -> int:
        """Device size needed: just the packed reservoir."""
        from ..storage.records import RecordSchema

        schema = RecordSchema(config.record_size)
        return schema.blocks_for_records(config.capacity, block_size)

    # -- fill ------------------------------------------------------------------

    def _finish_fill(self, records: RecordBatch | None) -> None:
        self._records = records

    # -- observability -------------------------------------------------------

    def _stats_extra(self) -> dict:
        pool = self.pool.stats
        return {
            "pool_blocks": self.pool.capacity,
            "pool_hits": pool.hits,
            "pool_misses": pool.misses,
            "pool_evictions": pool.evictions,
            "pool_hit_ratio": pool.hit_ratio,
        }

    # -- steady state -------------------------------------------------------------

    def _admit(self, record: Record | None) -> None:
        if self.in_fill_phase:
            self._fill_from([record])
            return
        self._overwrite_random_slot(record)

    def _admit_count(self, n: int) -> None:
        if self.in_fill_phase:
            take = min(n, self.capacity - self._filled)
            self._fill_appender.append(take)
            self._filled += take
            n -= take
            if not self.in_fill_phase:
                self._complete_fill()
        for _ in range(n):
            self._overwrite_random_slot(None)

    def _admit_many(self, records) -> None:
        # One vectorised slot draw for the whole steady-state suffix
        # and one batched LRU walk (the pool is the point of this
        # baseline); ``records`` is a record list or a RecordBatch.
        i = self._fill_from(records)
        n = len(records)
        if i >= n:
            return
        slots = self._np_rng.integers(0, self.capacity, size=n - i)
        records_per_block = self.schema.records_per_block(
            self.device.block_size
        )
        self.pool.get_many((slots // records_per_block).tolist(),
                           dirty=True)
        if self._records is not None:
            # A repeated slot keeps its last write, as a per-record
            # loop would.
            _, from_end = np.unique(slots[::-1], return_index=True)
            last = len(slots) - 1 - from_end
            self._records.array[slots[last]] = (
                self._rows(records[i:])[last])

    _admit_batch = _admit_many

    def _overwrite_random_slot(self, record: Record | None) -> None:
        slot = self._rng.randrange(self.capacity)
        block = slot // self.schema.records_per_block(self.device.block_size)
        # Read-modify-write through the pool: a miss reads the block and
        # may evict (write back) a dirty page; the new content stays
        # dirty in the pool until it is evicted in turn.
        self.pool.get(block)
        self.pool.mark_dirty(block)
        if self._records is not None and record is not None:
            self._records[slot] = record

    def _steady_flush(self, records, count, plan) -> None:  # pragma: no cover
        raise AssertionError("virtual-memory option never batch-flushes")

    # -- inspection -----------------------------------------------------------------

    def _disk_rows(self) -> np.ndarray:
        return self._records.array.copy()
