"""The in-memory buffer of newly captured samples (Algorithm 2).

Between flushes, admitted records accumulate here.  Algorithm 2's key
subtlety (lines 6-8) is that a newly admitted record must evict a
uniformly random member of the *whole* current reservoir -- and with
probability ``count(B)/|R|`` that member is itself a buffered record
that has not reached disk yet.  In that case the replacement happens in
memory and the buffer count stays put; otherwise the new record joins
the buffer and one disk-resident record is doomed (which one is decided
collectively at flush time by Algorithm 3's randomized partitioning).

The buffer also supports the weighted variant: each slot can carry an
effective weight, and Section 7.3.2's overflow events scale every
buffered weight -- implemented with an epoch factor instead of an O(B)
sweep, exactly as in
:class:`~repro.sampling.biased_reservoir.BiasedReservoir`.

Storage comes in two modes:

* *retaining* (``retain_records=True``): a preallocated structured-array
  slab of ``capacity`` rows over :attr:`RecordSchema.dtype` -- the same
  packed layout the disk segments use.  Joins are row (or slice) writes
  into the slab, :meth:`drain` hands back one
  :class:`~repro.storage.recordbatch.RecordBatch`, and the batch entry
  points (:meth:`extend_batch` / :meth:`absorb_batch`) absorb whole
  column slices without materialising a single record object.
  Weighted (biased) buffers keep their per-slot effective weights in a
  list beside the slab;
* *count-only* (``retain_records=False``): no storage at all.

The admission law is one decision kernel shared by every entry point,
so record-at-a-time and batch ingestion are distributionally identical
(tested).
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

import numpy as np

from ..storage.recordbatch import RecordBatch
from ..storage.records import Record, RecordSchema

_RENORMALIZE_ABOVE = 1e100


class SampleBuffer:
    """Fixed-capacity staging area for admitted records.

    Args:
        capacity: maximum records held (``|B|`` in the paper).
        rng: randomness for the in-buffer replacement draw.
        retain_records: keep the records in the slab.  Count-only mode
            (``False``) powers the large benchmark runs, where retained
            records would dominate the cost of the experiment without
            affecting any I/O behaviour.
        np_rng: numpy generator for the batched coin flips of
            :meth:`absorb_many`; derived deterministically from ``rng``
            when not supplied.
        schema: record layout of the slab; required when
            ``retain_records`` is true, ignored in count-only mode.
        aux_width: float64 auxiliary columns carried per record for
            non-uniform sampling laws (keys, stream positions).  Aux
            rows ride :meth:`append` / :meth:`replace` in lock-step
            with the records and come back permuted identically by
            :meth:`drain` (via :meth:`take_aux`); the Algorithm 2
            replacement verbs are uniform-law-only and refuse an
            aux-carrying buffer.
    """

    def __init__(self, capacity: int, rng: random.Random,
                 *, retain_records: bool = True,
                 np_rng: np.random.Generator | None = None,
                 schema: RecordSchema | None = None,
                 aux_width: int = 0) -> None:
        if capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        if aux_width < 0:
            raise ValueError("aux_width cannot be negative")
        if aux_width and not retain_records:
            raise ValueError("aux columns require record retention")
        if retain_records and schema is None:
            raise ValueError("a record-retaining buffer needs a schema")
        self.capacity = capacity
        self._rng = rng
        self._np_rng = np_rng
        self._schema = schema
        self._slab: np.ndarray | None = (
            np.zeros(capacity, dtype=self._schema.dtype)
            if retain_records else None
        )
        self._weights: list[float] | None = None
        self._aux: np.ndarray | None = (
            np.zeros((capacity, aux_width)) if aux_width else None
        )
        self._drained_aux: np.ndarray | None = None
        self._count = 0
        self._scale = 1.0

    # -- observers --------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def is_full(self) -> bool:
        return self._count >= self.capacity

    @property
    def retains_records(self) -> bool:
        return self._slab is not None

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Record]:
        return iter(self.pending_batch())

    def pending_view(self) -> np.ndarray:
        """The live slab rows: a view, not a copy.

        The query path concatenates this straight into its combined
        array; callers must not hold the view across a mutation.
        """
        if self._slab is None:
            raise TypeError("buffer is running in count-only mode")
        return self._slab[:self._count]

    def pending_batch(self) -> RecordBatch:
        """:meth:`pending_view` wrapped as a batch (same aliasing rule)."""
        return RecordBatch(self._schema, self.pending_view())

    def weights(self) -> list[float]:
        """Current effective weights (scaled), weighted buffers only."""
        if self._weights is None:
            raise TypeError("buffer holds no weights")
        return [w * self._scale for w in self._weights]

    @property
    def aux_width(self) -> int:
        return 0 if self._aux is None else self._aux.shape[1]

    def aux_view(self) -> np.ndarray:
        """The live aux rows: a view, not a copy (see pending_view)."""
        if self._aux is None:
            raise TypeError("buffer carries no aux columns")
        return self._aux[:self._count]

    # -- mutation ---------------------------------------------------------

    def _check_join(self, record: Record | None,
                    weight: float | None) -> None:
        """Validate one record-and-weight join before any state moves.

        The first weighted join switches the buffer into weighted mode.
        """
        if weight is not None and self._weights is None:
            if self._count > 0:
                raise ValueError("cannot switch to weighted mode mid-fill")
            self._weights = []
        if self._slab is not None and record is None:
            raise ValueError("record-retaining buffer needs the record")
        if self._weights is not None and weight is None:
            raise ValueError("weighted buffer requires a weight")

    def _put(self, slot: int, record: Record | None,
             weight: float | None) -> None:
        if self._slab is not None:
            self._slab[slot] = self._encode_row(record)
        if self._weights is not None:
            if slot == len(self._weights):
                self._weights.append(weight / self._scale)
            else:
                self._weights[slot] = weight / self._scale

    def append(self, record: Record | None, weight: float | None = None,
               *, aux=None) -> None:
        """Add one record unconditionally (start-up phase).

        While the reservoir is still filling nothing is ever evicted, so
        admitted records simply join the buffer; the in-buffer
        replacement branch only exists once the reservoir is full.

        ``aux`` is the record's auxiliary row when the buffer carries
        aux columns (non-uniform laws stage *every* admitted record
        through this verb, startup and steady alike).
        """
        if self.is_full:
            raise ValueError("buffer full; flush before appending more")
        if (aux is None) != (self._aux is None):
            raise TypeError("aux row and buffer aux_width must agree")
        self._check_join(record, weight)
        if aux is not None:
            self._aux[self._count] = aux
        self._put(self._count, record, weight)
        self._count += 1

    def append_count(self, n: int) -> None:
        """Add ``n`` anonymous records (count-only fast path)."""
        if n < 0:
            raise ValueError("cannot append a negative count")
        if self._slab is not None:
            raise TypeError("buffer retains records; use append instead")
        if self._count + n > self.capacity:
            raise ValueError("append_count would overfill the buffer")
        self._count += n

    def replace(self, slot: int, record: Record) -> None:
        """Overwrite a buffered record in place (with-replacement laws).

        The slot's identity changes but the buffer count does not --
        the overwritten record's deferred disk eviction (if any) now
        belongs to the new occupant.  Aux-carrying buffers refuse:
        their laws never overwrite staged candidates.
        """
        if not 0 <= slot < self._count:
            raise IndexError(f"slot {slot} outside the {self._count} "
                             "buffered records")
        if self._aux is not None:
            raise TypeError("aux-carrying buffers do not replace in place")
        if record is None:
            raise ValueError("record-retaining buffer needs the record")
        if self._slab is None:
            raise TypeError("buffer is running in count-only mode")
        if self._weights is not None:
            raise TypeError("weighted buffers replace via add_admitted")
        self._slab[slot] = self._encode_row(record)

    def add_admitted(self, record: Record | None, reservoir_size: int,
                     weight: float | None = None) -> bool:
        """Place one admitted record (Algorithm 2, lines 6-10).

        Args:
            record: the record, or ``None`` in count-only mode.
            reservoir_size: ``|R|``, the fixed reservoir capacity.
            weight: effective weight for weighted operation; the first
                weighted add switches the buffer into weighted mode.

        Returns:
            True if the record *joined* the buffer (deferring one disk
            eviction), False if it replaced an already-buffered record.

        Raises:
            ValueError: if called on a full buffer -- the caller must
                flush first, mirroring Algorithm 2's line 12 check.
        """
        if self.is_full:
            raise ValueError("buffer full; flush before admitting more")
        if self._aux is not None:
            raise TypeError("Algorithm 2 replacement is uniform-law-only; "
                            "aux-carrying buffers stage via append")
        self._check_join(record, weight)
        # In-buffer replacement with probability count / |R|.
        if self._count > 0 and self._rng.random() * reservoir_size < self._count:
            self._put(self._rng.randrange(self._count), record, weight)
            return False
        self._put(self._count, record, weight)
        self._count += 1
        return True

    def extend(self, records: Sequence[Record | None]) -> None:
        """Batch :meth:`append` for the start-up phase.

        No eviction branch exists while the reservoir is filling, so a
        whole slice of admitted records joins as one slab slice write.
        Weighted buffers append per record (weights are per-record
        state).
        """
        n = len(records)
        if n == 0:
            return
        if self._count + n > self.capacity:
            raise ValueError("extend would overfill the buffer")
        if self._weights is not None:
            raise TypeError("weighted buffers append per record")
        if self._aux is not None:
            raise TypeError("aux-carrying buffers append per record")
        if self._slab is not None:
            self._slab[self._count:self._count + n] = (
                self._schema.encode_rows(records))
        self._count += n

    def extend_batch(self, batch: RecordBatch) -> None:
        """Batch :meth:`extend`: one slab slice copy (start-up phase)."""
        if self._weights is not None:
            raise TypeError("weighted buffers append per record")
        if self._aux is not None:
            raise TypeError("aux-carrying buffers append per record")
        n = len(batch)
        if n == 0:
            return
        if self._count + n > self.capacity:
            raise ValueError("extend would overfill the buffer")
        if self._slab is not None:
            self._slab[self._count:self._count + n] = batch.array
        self._count += n

    def absorb_many(self, records: Sequence[Record | None],
                    reservoir_size: int, *, start: int = 0) -> int:
        """Batch :meth:`add_admitted`: one vectorised coin-flip draw.

        Processes ``records[start:]`` until the buffer fills or the
        batch is exhausted, and returns how many records were consumed
        -- the caller flushes on ``is_full`` and re-enters with the
        remainder, mirroring Algorithm 2's per-record flush check.

        The in-buffer replacement probability ``count/|R|`` depends on
        the running join count, so the decisions are not i.i.d.; the
        batch draw exploits that the count assuming *all* prior records
        joined is an upper bound on the true count.  Records whose
        uniform exceeds even that bound are certain joins (the vast
        majority, since ``count/|R| <= B/N``); only the rare candidates
        below the bound are resolved sequentially.  Identical output
        distribution to a loop of :meth:`add_admitted` calls (tested).
        """
        return self._absorb(records, reservoir_size, start)

    def absorb_batch(self, batch: RecordBatch, reservoir_size: int,
                     *, start: int = 0) -> int:
        """:meth:`absorb_many` over a batch: joins land as slab slice
        copies, with no record object built or encoded.  Returns the
        records consumed, like :meth:`absorb_many`.
        """
        return self._absorb(batch, reservoir_size, start)

    def _absorb(self, rows, reservoir_size: int, start: int) -> int:
        if self.is_full:
            raise ValueError("buffer full; flush before admitting more")
        if self._weights is not None:
            raise TypeError("weighted buffers admit per record; "
                            "use add_admitted")
        if self._aux is not None:
            raise TypeError("Algorithm 2 replacement is uniform-law-only; "
                            "aux-carrying buffers stage via append")
        n = len(rows)
        if not 0 <= start <= n:
            raise ValueError(f"start {start} outside the batch of {n}")
        consumed = 0
        while start + consumed < n and not self.is_full:
            room = self.capacity - self._count
            chunk = min(n - start - consumed, max(2 * room, 64))
            base = start + consumed
            took, count, replaces = self._absorb_decisions(
                chunk, reservoir_size)
            if self._slab is not None:
                part = rows[base:base + took]
                array = (part.array if isinstance(part, RecordBatch)
                         else self._schema.encode_rows(part))
                self._apply_absorb(array, took, replaces)
            self._count = count
            consumed += took
        return consumed

    def _absorb_decisions(self, m: int, reservoir_size: int
                          ) -> tuple[int, int, list[tuple[int, int]]]:
        """The storage-independent half of a chunk absorb.

        Returns ``(consumed, count_after, replaces)`` where
        ``replaces`` lists confirmed in-buffer replacements as
        ``(batch index, buffer count at that moment)``; every other
        consumed index is a join.
        """
        if self._np_rng is None:
            self._np_rng = np.random.default_rng(self._rng.getrandbits(64))
        w = self._np_rng.random(m) * reservoir_size
        # Count upper bound at each index: every prior record joined.
        candidates = np.flatnonzero(w < self._count + np.arange(m))
        count = self._count
        cap = self.capacity
        #: Confirmed replacements as (batch index, count at that moment).
        replaces: list[tuple[int, int]] = []
        consumed = m
        prev = -1
        for j in candidates:
            j = int(j)
            gap = j - prev - 1  # certain joins between candidates
            if count + gap >= cap:
                consumed = prev + 1 + (cap - count)
                count = cap
                break
            count += gap
            if w[j] < count:
                replaces.append((j, count))
            else:
                count += 1
                if count >= cap:
                    consumed = j + 1
                    prev = j
                    break
            prev = j
        else:
            tail = m - prev - 1
            if count + tail >= cap:
                consumed = prev + 1 + (cap - count)
                count = cap
            else:
                count += tail
        return consumed, count, replaces

    def _apply_absorb(self, array: np.ndarray, consumed: int,
                      replaces: list[tuple[int, int]]) -> None:
        """Write one chunk's decisions into the slab.

        Joins land as one slice copy; replaying the replacements after
        the joins is equivalent to interleaving, because joins only
        append and each replacement slot draw uses the buffer size of
        its own moment.
        """
        slab = self._slab
        if not replaces:
            slab[self._count:self._count + consumed] = array[:consumed]
            return
        join_mask = np.ones(consumed, dtype=bool)
        for j, _count_at in replaces:
            join_mask[j] = False
        joins = np.flatnonzero(join_mask)
        slab[self._count:self._count + joins.shape[0]] = array[joins]
        randrange = self._rng.randrange
        for j, count_at in replaces:
            slab[randrange(count_at)] = array[j]

    def _encode_row(self, record: Record):
        # One scalar-codec pack per row keeps slab bytes identical to
        # what a whole-segment encode would produce.
        return np.frombuffer(self._schema.encode(record),
                             dtype=self._schema.dtype)[0]

    def scale_weights(self, factor: float) -> None:
        """Section 7.3.2 step (2): scale every buffered effective weight."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        if self._weights is None:
            raise TypeError("buffer holds no weights")
        self._scale *= factor
        if self._scale > _RENORMALIZE_ABOVE:
            self._weights = [w * self._scale for w in self._weights]
            self._scale = 1.0

    def drain(self) -> tuple[RecordBatch | None, list[float] | None, int]:
        """Empty the buffer, returning (records, weights, count).

        Records come back *shuffled* as a freshly-permuted
        :class:`~repro.storage.recordbatch.RecordBatch` (``None`` in
        count-only mode) -- the paper's flush step begins "first
        randomize the ordering of the sampled records in the buffer"
        (Section 4.3), and the ledger's pop-from-the-end eviction rule
        depends on it.  Weights and aux rows are permuted with them.

        Double-buffering contract (:mod:`repro.pipeline`): the return
        value never aliases live buffer storage -- the permutation is a
        fancy-index *copy* of the slab, not a view.  The drained result
        is therefore a *sealed* buffer: the ingest thread keeps
        admitting into this (now empty) buffer while the background
        writer drains the sealed one, with no shared mutable state.
        """
        count = self._count
        records = None
        weights = None
        if self._weights is not None:
            weights = [w * self._scale for w in self._weights]
        if self._slab is not None:
            # Fisher-Yates over an index list applies the same
            # permutation, from the same RNG draws, as shuffling the
            # records themselves; weights and aux rows ride along.
            order = list(range(count))
            self._rng.shuffle(order)
            index = np.asarray(order, dtype=np.intp)
            records = RecordBatch(self._schema, self._slab[:count][index])
            if weights is not None:
                weights = [weights[i] for i in order]
            if self._aux is not None:
                self._drained_aux = self._aux[:count][index]
        self._count = 0
        self._weights = [] if self._weights is not None else None
        self._scale = 1.0
        return records, weights, count

    def take_aux(self) -> np.ndarray | None:
        """Claim the aux rows of the last :meth:`drain` (one shot).

        Returns ``None`` for aux-free buffers; otherwise the aux rows
        permuted identically to the drained records.  Consumes no
        randomness either way, so uniform-law flush cadence is
        untouched by the aux machinery.
        """
        if self._aux is None:
            return None
        drained = self._drained_aux
        if drained is None:
            raise ValueError("no drained aux rows pending; call drain first")
        self._drained_aux = None
        return drained
