"""Merging per-shard samples into one uniform sample of the union.

The correctness rule (proof sketch in docs/SERVICE.md): a uniform
``k``-subset of a partitioned population is drawn by first allocating
per-partition counts ``(k_1, ..., k_S)`` from the multivariate
hypergeometric weighted by partition sizes -- here each shard's
``seen`` count, i.e. how much of the stream it has absorbed -- and
then drawing a uniform ``k_i``-subset within each partition.  Shard
``i``'s reservoir is itself a uniform sample of its ``seen_i`` stream
records (the paper's Algorithm 1 invariant), and a uniform subset of a
uniform sample is a uniform subset of the underlying stream, so the
concatenation is a uniform ``k``-subset of the *union* stream.

The allocation reuses :func:`repro.reservoir.draw_victim_counts` --
Algorithm 3's randomized-partitioning draw is exactly the multivariate
hypergeometric this merge needs, including its paper-scale (> 1e9
records) decomposition.

Workers return their records uniformly *ordered* as one
:class:`~repro.storage.recordbatch.RecordBatch`, so taking the first
``k_i`` rows of a shard's reply is itself a uniform ``k_i``-subset; the
merge therefore needs one round trip even though the allocation is
drawn supervisor-side after the replies arrive, and only the merged
``k`` rows are ever decoded.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..reservoir import draw_victim_counts
from ..storage.recordbatch import RecordBatch
from ..storage.records import Record, RecordSchema


def allocate_counts(rng: np.random.Generator, seen: Sequence[int],
                    k: int) -> list[int]:
    """Multivariate-hypergeometric shard allocation of a ``k``-draw.

    Args:
        rng: the supervisor's merge RNG.
        seen: per-shard stream positions (partition sizes).
        k: merged sample size; must not exceed ``sum(seen)``.
    """
    total = sum(seen)
    if k > total:
        raise ValueError(
            f"cannot draw {k} records from a union stream of {total}")
    return draw_victim_counts(rng, list(seen), k)


def merge_shard_batches(rng: np.random.Generator,
                        payloads: Sequence[dict], k: int,
                        schema: RecordSchema) -> RecordBatch:
    """Merge per-shard ``sample`` replies into a uniform ``k``-sample.

    Args:
        rng: the supervisor's merge RNG (allocation and final shuffle).
        payloads: one worker ``sample`` payload per shard, each with
            ``seen``, ``size``, and uniformly-ordered ``records`` (a
            :class:`~repro.storage.recordbatch.RecordBatch`).
        k: requested merged sample size.
        schema: the shards' record layout.

    Each shard's allocated prefix is one slice of its batch; the pieces
    are concatenated and the de-grouping shuffle is a single row
    permutation.

    Raises:
        ValueError: when the allocation lands a shard a count larger
            than the records it returned.  Two distinct causes, both
            actionable: the shard returned fewer than ``min(k, size)``
            records (caller bug), or ``k`` exceeds a shard's reservoir
            size while its ``seen`` keeps drawing allocation toward it
            (ask for ``k`` at most the smallest shard reservoir).
    """
    seen = [p["seen"] for p in payloads]
    counts = allocate_counts(rng, seen, k)
    parts = [np.empty(0, dtype=schema.dtype)]
    for payload, count in zip(payloads, counts):
        records = payload["records"]
        if count > len(records):
            raise ValueError(
                f"allocation wants {count} records from a shard that "
                f"returned {len(records)} (reservoir size "
                f"{payload['size']}); request k no larger than the "
                f"smallest shard reservoir"
            )
        parts.append(records.array[:count])
    merged = np.concatenate(parts)
    # A uniform subset is exchangeable; the shuffle only removes the
    # by-shard grouping from the returned order.
    return RecordBatch(schema, merged[rng.permutation(len(merged))])


def merge_shard_samples(rng: np.random.Generator,
                        payloads: Sequence[dict], k: int) -> list[Record]:
    """:func:`merge_shard_batches` in the replies' own schema, decoded
    to record objects."""
    schema = payloads[0]["records"].schema
    return merge_shard_batches(rng, payloads, k, schema).to_records()


def merge_weighted_batches(rng: np.random.Generator,
                           payloads: Sequence[dict], k: int,
                           schema: RecordSchema) -> RecordBatch:
    """Merge *keyed* (A-ExpJ) shard replies: global top-``k`` by key.

    A record's ``log(u)/w`` key is drawn from the record alone, never
    from the reservoir holding it, so keys rank records across
    independent shards; the union stream's A-ExpJ sample is exactly
    the ``k`` largest keys in the concatenated replies.  Workers rank
    their replies best key first and trim to ``min(k, size)``, which
    always covers the shard's contribution to the global top-``k``
    when ``k`` is at most one shard's capacity (the same bound the
    uniform merge documents).  The final shuffle only removes the key
    ranking from the returned order; the selected *set* is
    deterministic given the replies.
    """
    rows = np.concatenate([np.empty(0, dtype=schema.dtype)]
                          + [p["records"].array for p in payloads])
    keys = np.asarray([key for p in payloads for key in p["keys"]])
    take = min(k, len(rows))
    top = np.argsort(keys, kind="stable")[::-1][:take]
    return RecordBatch(schema, rows[top][rng.permutation(take)])
