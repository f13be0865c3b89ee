"""The unified ``Reservoir`` protocol.

Every way of holding a very large online sample in this repository --
a single :class:`~repro.core.geometric_file.GeometricFile` on one
device, the checkpointed :class:`~repro.core.managed.ManagedSample`
wrapper, the multi-process :class:`~repro.service.ShardedReservoir`,
and a :class:`~repro.serve.ServeClient` talking to a remote server --
answers the same eight questions: feed it records, draw a uniform
sample, read its counters, make it durable, shut it down.
:class:`Reservoir` pins that surface down as one
:class:`typing.Protocol`, so harnesses, benchmarks, and applications
can be written once against the protocol and pointed at any
implementation, local or served.

The protocol is ``runtime_checkable``: ``isinstance(obj, Reservoir)``
verifies *presence* of the methods (Python checks names, not
signatures); the signature and semantic contract below is enforced by
``tests/test_protocols.py`` conformance tests instead.

Method contract (normative; see docs/API.md for the narrative form):

``offer(record)``
    Present one stream record.
``offer_batch(records) -> int``
    Present a batch -- either a
    :class:`~repro.storage.recordbatch.RecordBatch` or any sequence of
    :class:`~repro.storage.records.Record` -- and return how many were
    admitted (always ``len(records)`` under ``admission="always"``).
    This is the canonical batch verb; ``offer_many`` survives on
    :class:`~repro.reservoir.StreamReservoir` as the documented
    list-only fast path.
``sample(k=None) -> list[Record]``
    A uniform random sample of the stream seen so far: the full
    reservoir when ``k`` is ``None``, else a uniform ``k``-subset.
``sample_batch(k=None) -> RecordBatch``
    ``sample`` as an undecoded slab; ``sample`` is this followed by
    decoding only the returned rows.
``snapshot(k=None) -> (list[Record], int)``
    ``sample(k)`` plus the stream position it covers -- the population
    count AQP estimators scale by.
``stats() -> ReservoirStats``
    A frozen progress/cost snapshot.
``checkpoint()``
    Make the current state durable: flush barriers for purely
    device-backed structures, a state-file write for checkpointed
    ones, a full shard checkpoint for the service.  On return, the
    work admitted before the call has reached its backing store.
``close()``
    Release resources (drain writers, stop workers, close sockets).
    Implementations tolerate repeated calls.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class Reservoir(Protocol):
    """Structural protocol every reservoir front-end implements.

    See the module docstring for the normative method contract; this
    class only declares the shape.  ``isinstance`` checks verify
    method presence (the :func:`typing.runtime_checkable` rule);
    ``tests/test_protocols.py`` exercises the semantics against every
    implementation.
    """

    def offer(self, record) -> None:
        """Present one stream record."""
        ...

    def offer_batch(self, records) -> int:
        """Present a batch of records (``RecordBatch`` or sequence);
        return the number admitted."""
        ...

    def sample(self, k=None):
        """A uniform random sample; the full reservoir when ``k`` is
        ``None``, else a uniform ``k``-subset."""
        ...

    def sample_batch(self, k=None):
        """The current sample as an undecoded ``RecordBatch``."""
        ...

    def snapshot(self, k=None):
        """``(sample(k), stream position)`` as one consistent pair."""
        ...

    def stats(self):
        """A frozen ``ReservoirStats`` progress/cost snapshot."""
        ...

    def checkpoint(self) -> None:
        """Make the current state durable before returning."""
        ...

    def close(self) -> None:
        """Release resources; safe to call more than once."""
        ...
