"""A managed, durable sample: structure + periodic checkpoints.

The paper's premise is a sample that outlives any single process -- the
durable synopsis of an unbounded stream.  :class:`ManagedSample` is the
deployment glue a downstream user actually wants: it owns a geometric
structure, appends a generation of its logical state to a checkpoint
log every ``checkpoint_every`` flushes (fsynced; see
:mod:`repro.core.checkpoint` for the format, the compaction rule and
the recovery rule), and reopens from the last intact generation on
restart.

Durability semantics: a crash loses at most the records admitted since
the last checkpoint -- the stream positions covered by the restored
state resume exactly (bit-identical continuation is a tested property
of :mod:`repro.core.checkpoint`), so the reservoir remains a true
sample of the records it has *seen*; the gap is simply unseen stream,
the same as any downtime.  A torn or corrupted newest generation costs
one more generation: the restore falls back to the one before it.
"""

from __future__ import annotations

import os
import time
from typing import Callable

from ..sampling.weights import WeightFunction
from ..storage.device import BlockDevice
from ..storage.records import Record
from .biased_file import BiasedGeometricFile, BiasedMultipleGeometricFiles
from .checkpoint import CheckpointLog
from .geometric_file import GeometricFile, GeometricFileConfig
from .multi import MultiFileConfig, MultipleGeometricFiles

_KINDS = {
    "geometric": (GeometricFile, GeometricFileConfig),
    "multi": (MultipleGeometricFiles, MultiFileConfig),
    "biased": (BiasedGeometricFile, GeometricFileConfig),
    "biased-multi": (BiasedMultipleGeometricFiles, MultiFileConfig),
}


class ManagedSample:
    """A checkpointed sampling structure bound to a state file.

    Args:
        checkpoint_path: where the checkpoint log lives.  If the file
            exists, the structure is restored from its last intact
            generation; otherwise a fresh one is created from
            ``config``.
        device_factory: builds the backing block device (called on both
            create and restore; the devices carry no authoritative
            state -- the checkpoint is the source of truth).
        config: structure sizing (must satisfy the chosen kind).  May
            be ``None`` when the checkpoint file already exists -- the
            restored structure carries its own config.
        kind: "geometric", "multi", "biased", or "biased-multi".
        weight_fn: required for the biased kinds.
        checkpoint_every: flushes between automatic checkpoints; 0
            disables automatic checkpointing (manual only).
        seed: seed for a freshly created structure (ignored on restore).
    """

    def __init__(
        self,
        checkpoint_path: str | os.PathLike[str],
        device_factory: Callable[[], BlockDevice],
        config: GeometricFileConfig | MultiFileConfig | None,
        *,
        kind: str = "geometric",
        weight_fn: WeightFunction | None = None,
        checkpoint_every: int = 100,
        seed: int | None = 0,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(
                f"unknown kind {kind!r}; expected one of {sorted(_KINDS)}"
            )
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if kind.startswith("biased") and weight_fn is None:
            raise ValueError(f"kind {kind!r} requires weight_fn")
        cls, config_cls = _KINDS[kind]
        if config is not None and not isinstance(config, config_cls):
            raise ValueError(
                f"kind {kind!r} needs a {config_cls.__name__}"
            )
        self.path = os.fspath(checkpoint_path)
        self.checkpoint_every = checkpoint_every
        self._weight_fn = weight_fn
        self.restored = os.path.exists(self.path)
        self.checkpoint_meta: dict | None = None
        if self.restored:
            self.structure, self._log = CheckpointLog.open(
                self.path, device_factory(), weight_fn=weight_fn)
            if not isinstance(self.structure, cls):
                raise ValueError(
                    f"checkpoint holds a {type(self.structure).__name__}, "
                    f"not the requested {cls.__name__}"
                )
            self.checkpoint_meta = self.structure.checkpoint_meta
        elif config is None:
            raise ValueError(
                f"no checkpoint at {self.path!r} and no config to "
                "create a fresh structure from"
            )
        else:
            self._log = CheckpointLog(self.path)
            if kind.startswith("biased"):
                self.structure = cls(device_factory(), config, weight_fn,
                                     seed=seed)
            elif weight_fn is not None:
                # Plain kinds take weight_fn as a keyword: it
                # parameterises the configured sampling law
                # (config.law), not a biased multiplier scheme.
                self.structure = cls(device_factory(), config, seed=seed,
                                     weight_fn=weight_fn)
            else:
                self.structure = cls(device_factory(), config, seed=seed)
        self._checkpointed_flushes = self.structure.flushes

    @classmethod
    def restore(
        cls,
        checkpoint_path: str | os.PathLike[str],
        device_factory: Callable[[], BlockDevice],
        *,
        kind: str = "geometric",
        weight_fn: WeightFunction | None = None,
        checkpoint_every: int = 100,
    ) -> "ManagedSample":
        """Reopen an existing checkpoint; fails if the file is absent.

        Unlike the constructor's restore-or-create behaviour, this is
        for callers (e.g. shard recovery in :mod:`repro.service`) for
        whom a missing checkpoint is an error, not a reason to start an
        empty reservoir.  ``checkpoint_meta`` carries whatever mapping
        the saving side passed to :meth:`checkpoint`.
        """
        path = os.fspath(checkpoint_path)
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"no checkpoint to restore at {path!r}"
            )
        return cls(path, device_factory, None, kind=kind,
                   weight_fn=weight_fn, checkpoint_every=checkpoint_every)

    # -- stream interface ---------------------------------------------------

    def offer(self, record: Record) -> None:
        """Present one stream record; checkpoints on schedule."""
        self.structure.offer(record)
        self._maybe_checkpoint()

    def offer_many(self, records) -> int:
        """Present a batch of records; checkpoints on schedule."""
        admitted = self.structure.offer_many(records)
        self._maybe_checkpoint()
        return admitted

    def offer_batch(self, batch) -> int:
        """Present a batch (``RecordBatch`` or sequence of records).

        Explicit (rather than ``__getattr__``-delegated) so the
        checkpoint schedule sees batch ingestion too.
        """
        admitted = self.structure.offer_batch(batch)
        self._maybe_checkpoint()
        return admitted

    def ingest(self, n: int) -> None:
        """Count-only ingestion (unbiased kinds only)."""
        self.structure.ingest(n)
        self._maybe_checkpoint()

    # -- queries ------------------------------------------------------------

    def sample(self, k: int | None = None, *, rng=None):
        """The wrapped structure's current sample (protocol form).

        Before the serving-layer API unification ``managed.sample``
        was the wrapped structure itself; it is now :attr:`structure`,
        and ``sample()`` is the query every
        :class:`~repro.core.protocols.Reservoir` answers.
        """
        return self.structure.sample(k, rng=rng)

    def snapshot(self, k: int | None = None, *, rng=None):
        """(:meth:`sample` result, stream position) in one call."""
        return self.structure.snapshot(k, rng=rng)

    # -- durability -----------------------------------------------------------

    @property
    def flushes_since_checkpoint(self) -> int:
        return self.structure.flushes - self._checkpointed_flushes

    def checkpoint(self, *, meta: dict | None = None) -> None:
        """Durably append the current state as the log's next generation.

        Returns once the generation is fsynced (a base rewrite also
        fsyncs its directory after the rename).

        Args:
            meta: optional caller metadata embedded in the generation
                itself (see :func:`repro.core.checkpoint.
                save_geometric_file`); it rides the same CRC-checked
                frame as the state, so a reader never sees state from
                one checkpoint with metadata from another.
        """
        # Checkpoint barrier: with the pipelined engine, wait for every
        # queued flush to reach the device before snapshotting, so the
        # checkpoint never describes I/O the device has not absorbed
        # (and a parked writer fault surfaces here, not mid-save).
        structure = self.structure
        structure.flush_barrier()
        started = time.perf_counter()
        written, generation = self._log.append(structure, meta)
        seconds = time.perf_counter() - started
        self.checkpoint_meta = meta
        self._checkpointed_flushes = structure.flushes
        if structure._registry is not None:
            structure._registry.histogram(
                "checkpoint.seconds",
                structure=structure._obs_name).observe(seconds)
        structure._emit("checkpoint", path=self.path,
                         flushes=structure.flushes, duration_s=seconds,
                         bytes=written, generation=generation)

    def _maybe_checkpoint(self) -> None:
        if (self.checkpoint_every
                and self.flushes_since_checkpoint >= self.checkpoint_every):
            self.checkpoint()

    def close(self) -> None:
        """Checkpoint, then close the wrapped structure.

        The managed wrapper's whole promise is durability, so its
        ``close()`` is a graceful drain: the state that existed at the
        call is on disk before any resource is released.  Callers who
        explicitly do not want a goodbye checkpoint can close the
        wrapped structure directly (``managed.structure.close()``).
        """
        self.checkpoint(meta=self.checkpoint_meta)
        self.structure.close()

    # -- observability -----------------------------------------------------------

    def stats(self):
        """The underlying structure's :class:`~repro.obs.ReservoirStats`."""
        return self.structure.stats()

    def instrument(self, registry, trace=None, *, name=None) -> None:
        """Instrument the underlying structure; see
        :meth:`repro.reservoir.StreamReservoir.instrument`."""
        self.structure.instrument(registry, trace, name=name)

    # -- conveniences -----------------------------------------------------------

    def __getattr__(self, name: str):
        # Delegate observers (sample_batch(), disk_size, items(), ...)
        # to the underlying structure.  "structure" itself must not
        # recurse: when __init__ has not yet bound it, Python falls
        # back here.
        if name == "structure":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute "
                "'structure' (not yet initialised)"
            )
        try:
            return getattr(self.structure, name)
        except AttributeError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r} "
                f"(also absent on the wrapped "
                f"{type(self.structure).__name__!r})"
            ) from None
