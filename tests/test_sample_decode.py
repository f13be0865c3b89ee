"""``sample(k)`` decodes only the ``k`` rows it returns.

Retained records live in slabs; ``sample(k)`` is ``sample_batch(k)``
followed by decoding the chosen rows.  These tests count the
:class:`~repro.storage.records.Record` objects built by one
``sample(64)`` while the buffer holds pending rows (so the deferred
evictions are applied too), and check that the thinned draw has the
exact membership law with and without pending rows.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from conftest import TEST_BLOCK, keyed_records, make_geometric_file, \
    make_multi_file, small_disk_params
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.core.managed import ManagedSample
from repro.service import ShardedReservoir
from repro.storage import recordbatch
from repro.storage.device import SimulatedBlockDevice
from repro.storage.records import Record
from test_batch_ingest import P_MIN, chi_square_p

K = 64


@pytest.fixture
def built(monkeypatch):
    """A counter of the records ``RecordBatch`` decoding constructs."""
    counter = collections.Counter()

    def counting_record(*args):
        counter["records"] += 1
        return Record(*args)

    monkeypatch.setattr(recordbatch, "Record", counting_record)
    return counter


def _config():
    return GeometricFileConfig(capacity=2000, buffer_capacity=200,
                               record_size=40, beta_records=20,
                               retain_records=True, admission="uniform")


def _managed(tmp_path):
    config = _config()
    blocks = GeometricFile.required_blocks(config, TEST_BLOCK)
    return ManagedSample(tmp_path / "sample.json",
                         lambda: SimulatedBlockDevice(blocks,
                                                      small_disk_params()),
                         config, checkpoint_every=0)


def _sharded(tmp_path):
    return ShardedReservoir(tmp_path / "svc", _config(), shards=2,
                            pool="inline", seed=3)


def _buffers(structure):
    if isinstance(structure, ShardedReservoir):
        return [worker.managed.structure.buffer
                for worker in structure._pool._workers.values()]
    return [structure.buffer]


MAKERS = {
    "geometric": lambda tmp_path: make_geometric_file(
        capacity=2000, buffer_capacity=200),
    "multi": lambda tmp_path: make_multi_file(
        capacity=2000, buffer_capacity=200),
    "managed": _managed,
    "sharded": _sharded,
}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_sample_decodes_exactly_k_rows(name, tmp_path, built):
    structure = MAKERS[name](tmp_path)
    try:
        structure.offer_batch(keyed_records(9050))
        # Flush the sharded service's journal into the workers.
        structure.stats()
        assert all(buffer.count > 0 for buffer in _buffers(structure))
        built.clear()
        records = structure.sample(K)
        assert built["records"] == K
        assert len({r.key for r in records}) == K
    finally:
        structure.close()


@pytest.mark.parametrize("pending", [False, True])
def test_thinned_membership_is_uniform(pending):
    """Chi-square on one fixed file state, over many query draws.

    With ``p`` buffered rows, each pending row survives the deferred
    evictions for certain and each of the ``N`` disk rows with
    probability ``(N - p) / N``; ``sample(k)`` then keeps a uniform
    ``k / N`` of the result.  ``p = 0`` is the flush-boundary case.
    """
    gf = make_geometric_file(capacity=200, buffer_capacity=20, seed=5)
    records = keyed_records(2000)
    gf.offer_many(records[:1000])
    position = 1000
    while (gf.buffer.count > 0) != pending:
        gf.offer(records[position])
        position += 1
    capacity = gf.capacity
    waiting = set(gf.buffer.pending_view()["key"].tolist())
    residents = {key for ledger in gf.subsamples
                 for key in ledger.records.keys.tolist()}
    assert len(residents) == capacity and bool(waiting) == pending
    trials, k = 2000, 40
    rng = np.random.default_rng(1)
    counts = collections.Counter()
    for _ in range(trials):
        counts.update(r.key for r in gf.sample(k, rng=rng))
    share = trials * k / capacity
    expected = {key: share * (capacity - len(waiting)) / capacity
                for key in residents}
    expected.update({key: share for key in waiting})
    assert sum(counts.values()) == trials * k
    assert chi_square_p(counts, expected) > P_MIN
