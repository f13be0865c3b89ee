"""Golden digests: pinned samples, ``DiskStats`` and clocks.

Each structure below is driven over a fixed stream with a fixed seed
on a cost-only :class:`SimulatedBlockDevice` and stopped at a flush
boundary, where ``sample()`` has no pending buffered rows and so draws
nothing from any query RNG.  Three sha256 digests are pinned per
structure:

* the ``sample()`` keys, in the order returned;
* the device's :class:`~repro.storage.disk_model.DiskStats`;
* the simulated clock.

A refactor of how retained records are stored must leave every digest
unchanged.  A change that legitimately alters RNG consumption must
re-pin the affected digest on purpose, after the distribution tests
(chi-square / KS) re-pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple

import pytest

from conftest import TEST_BLOCK, small_disk_params
from repro.baselines import (
    DiskReservoirConfig,
    LocalOverwriteReservoir,
    ScanReservoir,
    VirtualMemoryReservoir,
)
from repro.core.biased_file import BiasedGeometricFile
from repro.core.geometric_file import GeometricFile, GeometricFileConfig
from repro.core.multi import MultiFileConfig, MultipleGeometricFiles
from repro.storage.device import SimulatedBlockDevice
from repro.storage.records import Record

#: Records offered one at a time before the batched remainder, so both
#: the scalar (Algorithm 2) and the vectorised placement paths run.
SCALAR_PREFIX = 700
STREAM = 4000


def _device(cls, config):
    blocks = cls.required_blocks(config, TEST_BLOCK)
    return SimulatedBlockDevice(blocks, small_disk_params())


def _geometric(law="uniform", law_params=()):
    config = GeometricFileConfig(
        capacity=800, buffer_capacity=100, record_size=40,
        beta_records=10, retain_records=True, admission="uniform",
        law=law, law_params=law_params)
    return GeometricFile(_device(GeometricFile, config), config, seed=11)


def _multi():
    config = MultiFileConfig(
        capacity=800, buffer_capacity=100, record_size=40,
        beta_records=10, retain_records=True, admission="uniform",
        alpha_prime=0.8)
    return MultipleGeometricFiles(_device(MultipleGeometricFiles, config),
                                  config, seed=11)


def _baseline(cls):
    config = DiskReservoirConfig(
        capacity=600, buffer_capacity=60, record_size=40, pool_blocks=4,
        retain_records=True, admission="uniform")
    return cls(_device(cls, config), config, seed=11)


def _biased():
    config = GeometricFileConfig(
        capacity=500, buffer_capacity=50, record_size=40,
        beta_records=5, retain_records=True, admission="uniform")
    return BiasedGeometricFile(_device(GeometricFile, config), config,
                               lambda r: 1.0 + r.key % 7, seed=11)


BUILDERS = {
    "geometric": _geometric,
    "multi": _multi,
    "scan": lambda: _baseline(ScanReservoir),
    "local_overwrite": lambda: _baseline(LocalOverwriteReservoir),
    "virtual_memory": lambda: _baseline(VirtualMemoryReservoir),
    "biased": _biased,
    "aexpj": lambda: _geometric("aexpj", (("weight", "value"),)),
}


def _stream(n: int, start: int = 0) -> list[Record]:
    # Positive values: the A-ExpJ law weighs records by value.
    return [Record(key=i, value=float(i % 10 + 1), timestamp=float(i))
            for i in range(start, start + n)]


def _at_flush_boundary(structure) -> bool:
    if getattr(structure, "in_startup", False):
        return False
    if getattr(structure, "in_fill_phase", False):
        return False
    return structure.buffer.count == 0


def _drive(structure) -> None:
    records = _stream(STREAM)
    for record in records[:SCALAR_PREFIX]:
        structure.offer(record)
    for start in range(SCALAR_PREFIX, STREAM, 97):
        structure.offer_many(records[start:start + 97])
    # Top up one record at a time until a flush empties the buffer.
    key = STREAM
    while not _at_flush_boundary(structure):
        structure.offer(_stream(1, key)[0])
        key += 1


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(name: str) -> tuple[str, str, str]:
    """``(sample keys, DiskStats, clock)`` digests of one structure."""
    structure = BUILDERS[name]()
    _drive(structure)
    keys = [record.key for record in structure.sample()]
    stats = structure.stats()
    return (_sha(repr(keys)), _sha(repr(astuple(stats.io))),
            _sha(repr(stats.clock)))


GOLDEN = {
    "aexpj": (
        "0f8c37c35925cd792d3cb8036259031755e497ab876e0e85591d96d25e8e9ec7",
        "6e8c0b19d9b4c7c79015094effa1693e04234eda3125027f41e6a27317b34e50",
        "d0113cdcc37a20025353c09fb3333e7da8d3d811c552af6988b990598dcddaaa"),
    "biased": (
        "7408a2fb18becc5231f4f2aea6a424722ef7ef917fcbde24a52de25193edb82a",
        "937af8254e15cf2c9690b4ab896fbb9057cb3b7ffc589688776d933bb1c95768",
        "54538887b872bac2b48383ba7b95f3f18ec13b8ad06f1562b20225c65e496244"),
    "geometric": (
        "5f08a887ce83852a2b5eb0e632b8778e0a1a23e93d2b63c8cd4f46b866ad0226",
        "90da778403e68d78379941d793be0072d0fcb253528143fc0d427604c870e9cb",
        "6a21215092981534d88681f464fbb93ca52bd2fbb77338721e1a5f41a010a780"),
    "local_overwrite": (
        "4ac60a01d0e1a4772ee8f63113605891e9a43381fa3dd345f37ab6f26d021881",
        "490f55aba9d9b71226529ce2ed19e3022ab2bf7d72104bae30629c41e7fc33ef",
        "66f039108674666a394c8c1f8788242de0a7f43467ff4f940e623fed8c46765c"),
    "multi": (
        "6b5013819bb5249edaeaba119d62d6ae1aafb8fc756054a2526a8ba463c7ee6b",
        "57705cfaeec59daeb1db7a62ac95075bad5e5d20eca0fbb75df9ed4f671b4289",
        "bb7396c0bbc4de58d37f2e095e4c3b66f6d9f10febfbc4ae520d379574e8252e"),
    "scan": (
        "751ca98e386d4d201c632665d27c89f22eb94c64386f272802c2a91cf1ea217a",
        "f7f7983ec5f1a7a3b937f239fc86b5a1beed8236294add8929b375715ca42dc2",
        "cbcb728779334f0b73037427789b53e85815558cc7bdccc72f508741a5a8dafd"),
    "virtual_memory": (
        "38e1acb5e57f589ade273cdcb34804cb9ec60e0735f93e4e9ebe41958e77bc49",
        "2c3b44fd1ec8b6c139feb607f575693f8ba47c8500b3572500bbefebd88e8289",
        "9fc5943ea62d755fb64bcad6f6ad0ac213daab5908492f27b96c755e70344253"),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_golden_digests(name):
    assert digests(name) == GOLDEN[name]

