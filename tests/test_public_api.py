"""Meta-tests on the public API surface.

A library a downstream user adopts needs its advertised names to exist,
be importable from the top level, and carry documentation.  These tests
pin that contract, for the top-level package and for every subpackage
that declares an ``__all__``, and the one ``--report`` spelling of the
benchmark CLI.
"""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = (
    "repro.analysis",
    "repro.baselines",
    "repro.bench",
    "repro.core",
    "repro.estimate",
    "repro.obs",
    "repro.pipeline",
    "repro.sampling",
    "repro.serve",
    "repro.service",
    "repro.storage",
    "repro.streams",
)


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_is_sorted_and_unique(self):
        assert sorted(repro.__all__) == list(repro.__all__)
        assert len(set(repro.__all__)) == len(repro.__all__)

    @pytest.mark.parametrize("name", sorted(repro.__all__))
    def test_every_public_name_is_documented(self, name):
        obj = getattr(repro, name)
        if inspect.ismodule(obj):
            return
        doc = inspect.getdoc(obj)
        assert doc and doc.strip(), f"{name} lacks a docstring"

    def test_subpackages_have_docstrings(self):
        import repro.analysis
        import repro.baselines
        import repro.bench
        import repro.core
        import repro.estimate
        import repro.sampling
        import repro.storage
        import repro.streams

        for module in (repro, repro.analysis, repro.baselines,
                       repro.bench, repro.core, repro.estimate,
                       repro.sampling, repro.storage, repro.streams):
            assert module.__doc__ and module.__doc__.strip(), module

    def test_public_classes_have_documented_public_methods(self):
        """Every public method of every exported class has a docstring
        (dataclass/auto-generated members excluded)."""
        skip = {"__init__"}
        auto = {"count", "index"}  # tuple/namedtuple inheritances
        for name in repro.__all__:
            obj = getattr(repro, name)
            if not inspect.isclass(obj):
                continue
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_") or attr_name in skip | auto:
                    continue
                if inspect.isfunction(attr):
                    doc = inspect.getdoc(attr)
                    assert doc and doc.strip(), \
                        f"{name}.{attr_name} lacks a docstring"

    def test_version_is_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_serving_layer_names_are_exported(self):
        for name in ("Reservoir", "ReservoirServer", "ServeClient",
                     "AsyncServeClient", "InlineTransport", "ServerConfig",
                     "ServeError"):
            assert name in repro.__all__, name


class TestSubpackageSurfaces:
    """Every subpackage's ``__all__`` matches what it actually exports."""

    @pytest.mark.parametrize("modname", SUBPACKAGES)
    def test_all_names_resolve(self, modname):
        module = importlib.import_module(modname)
        for name in module.__all__:
            assert hasattr(module, name), f"{modname}.{name}"

    @pytest.mark.parametrize("modname", SUBPACKAGES)
    def test_all_is_sorted_and_unique(self, modname):
        module = importlib.import_module(modname)
        assert sorted(module.__all__) == list(module.__all__), modname
        assert len(set(module.__all__)) == len(module.__all__), modname

    @pytest.mark.parametrize("modname", SUBPACKAGES)
    def test_public_classes_are_advertised(self, modname):
        """No stealth classes: a class defined inside the package and
        reachable from its namespace is either in ``__all__`` or
        underscore-private."""
        module = importlib.import_module(modname)
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and not name.startswith("_")
                    and obj.__module__.startswith(modname)):
                assert name in module.__all__, f"{modname}.{name}"


class TestDeprecatedAliases:
    """The deprecated CLI spellings are gone: ``--report KIND[=PATH]``
    is the one spelling of a benchmark run."""

    def test_report_flag_does_not_warn(self):
        import warnings

        from repro.cli import _resolve_reports, build_parser

        parser = build_parser()
        args = parser.parse_args(["--report", "ingest",
                                  "--report", "serve=s.json"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = _resolve_reports(parser, args)
        assert reports == [("ingest", "BENCH_ingest.json"),
                           ("serve", "s.json")]
