"""The benchmark's own tests, at a tiny size.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from checks import (  # noqa: E402
    check_identical,
    check_sample,
    check_seen,
    chi_square_uniform,
)
from common import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    READS,
    WORKLOADS,
    EngineScale,
    OfferedKeys,
    ServedScale,
    require_source,
    stream_keys,
)

require_source()

# Large enough that the reservoirs spill to the simulated disk (smaller
# ones stay memory-resident and charge no simulated time).
TINY_SERVED = replace(
    ServedScale(), capacity=10_000, buffer=1_000, prefill=24_576,
    prefill_batch=2_048, ingest_batch=64, probe_samples=10,
    chi_k=500, setups=1, reopenings=1, replay_messages=16)
TINY_ENGINE = EngineScale(
    capacity=20_000, buffer=2_000, batch=1_024, pass_batches=40,
    samples_per_pass=3, setups=1, replay_messages=16,
    served=TINY_SERVED)


def tiny_run(workload: str, trace: bool, seed: int = 5):
    from run import measure

    return measure(workload, seed, 1.0, trace, served_scale=TINY_SERVED,
                   engine_scale=TINY_ENGINE)


# -- the definition ------------------------------------------------------------

def test_benchmark_json_matches_the_registry():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER
    bounds = [m["bound"] for m in spec["end_to_end"]]
    assert max(bounds) <= 0.25
    assert END_TO_END["setup_s"][2] == max(bounds)


def test_named_metrics_are_all_registered():
    for name in ("setup_s", "ingest_rps", "offer_p50_ms", "offer_p95_ms",
                 "sim_rps", "restore_s", "rss_mb", "ok_share"):
        assert name in END_TO_END
    for name in ("sample_qps", "sample_p50_ms", "sample_p95_ms"):
        assert name in READS and f"client.{name}" in PER_LAYER
    # Simulated-disk figures carry simulated units, never wall-clock ones.
    assert END_TO_END["sim_rps"][0] == "rec/sim_s"
    assert PER_LAYER["disk.sim_s_per_flush"][0] == "sim_s"
    for layer in ("protocol.", "server.", "sharded.", "ipc.", "checkpoint.",
                  "engine.", "disk.", "client.", "trace."):
        assert any(name.startswith(layer) for name in PER_LAYER), layer


# -- the correctness checker --------------------------------------------------

def offered_range(seed: int, n: int) -> OfferedKeys:
    offered = OfferedKeys(seed)
    offered.add(1, n)
    return offered


def test_check_sample_accepts_a_good_answer():
    offered = offered_range(3, 1_000)
    keys = stream_keys(3, 1, 0, 1_000)[::10].tolist()[:64]
    assert check_sample(keys, 64, offered) == []


def test_check_sample_rejects_a_duplicated_key():
    offered = offered_range(3, 1_000)
    keys = stream_keys(3, 1, 0, 1_000)[:64].tolist()
    keys[5] = keys[4]
    assert any("duplicated" in p for p in check_sample(keys, 64, offered))


def test_check_sample_rejects_a_key_never_offered_and_a_short_answer():
    offered = offered_range(3, 100)
    keys = stream_keys(3, 1, 0, 101)[-64:].tolist()   # last key not offered
    assert any("never offered" in p for p in check_sample(keys, 64, offered))
    assert any("wanted 64" in p for p in check_sample(keys[:63], 64, offered))


def test_check_seen_rejects_one_record_short():
    assert check_seen(1_000, 1_000, "here") == []
    assert check_seen(999, 1_000, "here")


def test_chi_square_accepts_uniform_and_rejects_biased():
    import numpy as np

    offered = offered_range(7, 100_000)
    keys = stream_keys(7, 1, 0, 100_000)
    rng = np.random.default_rng(0)
    uniform = rng.choice(keys, 4_000, replace=False).tolist()
    assert chi_square_uniform(uniform, offered)[1] == []
    recent = rng.choice(keys[50_000:], 4_000, replace=False).tolist()
    assert chi_square_uniform(recent, offered)[1]


def test_check_identical_rejects_a_different_clock():
    assert check_identical([(1.0, 2), (1.0, 2)], "x") == []
    assert check_identical([(1.0, 2), (1.5, 2)], "x")


# -- tiny runs ----------------------------------------------------------------

@pytest.mark.parametrize("workload,trace", [
    ("engine", False), ("engine", True), ("ingest", False),
    ("ingest", True)])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    result, meta = tiny_run(workload, trace)
    assert result["correct"], meta["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    registry = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == list(registry)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == registry[name][0]
        assert isinstance(entry["value"], float)
    if not trace:
        for name, entry in result["metrics"].items():
            assert entry["value"] > 0, name
        assert list(meta["reads"]) == list(READS)
        for name, entry in meta["reads"].items():
            assert entry["unit"] == READS[name][0] and entry["value"] > 0
    assert meta["nproc"] >= 1 and meta["python"] and meta["numpy"]
    if workload != "engine":
        assert meta["transport"] == "shm"


@pytest.mark.parametrize("workload,module", [("engine", "engine"),
                                             ("ingest", "served")])
def test_one_failed_check_fails_the_run(workload, module, monkeypatch,
                                        capsys):
    """A single lost record must fail the run, not just dent ok_share."""
    import importlib

    import checks
    from run import main

    def one_short(seen, acknowledged, where):
        return checks.check_seen(seen - 1, acknowledged, where)

    monkeypatch.setattr(importlib.import_module(module), "check_seen",
                        one_short)
    status = main(["--workload", workload, "--seed", "5", "--seconds", "1"],
                  served_scale=TINY_SERVED, engine_scale=TINY_ENGINE)
    out = capsys.readouterr().out
    assert status != 0
    assert "problem:" in out and '"metrics"' not in out


def test_ingest_sim_rps_is_the_prefill_and_is_deterministic():
    from served import run_served, served_metrics

    raw = run_served(5, 0.5, scale=replace(TINY_SERVED, setups=2))
    first, second = raw["prefills"]
    assert first == second and first["seen"] == TINY_SERVED.prefill
    assert served_metrics(raw)["sim_rps"] == first["seen"] / first["clock"]


def test_engine_is_deterministic_for_a_seed():
    from engine import run_engine

    first = run_engine(9, 0.1, scale=TINY_ENGINE)
    second = run_engine(9, 0.1, scale=TINY_ENGINE)
    assert first["passes"][0]["digest"] == second["passes"][0]["digest"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
