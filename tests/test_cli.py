"""Tier-1 smoke tests for the ``repro-bench`` CLI observability modes.

Runs the real entry point at ``--scale 0`` (the fixed smoke
configuration) and checks the ``--metrics`` JSON payload and the
``--trace`` JSONL stream, including the reconciliation property: the
mirrored registry counters must equal each structure's ``stats().io``
totals exactly.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import EVENT_KINDS

pytestmark = pytest.mark.obs

DISK_FIELDS = ("seeks", "reads", "writes", "blocks_read", "blocks_written",
               "sequential_blocks", "seek_seconds", "transfer_seconds")


def metric_values(payload):
    """Index the registry dump as {(name, structure): value(s)}."""
    return {
        (m["name"], m["labels"].get("structure")): m
        for m in payload["metrics"]
    }


def extract_payload(out):
    """Parse the metrics JSON object embedded in the CLI's stdout."""
    start = out.rfind("{", 0, out.index('"experiment"'))
    payload, _ = json.JSONDecoder().raw_decode(out[start:])
    return payload


class TestSmokeInvocation:
    def test_fig7a_scale0_metrics_and_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        rc = main(["fig7a", "--scale", "0", "--metrics", "-",
                   "--trace", str(trace_path), "--no-chart"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scale=smoke" in out

        payload = extract_payload(out)
        assert payload["experiment"] == "experiment 1 (fig 7a)"
        assert payload["scale"] == 0
        names = [s["name"] for s in payload["structures"]]
        assert names == ["virtual mem", "scan", "local overwrite",
                         "geo file", "multiple geo files"]

        # Reconciliation: per-structure mirrored counters == stats().io.
        metrics = metric_values(payload)
        for snapshot in payload["structures"]:
            io = snapshot["io"]
            for field in DISK_FIELDS:
                entry = metrics[(f"disk.{field}", snapshot["name"])]
                assert entry["value"] == io[field], (
                    snapshot["name"], field)

        # The trace file is valid JSONL with known event kinds and
        # strictly increasing sequence numbers.
        lines = trace_path.read_text().splitlines()
        assert lines
        events = [json.loads(line) for line in lines]
        assert all(e["kind"] in EVENT_KINDS for e in events)
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert payload["trace_event_counts"] == {
            kind: sum(1 for e in events if e["kind"] == kind)
            for kind in payload["trace_event_counts"]
        }

    def test_metrics_written_to_file(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        rc = main(["fig7a", "--scale", "0", "--only", "scan",
                   "--metrics", str(metrics_path), "--no-chart"])
        assert rc == 0
        capsys.readouterr()
        payload = json.loads(metrics_path.read_text())
        assert [s["name"] for s in payload["structures"]] == ["scan"]
        assert any(m["name"] == "events.flush" for m in payload["metrics"])

    def test_plain_run_has_no_observability_output(self, capsys):
        rc = main(["fig7a", "--scale", "0", "--only", "scan", "--no-chart"])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"experiment"' not in out


class TestAqpReport:
    def test_report_aqp_writes_gated_json(self, tmp_path, capsys):
        path = tmp_path / "aqp.json"
        rc = main(["--report", f"aqp={path}"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tiered AQP planner" in out
        assert f"wrote {path}" in out
        report = json.loads(path.read_text())
        gates = report["gates"]
        assert set(gates) >= {"speedup", "hit_rate", "bit_exact", "pass"}
        assert report["bit_exact"]["samples"] is True
        assert report["planner"]["queries"] == report["config"]["queries"]


class TestParser:
    def test_flags_are_registered(self):
        parser = build_parser()
        args = parser.parse_args(["fig7a", "--scale", "0",
                                  "--metrics", "-", "--trace", "t.jsonl"])
        assert args.metrics == "-"
        assert args.trace == "t.jsonl"
        assert args.scale == 0

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            main(["fig7a", "--scale", "-1"])

    def test_report_flag_is_repeatable(self):
        parser = build_parser()
        args = parser.parse_args(["--report", "ingest",
                                  "--report", "query=q.json"])
        assert args.reports == ["ingest", "query=q.json"]

    def test_serve_is_a_valid_experiment_choice(self):
        parser = build_parser()
        assert parser.parse_args(["serve"]).experiment == "serve"

    def test_deprecated_flags_are_hidden_from_help(self):
        parser = build_parser()
        text = parser.format_help()
        assert "--report" in text
        for legacy in ("--perf-smoke", "--query-report", "--pipeline",
                       "--shard-report"):
            assert legacy not in text, legacy
            with pytest.raises(SystemExit):
                parser.parse_args([legacy, "out.json"])

    def test_unknown_report_kind_rejected(self):
        with pytest.raises(SystemExit):
            main(["--report", "turbo"])

    def test_aqp_is_a_registered_report_kind(self):
        from repro.cli import REPORT_KINDS, default_report_path
        assert "aqp" in REPORT_KINDS
        assert default_report_path("aqp") == "BENCH_aqp.json"
        parser = build_parser()
        args = parser.parse_args(["--report", "aqp=out.json"])
        assert args.reports == ["aqp=out.json"]

    def test_experiment_required_without_reports(self):
        with pytest.raises(SystemExit):
            main([])
