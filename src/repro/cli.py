"""Command-line entry point: ``repro-bench``.

Runs the paper's Figure 7 experiments end to end and prints the
throughput table, I/O summary, and an ASCII rendition of the figure.
``--scale 1`` reproduces the paper's exact record counts (a billion
50 B records); larger scales shrink the run proportionally, and
``--scale 0`` is a fixed smoke configuration for CI.

Benchmark reports all hang off one repeatable flag::

    --report KIND[=PATH]

with KIND one of ``ingest`` (batch-ingest throughput), ``query``
(slab query/AQP), ``pipeline`` (flush overlap + elevator),
``shard`` (sharded-service ingest; honours ``--shards`` / ``--pool`` /
``--ipc``, and benchmarks both IPC transports head to head),
``serve`` (client/server load over the asyncio front-end), ``aqp``
(the tiered planner's cache-hit speedup / hit-rate / bit-exactness
gates), and ``law`` (the sampling-law engine: uniform twin parity and
the weighted-ingest throughput ratio).  PATH
defaults to ``BENCH_<KIND>.json``.

Observability: ``--metrics PATH`` dumps the full metrics registry
(device counters mirrored per structure plus ``events.*`` totals) and
every structure's ``stats()`` snapshot as JSON (``-`` = stdout);
``--trace PATH`` streams structured events (flushes, segment
overwrites, dummy rotations, ...) to a JSONL file as they happen.

Examples::

    repro-bench fig7a --scale 100
    repro-bench fig7b --scale 1 --csv results.csv
    repro-bench fig7c --only "geo file" --only "multiple geo files"
    repro-bench fig7a --scale 0 --metrics - --trace /tmp/trace.jsonl
    repro-bench --report ingest --batch-size 4096
    repro-bench --report ingest --report query=/tmp/q.json
    repro-bench --report shard --shards 4 --pool process --ipc shm
    repro-bench serve --report serve
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bench import (
    ALTERNATIVE_NAMES,
    aqp_smoke,
    ascii_chart,
    experiment_1,
    experiment_2,
    experiment_3,
    io_summary_table,
    law_smoke,
    perf_smoke,
    pipeline_smoke,
    query_smoke,
    render_aqp_report,
    render_law_report,
    render_pipeline_report,
    render_query_report,
    render_report,
    render_serve_report,
    render_shard_report,
    run_until,
    serve_smoke,
    shard_smoke,
    throughput_table,
    to_csv,
    write_report,
)
from .obs import MetricsRegistry, TraceSink

_EXPERIMENTS = {
    "fig7a": experiment_1,
    "fig7b": experiment_2,
    "fig7c": experiment_3,
}

#: Benchmark report kinds accepted by ``--report KIND[=PATH]``, in the
#: order they run when several are requested together.
REPORT_KINDS = ("ingest", "query", "pipeline", "shard", "serve", "aqp",
                "law")


def default_report_path(kind: str) -> str:
    """The JSON report path a bare ``--report KIND`` writes to."""
    return f"BENCH_{kind}.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduce the SIGMOD 2004 geometric-file benchmarks.",
    )
    parser.add_argument("experiment",
                        choices=sorted(_EXPERIMENTS) + ["serve"],
                        nargs="?", default=None,
                        help="which Figure 7 panel to run, or 'serve' "
                             "for the serving-layer load benchmark "
                             "(optional with --report)")
    parser.add_argument("--report", action="append", default=None,
                        metavar="KIND[=PATH]", dest="reports",
                        help="run a benchmark report instead of a "
                             "Figure 7 panel and write its JSON "
                             f"(KIND: {', '.join(REPORT_KINDS)}; "
                             "PATH defaults to BENCH_<KIND>.json; "
                             "repeatable)")
    parser.add_argument("--scale", type=int, default=100,
                        help="record-count divisor; 1 = paper scale, "
                             "0 = fixed smoke configuration "
                             "(default: 100)")
    parser.add_argument("--batch-size", type=int, default=None,
                        metavar="N",
                        help="records per ingest chunk for the Figure 7 "
                             "runs, and per offer_batch batch for "
                             "--report ingest/query/shard")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="shard workers for --report shard "
                             "(default: 4; implies --report shard when "
                             "no report is requested)")
    parser.add_argument("--pool", choices=("process", "inline"),
                        default="process",
                        help="worker harness for --report shard: real "
                             "worker processes or the deterministic "
                             "in-process pool (default: process)")
    parser.add_argument("--ipc", choices=("shm", "queue"),
                        default="shm",
                        help="process-pool data-plane transport for "
                             "--report shard: zero-copy shared-memory "
                             "slab rings or pickled queues (default: "
                             "shm; the report's ipc section benchmarks "
                             "both either way)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed (default: 0)")
    parser.add_argument("--only", action="append", default=None,
                        metavar="NAME", choices=ALTERNATIVE_NAMES,
                        help="run only this alternative (repeatable)")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="also write raw checkpoints as CSV")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="dump the metrics registry and per-structure "
                             "stats() as JSON ('-' = stdout)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="stream structured trace events to a JSONL "
                             "file ('-' = stdout)")
    parser.add_argument("--no-chart", action="store_true",
                        help="skip the ASCII chart")
    return parser


def _resolve_reports(parser: argparse.ArgumentParser,
                     args: argparse.Namespace) -> list[tuple[str, str]]:
    """Fold ``--report`` entries into an ordered ``(kind, path)`` run
    list."""
    reports: list[tuple[str, str]] = []
    for entry in args.reports or []:
        kind, sep, path = entry.partition("=")
        if kind not in REPORT_KINDS:
            parser.error(
                f"unknown report kind {kind!r} "
                f"(choose from {', '.join(REPORT_KINDS)})")
        reports.append((kind, path if sep else default_report_path(kind)))
    if args.shards is not None and all(k != "shard" for k, _ in reports):
        reports.append(("shard", default_report_path("shard")))
    if (args.experiment == "serve"
            and all(k != "serve" for k, _ in reports)):
        reports.append(("serve", default_report_path("serve")))
    return reports


def _run_report(kind: str, args: argparse.Namespace) -> tuple[dict, str]:
    """Run one report kind; returns (report dict, rendered text)."""
    sized = {"seed": args.seed}
    if args.batch_size is not None:
        sized["batch_size"] = args.batch_size
    if kind == "ingest":
        report = perf_smoke(**sized)
        return report, render_report(report)
    if kind == "query":
        report = query_smoke(**sized)
        return report, render_query_report(report)
    if kind == "pipeline":
        report = pipeline_smoke(seed=args.seed)
        return report, render_pipeline_report(report)
    if kind == "shard":
        sized["shards"] = 4 if args.shards is None else args.shards
        sized["pool"] = args.pool
        sized["ipc"] = args.ipc
        report = shard_smoke(**sized)
        return report, render_shard_report(report)
    if kind == "serve":
        kwargs = {"seed": args.seed}
        if args.batch_size is not None:
            kwargs["batch_size"] = args.batch_size
        report = serve_smoke(**kwargs)
        return report, render_serve_report(report)
    if kind == "aqp":
        report = aqp_smoke(seed=args.seed)
        return report, render_aqp_report(report)
    assert kind == "law"
    report = law_smoke(seed=args.seed)
    return report, render_law_report(report)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.batch_size is not None and args.batch_size < 1:
        parser.error("--batch-size must be at least 1")
    if args.shards is not None and args.shards < 2:
        parser.error("--shards needs at least 2 shard workers")
    reports = _resolve_reports(parser, args)
    if reports:
        for index, (kind, path) in enumerate(reports):
            if index:
                print()
            report, rendered = _run_report(kind, args)
            print(rendered)
            write_report(report, path)
            print(f"\nwrote {path}")
        return 0
    if args.experiment is None or args.experiment == "serve":
        parser.error("an experiment is required unless --report is set")
    spec = _EXPERIMENTS[args.experiment](scale=args.scale, seed=args.seed)
    names = args.only or list(ALTERNATIVE_NAMES)

    registry = MetricsRegistry() if args.metrics is not None else None
    trace_file = None
    trace = None
    if args.trace is not None:
        trace_file = (sys.stdout if args.trace == "-"
                      else open(args.trace, "w", encoding="ascii"))
        trace = TraceSink(stream=trace_file)
    observing = registry is not None or trace is not None
    if observing and registry is None:
        registry = MetricsRegistry()

    scale_label = "smoke" if args.scale == 0 else f"1/{args.scale}"
    print(f"{spec.name}  scale={scale_label}")
    print(f"  reservoir: {spec.capacity:,} x {spec.record_size} B records"
          f"  buffer: {spec.buffer_capacity:,} records"
          f"  horizon: {spec.horizon_seconds / 3600:.2f} simulated hours")
    print()

    results = []
    snapshots = []
    for name in names:
        t0 = time.time()
        reservoir = spec.make(name)
        if observing:
            reservoir.instrument(registry, trace)
        result = run_until(reservoir, spec.horizon_seconds,
                           chunk_records=args.batch_size)
        print(f"  ran {name:<20} ({time.time() - t0:6.1f}s wall, "
              f"{result.final_samples:>16,} samples)")
        results.append(result)
        snapshots.append(reservoir.stats())
    print()
    print(throughput_table(results, spec.horizon_seconds))
    print(io_summary_table(results))
    if not args.no_chart:
        print(ascii_chart(results, spec.horizon_seconds))
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as sink:
            sink.write(to_csv(results))
        print(f"wrote {args.csv}")
    if args.metrics is not None:
        payload = {
            "experiment": spec.name,
            "scale": args.scale,
            "structures": [s.as_dict() for s in snapshots],
        }
        payload.update(registry.as_dict())
        if trace is not None:
            payload["trace_event_counts"] = trace.counts()
        text = json.dumps(payload, indent=2)
        if args.metrics == "-":
            print(text)
        else:
            with open(args.metrics, "w", encoding="ascii") as sink:
                sink.write(text)
                sink.write("\n")
            print(f"wrote {args.metrics}")
    if trace_file is not None and trace_file is not sys.stdout:
        trace_file.close()
        print(f"wrote {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
