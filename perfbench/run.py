"""End-to-end benchmark of the served sample.

Run from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

``--workload`` is ``ingest`` or ``engine`` (see ``perfbench/README.md``
for why each exists).  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` is the separate traced run that
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(each ``{"value", "unit"}``).  The lines before it are a readable table
and a ``meta`` line (host core count, Python and numpy versions, seed,
and the IPC transport the service actually used).  A run whose
correctness checks find any violation prints it and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from common import (
    END_TO_END,
    PER_LAYER,
    READS,
    WORK,
    WORKLOADS,
    EngineScale,
    ServedScale,
    median,
    metric_block,
    require_source,
    stream_records,
)


def served_layers(raw: dict, seed: int, scale: ServedScale) -> dict:
    from layers import (
        codec_metrics,
        counter_metrics,
        shard_replay,
        span_metrics,
        zero_layers,
    )

    phase, untraced, load = raw["phase"], raw["untraced"], raw["load"]
    values = zero_layers()
    values.update(span_metrics(phase.spans, raw["server_spans"]))
    values.update(counter_metrics(raw["mark0"], raw["mark1"], phase,
                                  raw["done"]))
    values["client.retries"] = phase.retries + untraced.retries
    values["trace.overhead_ms"] = (
        median(phase.ops["offer_batch"].latencies)
        - median(untraced.ops["offer_batch"].latencies)) * 1e3
    streams = [(s, load.offered.counts[s] // load.batch_sizes[s],
                load.batch_sizes[s])
               for s in sorted(load.offered.counts) if s != 0]
    batches = [stream_records(seed, s, i, n)
               for s, count, n in streams[-1:] for i in range(min(count, 8))]
    values.update(codec_metrics(batches, batches[0][:scale.sample_k]))
    values.update(shard_replay(seed, scale, streams, scale.replay_messages,
                               scale.sample_k))
    return values


def engine_layers(raw: dict, seed: int, scale: EngineScale) -> dict:
    from engine import ENGINE_STREAM
    from layers import (
        codec_metrics,
        engine_layer_metrics,
        shard_replay,
        stats_counts,
        zero_layers,
    )

    traced, untraced = raw["passes"][0], raw["untraced"]
    values = zero_layers()
    values.update(engine_layer_metrics(
        traced["latencies"], traced["flushed"],
        stats_counts(traced["stats"]),
        [scale.batch] * len(traced["latencies"])))
    values["engine.sample_ms"] = median(raw["samples"]) * 1e3
    values["trace.client_wall_s"] = traced["wall"]
    values["trace.overhead_ms"] = (median(traced["latencies"])
                                   - median(untraced["latencies"])) * 1e3
    batches = [batch.to_records() for batch in raw["batches"][:4]]
    values.update(codec_metrics(batches, batches[0][:scale.served.sample_k]))
    replay = shard_replay(seed, scale.served,
                          [(ENGINE_STREAM, scale.pass_batches, scale.batch)],
                          scale.replay_messages, scale.served.sample_k)
    values.update({name: value for name, value in replay.items()
                   if name.startswith("checkpoint.")})
    return values


def write_trace(raw: dict, name: str) -> str:
    """Keep the run's spans (client and server) under ``.perfbench/``."""
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    path = traces / f"{name}.jsonl"
    with open(path, "w", encoding="ascii") as sink:
        for span in raw["phase"].spans:
            sink.write(json.dumps({"side": "client", "span": span}) + "\n")
        for span in raw["server_spans"]:
            sink.write(json.dumps({"side": "server", "span": span}) + "\n")
    return str(path)


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            served_scale: ServedScale = ServedScale(),
            engine_scale: EngineScale = EngineScale()) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run metadata)."""
    import numpy

    meta = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}
    if workload == "engine":
        from engine import engine_counts, engine_metrics, run_engine

        raw = run_engine(seed, seconds, scale=engine_scale, trace=trace)
        values = engine_metrics(raw)
        counts = engine_counts(raw)
        problems = [text for _, texts in raw["checks"] for text in texts]
        meta["transport"] = "none (in-process engine)"
        meta["sim_clock_s"] = raw["passes"][0]["stats"].clock
        meta["passes"] = len(raw["passes"])
    else:
        from served import problems as served_problems
        from served import run_served, served_counts, served_metrics

        raw = run_served(seed, seconds, scale=served_scale, trace=trace)
        values = served_metrics(raw)
        counts = served_counts(raw)
        problems = served_problems(raw)
        meta["transport"] = raw["mark1"]["ipc"]["transport"]
        meta["chi_square"] = raw["final"]["chi_square"]
    attempted = sum(c["attempted"] for op, c in counts.items()
                    if op != "retries")
    failed = sum(c["failed"] for op, c in counts.items() if op != "retries")
    values["ok_share"] = 1.0 - failed / attempted
    meta["ops"] = {op: (c if op == "retries" else
                        {"attempted": c["attempted"], "failed": c["failed"],
                         "errors": dict(c.get("errors", {}))})
                   for op, c in counts.items()}
    meta["problems"] = problems[:20]
    reads = {name: values[name] for name in READS}
    if trace:
        if workload == "engine":
            values = engine_layers(raw, seed, engine_scale)
        else:
            values = served_layers(raw, seed, served_scale)
            meta["trace_file"] = write_trace(
                raw, f"{workload}-seed{seed}")
        values.update({f"client.{name}": value
                       for name, value in reads.items()})
        registry = PER_LAYER
    else:
        meta["reads"] = metric_block(reads, READS)
        registry = END_TO_END
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metric_block(values, registry)}
    return result, meta


def render(result: dict, meta: dict) -> str:
    lines = [f"perfbench {meta['workload']} seed={meta['seed']} "
             f"trace={meta['trace']} ({WORKLOADS[meta['workload']]})"]
    rows = list(result["metrics"].items())
    rows += [(f"{name} (no bound)", entry)
             for name, entry in meta.get("reads", {}).items()]
    for name, entry in rows:
        lines.append(f"  {name:<36} {entry['value']:>14.4f} {entry['unit']}")
    lines.append(f"  ops attempted {result['attempted']}, failed "
                 f"{result['failed']}, correct {result['correct']}")
    for problem in meta["problems"]:
        lines.append(f"  problem: {problem}")
    lines.append("meta " + json.dumps(meta, sort_keys=True, default=str))
    return "\n".join(lines)


def main(argv=None, **scales) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the served sample.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    require_source()
    started = time.perf_counter()
    result, meta = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace), **scales)
    meta["run_wall_s"] = time.perf_counter() - started
    print(render(result, meta), flush=True)
    if not result["correct"]:
        # A wrong answer fails the run outright; counted as one failed
        # op among hundreds it would hide inside ok_share's bound.
        sys.stderr.write("perfbench: correctness check failed (see the "
                         "problem lines); no result\n")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
