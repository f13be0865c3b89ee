"""The served workload, ``ingest``, from the client side.

One process, one asyncio thread, ``shards`` (= ``nproc`` on the
reference host) TCP sessions through ``AsyncServeClient``.  The server
runs in its own process (``server.py``), so client encoding never
shares an interpreter lock with the system under test.

A run: launch the server ``setups`` times (``setup_s`` is the median
launch-to-ready time, ``sim_rps`` the prefill's records per simulated
second; all but the last launch are stopped at once), measure for the run's seconds, check the answers, stop the server, and
reopen its directory ``reopenings`` times (``restore_s``, median of
launch to first answered ``sample``).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field

from checks import (
    check_identical,
    check_sample,
    check_seen,
    chi_square_uniform,
)
from common import (
    ROOT,
    SRC,
    WORK,
    OfferedKeys,
    ServedScale,
    median,
    percentile,
    stream_records,
)

#: Seconds to wait for any one line from the server process.
SERVER_REPLY_TIMEOUT = 120.0


class ServerProcess:
    """``server.py`` in a child process of its own session."""

    def __init__(self, root: str, seed: int, scale: ServedScale, *,
                 restore: bool = False, spans_path: str = "") -> None:
        command = [sys.executable, str(ROOT / "perfbench" / "server.py"),
                   "--root", root, "--seed", str(seed),
                   "--scale", json.dumps(asdict(scale))]
        if restore:
            command.append("--restore")
        if spans_path:
            command += ["--trace", spans_path]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=env, start_new_session=True)
        try:
            ready = self.expect("READY")
        except BaseException:
            self.kill()
            raise
        self.ready = time.perf_counter()
        self.port = ready["port"]
        self.prefill = ready["prefill"]

    @property
    def setup_s(self) -> float:
        return self.ready - self.started

    def expect(self, tag: str) -> dict:
        """The JSON payload of the server's next line, which must be ``tag``."""
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    SERVER_REPLY_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith(tag + " "):
            raise RuntimeError(f"server sent {line!r}, expected {tag}")
        return json.loads(line[len(tag) + 1:])

    def command(self, text: str, reply: str | None = None) -> dict | None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.expect(reply) if reply else None

    def stop(self) -> dict:
        """Drain, close, and wait; returns the ``DONE`` payload."""
        try:
            done = self.command("STOP", "DONE")
            self.proc.stdin.close()
            self.proc.wait(timeout=SERVER_REPLY_TIMEOUT)
            return done
        finally:
            self.kill()

    def kill(self) -> None:
        """Last resort: kill the server and its workers, then reap."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                try:
                    stream.close()
                except BrokenPipeError:
                    pass


@dataclass
class OpLog:
    """Latencies (``inf`` = failed or refused) and counts for one op."""

    latencies: list = field(default_factory=list)
    failed: int = 0
    errors: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ok(self, seconds: float) -> None:
        self.latencies.append(seconds)

    def fail(self, code: str) -> None:
        self.latencies.append(math.inf)
        self.failed += 1
        self.errors[code] += 1


@dataclass
class Phase:
    """Everything the client saw during one measured phase."""

    ops: dict = field(default_factory=lambda: {
        op: OpLog() for op in ("offer_batch", "sample")})
    acked: int = 0
    wall: float = 0.0
    sample_wall: float = 0.0
    spans: list = field(default_factory=list)   # (session, op, start, end)
    problems: list = field(default_factory=list)
    bad_answers: int = 0
    retries: int = 0


class Load:
    """Per-run client state shared by the sessions of every phase."""

    def __init__(self, seed: int, scale: ServedScale) -> None:
        self.seed = seed
        self.scale = scale
        self.port = 0
        self.offered = OfferedKeys(seed)
        self.offered.add(0, scale.prefill // scale.prefill_batch
                         * scale.prefill_batch)
        self.acked = self.offered.total
        self.next_stream = 1
        self.batch_sizes = {0: scale.prefill_batch}

    async def connect(self):
        from repro.serve import AsyncServeClient

        client = await AsyncServeClient.connect("127.0.0.1", self.port)
        session = (await client.hello())["session"]
        return client, session

    async def call(self, phase: Phase, session: int, op: str, coro):
        """Await one request; log its latency."""
        from repro.serve import ServeError

        start = time.perf_counter()
        try:
            result = await coro
        except ServeError as exc:
            phase.ops[op].fail(exc.code)
            return None
        end = time.perf_counter()
        phase.ops[op].ok(end - start)
        phase.spans.append((session, op, start, end))
        return result

    async def offer(self, phase, client, session, stream, index, n) -> bool:
        records = stream_records(self.seed, stream, index, n)
        # Marked offered before sending: a later sample may include the
        # batch even if the ack never arrives.
        self.offered.counts[stream] = max(self.offered.counts.get(stream, 0),
                                          (index + 1) * n)
        admitted = await self.call(phase, session, "offer_batch",
                                   client.offer_batch(records))
        if admitted is None:
            return False
        phase.acked += n
        self.acked += n
        return True

    async def sample(self, phase, client, session, k: int) -> None:
        records = await self.call(phase, session, "sample", client.sample(k))
        if records is not None:
            problems = check_sample([r.key for r in records], k, self.offered)
            if problems:
                phase.bad_answers += 1
                phase.problems += problems

    def stream(self, batch: int) -> int:
        stream = self.next_stream
        self.next_stream += 1
        self.batch_sizes[stream] = batch
        return stream

    # -- workloads ----------------------------------------------------------

    async def closed_writer(self, phase, client, session, deadline):
        n = self.scale.ingest_batch
        stream, index = self.stream(n), 0
        while time.perf_counter() < deadline:
            if await self.offer(phase, client, session, stream, index, n):
                index += 1

    async def sample_probe(self, phase: Phase, count: int) -> None:
        """Closed-loop ``sample(k)`` on the settled, prefilled service:
        the workload's sample figures.  ``stats()`` first waits out
        any queued shard work."""
        client, session = await self.connect()
        try:
            await client.stats()
            start = time.perf_counter()
            for _ in range(count):
                await self.sample(phase, client, session, self.scale.sample_k)
            phase.sample_wall += time.perf_counter() - start
            phase.retries += client.retries
        finally:
            await client.close()

    async def run_phase(self, seconds: float, probe: int = 0) -> Phase:
        phase = Phase()
        if probe:
            await self.sample_probe(phase, probe)
        sessions = [await self.connect() for _ in range(self.scale.shards)]
        start = time.perf_counter()
        deadline = start + seconds
        await asyncio.gather(*[self.closed_writer(phase, c, s, deadline)
                               for c, s in sessions])
        phase.wall = time.perf_counter() - start
        for client, _ in sessions:
            phase.retries += client.retries
            await client.close()
        return phase

    async def verify(self) -> tuple[list, dict]:
        """Zero-loss and chi-square checks on the final service; returns
        ``[(check, problems)]`` and the figures behind them."""
        client, _ = await self.connect()
        try:
            stats = await client.stats()
            records = await client.sample(self.scale.chi_k)
        finally:
            await client.close()
        keys = [r.key for r in records]
        chi2, uniform = chi_square_uniform(keys, self.offered)
        checks = [
            ("zero loss", check_seen(stats.seen, self.acked, "after the run")),
            ("chi-square sample",
             check_sample(keys, self.scale.chi_k, self.offered)),
            ("chi-square", uniform),
        ]
        return checks, {"seen": stats.seen, "chi_square": chi2}


async def first_sample(port: int, k: int):
    """Connect, ``sample(k)``, then ``stats()``; returns both answers and
    the time the sample was answered."""
    from repro.serve import AsyncServeClient

    client = await AsyncServeClient.connect("127.0.0.1", port)
    try:
        records = await client.sample(k)
        answered = time.perf_counter()
        stats = await client.stats()
    finally:
        await client.close()
    return records, answered, stats


def run_served(seed: int, seconds: float, *,
               scale: ServedScale = ServedScale(), trace: bool = False
               ) -> dict:
    """One run of ``ingest``; returns raw measurements."""
    work = WORK / f"run-{os.getpid()}-ingest-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    server = None
    load = Load(seed, scale)
    # The sample probe: a share after every launch, so it reads the
    # same settled state at several moments of the run.
    probe = scale.probe_samples // scale.setups
    try:
        setups, prefills = [], []
        result = {"setups": setups, "prefills": prefills, "probe": Phase()}
        for attempt in range(scale.setups):
            root = str(work / f"service-{attempt}")
            spans_path = str(work / "server-spans.jsonl") if trace else ""
            server = ServerProcess(root, seed, scale, spans_path=spans_path)
            setups.append(server.setup_s)
            prefills.append(server.prefill)
            load.port = server.port
            if probe and not trace:
                asyncio.run(load.sample_probe(result["probe"], probe))
            if attempt < scale.setups - 1:
                server.stop()
                shutil.rmtree(root, ignore_errors=True)
                server = None
        if trace:
            # Phase A untraced, phase B traced: the difference between
            # their latencies is the tracing overhead.
            result["untraced"] = asyncio.run(load.run_phase(seconds / 2,
                                                            probe))
            server.command("TRACE 1")
            result["mark0"] = server.command("MARK", "MARK")
            result["phase"] = asyncio.run(load.run_phase(seconds / 2,
                                                         probe))
            result["mark1"] = server.command("MARK", "MARK")
            server.command("TRACE 0")
        else:
            result["phase"] = asyncio.run(load.run_phase(seconds))
            result["mark1"] = server.command("MARK", "MARK")
        checks, result["final"] = asyncio.run(load.verify())
        checks.append(("identical prefill DiskStats and clock",
                       check_identical([json.dumps(p) for p in prefills],
                                       "prefill DiskStats and clock")))
        done = server.stop()
        server = None
        result["done"] = done
        if trace:
            from layers import load_spans

            result["server_spans"] = load_spans(done["spans"])
        result["restores"] = []
        for reopening in range(scale.reopenings):
            server = ServerProcess(root, seed, scale, restore=True)
            records, answered, stats = asyncio.run(
                first_sample(server.port, scale.sample_k))
            result["restores"].append(answered - server.started)
            checks += [
                (f"reopen {reopening} sample",
                 check_sample([r.key for r in records], scale.sample_k,
                              load.offered)),
                (f"reopen {reopening} zero loss",
                 check_seen(stats.seen, load.acked, "after reopening")),
            ]
            server.stop()
            server = None
        result["checks"] = checks
        result["load"] = load
        return result
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(work, ignore_errors=True)


def served_metrics(raw: dict) -> dict:
    """End-to-end metrics of one served run."""
    phase: Phase = raw["phase"]
    # The sample figures come from the probe after each launch (traced
    # runs probe inside each phase instead).
    reads = raw["probe"] if raw["probe"].sample_wall else phase
    offers, samples = phase.ops["offer_batch"], reads.ops["sample"]
    # Simulated throughput of the prefill: a fixed, seeded record count
    # through the real stack, so the figure does not move with how many
    # records the measured phase happened to acknowledge.
    prefill = raw["prefills"][0]

    def ms(latencies, q):
        return percentile(latencies, q, beyond=phase.wall) * 1e3

    return {
        "setup_s": median(raw["setups"]),
        "ingest_rps": phase.acked / phase.wall,
        "offer_p50_ms": ms(offers.latencies, 0.50),
        "offer_p95_ms": ms(offers.latencies, 0.95),
        "sample_qps": samples.attempted / reads.sample_wall,
        "sample_p50_ms": ms(samples.latencies, 0.50),
        "sample_p95_ms": ms(samples.latencies, 0.95),
        "sim_rps": prefill["seen"] / prefill["clock"],
        "restore_s": median(raw["restores"]),
        "rss_mb": raw["done"]["rss_mb"],
    }


def all_phases(raw: dict) -> list[Phase]:
    return [raw[key] for key in ("phase", "untraced", "probe") if key in raw]


def served_counts(raw: dict) -> dict:
    """Attempted and failed operations per op type, over every phase.

    A request refused or failed after the client's retries, a wrong
    ``sample`` answer, and a failed whole-run check each count once.
    """
    counts: dict = {}
    for phase in all_phases(raw):
        for op, log in phase.ops.items():
            entry = counts.setdefault(op, {"attempted": 0, "failed": 0,
                                           "errors": Counter()})
            entry["attempted"] += log.attempted
            entry["failed"] += log.failed
            entry["errors"].update(log.errors)
        if phase.bad_answers:
            counts["sample"]["failed"] += phase.bad_answers
            counts["sample"]["errors"]["wrong answer"] += phase.bad_answers
    counts["checks"] = {
        "attempted": len(raw["checks"]),
        "failed": sum(1 for _, problems in raw["checks"] if problems),
        "errors": Counter(name for name, problems in raw["checks"]
                          if problems),
    }
    counts["retries"] = sum(p.retries for p in all_phases(raw))
    return counts


def problems(raw: dict) -> list[str]:
    """Every correctness violation the run found, as text."""
    found = [text for phase in all_phases(raw) for text in phase.problems]
    return found + [text for _, texts in raw["checks"] for text in texts]
