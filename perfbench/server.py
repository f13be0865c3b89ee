"""The system under test, in its own process.

``python3 perfbench/server.py --root DIR --seed N --scale JSON`` builds
``ShardedReservoir(pool="process", ipc="shm")`` under ``DIR``, prefills
it to capacity from stream 0 of the seed (skipped with ``--restore``,
which reopens ``DIR``), serves it with ``ReservoirServer`` on an
ephemeral port, and prints ``READY {"port": ..., "prefill": ...}``
(``prefill`` is the service's ``seen``, simulated clock and
``DiskStats`` after the prefill, or null with ``--restore``).  It then
obeys one command per stdin line:

* ``MARK`` -- print ``MARK {...}``: the service's ``ipc_stats()`` and
  the server's pushback counters, for per-phase deltas;
* ``TRACE 1`` / ``TRACE 0`` -- start or stop recording spans
  (``--trace`` servers only);
* ``STOP`` (or end of input) -- drain the server, close the service,
  and print ``DONE {...}`` with peak memory and, for ``--trace``, the
  path of the span file.

With ``--trace`` the server records spans from outside the program:
``handle_frame`` and ``dispatch`` through a ``ReservoirServer``
subclass, and the sharded call through an engine proxy.  All three run
on the server's single executor thread, so a stack gives each span its
parent.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import astuple

from common import (
    ServedScale,
    descendants,
    require_source,
    stream_batch,
    vm_hwm_mib,
)


class SpanLog:
    """Spans kept in memory: (id, parent, name, start, end, session, op)."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self.journal_depth_max = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, session: int = 0, op: str = ""):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, start, end,
                                   session, op)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as sink:
            for span in self.spans:
                sink.write(json.dumps(span) + "\n")


class TimedEngine:
    """Engine proxy handed to the server: times each sharded call."""

    def __init__(self, engine, log: SpanLog) -> None:
        self._engine = engine
        self._log = log

    def _timed(self, name: str, method, *args):
        if not self._log.enabled:
            return method(*args)
        with self._log.span(name):
            return method(*args)

    def offer_batch(self, records):
        admitted = self._timed("sharded.offer_batch",
                               self._engine.offer_batch, records)
        if self._log.enabled:
            self._log.journal_depth_max = max(self._log.journal_depth_max,
                                              self._engine.journal_depth)
        return admitted

    def sample(self, k=None):
        return self._timed("sharded.sample", self._engine.sample, k)

    def stats(self):
        return self._timed("sharded.stats", self._engine.stats)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def traced_server_class():
    from repro.serve import ReservoirServer

    class TracedServer(ReservoirServer):
        """``ReservoirServer`` with spans around its two entry points."""

        def __init__(self, engine, config, log: SpanLog) -> None:
            super().__init__(engine, config)
            self.log = log

        def handle_frame(self, frame, session):
            if not self.log.enabled:
                return super().handle_frame(frame, session)
            with self.log.span("handle_frame", session.id):
                return super().handle_frame(frame, session)

        def dispatch(self, request, session):
            if not self.log.enabled:
                return super().dispatch(request, session)
            with self.log.span("dispatch", session.id, request.op):
                return super().dispatch(request, session)

    return TracedServer


def build_service(root: str, seed: int, scale: ServedScale, restore: bool):
    from repro.core.geometric_file import GeometricFileConfig
    from repro.service import ShardedReservoir
    from repro.storage.records import RecordSchema

    config = GeometricFileConfig(
        capacity=scale.capacity, buffer_capacity=scale.buffer,
        record_size=scale.record_size, retain_records=True,
        admission="uniform")
    service = ShardedReservoir(
        root, config, shards=scale.shards, pool="process", ipc="shm",
        checkpoint_batches=scale.checkpoint_batches, seed=seed)
    if not restore:
        schema = RecordSchema(scale.record_size)
        for index in range(scale.prefill // scale.prefill_batch):
            service.offer_batch(stream_batch(seed, 0, index,
                                             scale.prefill_batch, schema))
        service.checkpoint()
    return service


def counters(service, server) -> dict:
    return {
        "t": time.perf_counter(),
        "ipc": service.ipc_stats(),
        "busy": server.busy_rejections,
        "rate_limited": server.rate_limit_rejections,
        "backpressure_stalls": service.backpressure_stalls,
    }


def peak_rss_mib() -> float:
    """Peak resident MiB of this process plus every descendant."""
    return vm_hwm_mib() + sum(vm_hwm_mib(pid)
                              for pid in descendants(os.getpid()))


def prefill_stats(service) -> dict:
    """The service's counters after the prefill: a pure function of the
    seed, so every launch of one seed must report the same."""
    stats = service.stats()
    return {"seen": stats.seen, "clock": stats.clock,
            "io": list(astuple(stats.io))}


async def serve(server, service, log: SpanLog | None, spans_path: str,
                prefill: dict | None):
    await server.start()
    port = server.address[1]
    print("READY", json.dumps({"port": port, "prefill": prefill}),
          flush=True)
    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()

    def read_stdin() -> None:
        try:
            for line in sys.stdin:
                loop.call_soon_threadsafe(commands.put_nowait, line.strip())
            loop.call_soon_threadsafe(commands.put_nowait, "STOP")
        except RuntimeError:
            pass  # the loop already finished: nothing left to command

    threading.Thread(target=read_stdin, daemon=True).start()
    while True:
        command = await commands.get()
        if command == "MARK":
            print("MARK", json.dumps(counters(service, server)), flush=True)
        elif command.startswith("TRACE") and log is not None:
            log.enabled = command.endswith("1")
        elif command == "STOP":
            break
    rss = peak_rss_mib()
    await server.shutdown()
    done = {"rss_mb": rss}
    if log is not None:
        log.enabled = False
        log.write(spans_path)
        done["spans"] = spans_path
        done["journal_depth_max"] = log.journal_depth_max
    return done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="{}")
    parser.add_argument("--restore", action="store_true")
    parser.add_argument("--trace", default="")
    args = parser.parse_args(argv)
    require_source()
    from repro.serve import ReservoirServer, ServerConfig

    scale = ServedScale(**json.loads(args.scale))
    service = build_service(args.root, args.seed, scale, args.restore)
    try:
        prefill = None if args.restore else prefill_stats(service)
        if args.trace:
            log = SpanLog()
            server = traced_server_class()(TimedEngine(service, log),
                                           ServerConfig(), log)
        else:
            log = None
            server = ReservoirServer(service, ServerConfig())
        done = asyncio.run(serve(server, service, log, args.trace, prefill))
    finally:
        service.close()
    print("DONE", json.dumps(done), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
