"""Served workloads: one ``repro serve`` process, one load generator.

The server runs in its own process, started through
``serve_launcher.py``. This process builds and saves the engine, starts
the server, and then generates the load: at most two connections, a
closed loop with a fixed number of requests in flight, each request
timed on the client from send to decoded reply.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import signal
import subprocess
import sys
import time

from repro.constraints.theta import Theta
from repro.core import DualIndexPlanner, SlopeSet
from repro.errors import ProtocolError
from repro.geometry.predicates import evaluate_relation
from repro.serve.client import ReproClient, SyncReproClient
from repro.storage import Pager
from repro.storage.checkpoint import open_engine, save_planner
from repro.storage.serialize import encode_tuple

from checks import Ledger
from spans import CLOCK, peak_rss_mb

HOST = "127.0.0.1"
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "serve_launcher.py")
CONNECTION_ERRORS = (ConnectionError, OSError, ProtocolError)


class ServerProcess:
    """``repro serve`` on a data directory, in a child process."""

    def __init__(self, data_dir: str, serve_args: list[str], log_path: str,
                 env: dict, spans_out: str | None = None) -> None:
        argv = [sys.executable, LAUNCHER]
        if spans_out is not None:
            argv += ["--spans-out", spans_out]
        argv += ["--data-dir", data_dir, "--host", HOST, "--port", "0",
                 *serve_args]
        self.data_dir = data_dir
        self.log_path = log_path
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(argv, stdout=self._log,
                                     stderr=subprocess.STDOUT, env=env)
        self.port = self._await_port(timeout=120.0)

    def _await_port(self, timeout: float) -> int:
        deadline = CLOCK() + timeout
        while CLOCK() < deadline:
            with open(self.log_path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("serving "):
                        return int(line.split()[3].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            # The server prints one line once it listens.
            time.sleep(0.01)
        self.stop()
        with open(self.log_path, encoding="utf-8") as fh:
            raise RuntimeError(f"server did not start:\n{fh.read()}")

    def stop(self) -> None:
        """Graceful SIGTERM (the server drains and, when traced, writes
        its spans); SIGKILL if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(120)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def build_and_serve(ctx, label: str):
    """One set-up: build, save, start the server, answer the first read.

    Returns ``(server, seconds)``. The clock starts when the generated
    relation is handed to the program and stops when the first read's
    reply is decoded.
    """
    relation = ctx.inputs.relation()
    data_dir = os.path.join(ctx.workdir, f"engine-{label}")
    start = CLOCK()
    planner = DualIndexPlanner.build(
        relation, SlopeSet.uniform_angles(ctx.spec["k"]), pager=Pager(),
        key_bytes=ctx.spec["key_bytes"], dynamic=True)
    save_planner(planner, data_dir)
    server = ServerProcess(
        data_dir, ctx.serve_args, os.path.join(ctx.workdir, f"{label}.log"),
        ctx.env)
    try:
        response = request(server.port, ctx.pool[0].request())
    except BaseException:
        server.stop()
        raise
    elapsed = CLOCK() - start
    ctx.tally.op(response, ctx.expected[0])
    return server, elapsed


def restart(ctx, server: ServerProcess, label: str,
            spans_out: str | None) -> ServerProcess:
    """Stop ``server`` and serve its data directory again."""
    server.stop()
    return ServerProcess(
        server.data_dir, ctx.serve_args,
        os.path.join(ctx.workdir, f"{label}.log"), ctx.env, spans_out)


class Reads:
    """Closed-loop reads from a pool, in a fixed order.

    With ``expected`` every reply is checked against it; the read-write
    workload passes None, because a read may overlap a write.
    """

    def __init__(self, ctx, order: list[int], expected) -> None:
        self.ctx = ctx
        self.order = order
        self.expected = expected
        self.requests = [q.request() for q in ctx.pool]
        self.pos = 0
        self.read_latencies: list[float] = []
        self.write_latencies: list[float] = []

    def reset(self) -> None:
        self.read_latencies = []
        self.write_latencies = []

    async def step(self, client: ReproClient) -> None:
        index = self.order[self.pos % len(self.order)]
        self.pos += 1
        start = CLOCK()
        try:
            response = await client.request(self.requests[index])
        except CONNECTION_ERRORS:
            response = None
        elapsed = CLOCK() - start
        expected = self.expected[index] if self.expected else None
        if self.ctx.tally.op(response, expected):
            self.read_latencies.append(elapsed)


class ReadsWithWrites(Reads):
    """:class:`Reads` with every ``1/write_share``-th operation a
    :func:`durable_write`."""

    def __init__(self, ctx, order, is_write: list[bool],
                 ledger: Ledger) -> None:
        super().__init__(ctx, order, None)
        self.is_write = is_write
        self.ledger = ledger
        self.writes = 0
        self.step_no = 0

    async def step(self, client: ReproClient) -> None:
        write = self.is_write[self.step_no % len(self.is_write)]
        self.step_no += 1
        if not write:
            await super().step(client)
            return
        elapsed = await durable_write(self.ctx, client, self.ledger,
                                      prefer_delete=self.writes % 2 == 1)
        self.writes += 1
        if elapsed is not None:
            self.write_latencies.append(elapsed)


async def durable_write(ctx, client: ReproClient, ledger: Ledger,
                        prefer_delete: bool) -> float | None:
    """One write: an insert of a fresh tuple or a delete of an earlier
    insert, then a ``commit`` on the same connection. Returns its
    latency, to the commit's reply, or None when it failed."""
    op, tid = ledger.next_write(prefer_delete)
    start = CLOCK()
    try:
        response = await client.request(write_request(ctx, op, tid))
        if response.get("ok"):
            ledger.acknowledged(op, tid)
            response = await client.request({"op": "commit"})
    except CONNECTION_ERRORS:
        response = None
    elapsed = CLOCK() - start
    return elapsed if ctx.tally.op(response) else None


def request(port: int, envelope: dict) -> dict:
    """One request on a short-lived connection."""
    client = SyncReproClient(HOST, port)
    try:
        return client.request(envelope)
    finally:
        client.close()


def write_request(ctx, op: str, tid: int) -> dict:
    if op == "insert":
        return {"op": "insert", "tid": tid,
                "tuple": ctx.inputs.wire_tuple(tid)}
    return {"op": "delete", "tid": tid}


async def closed_loop(port: int, ops: Reads, connections: int,
                      in_flight: int, seconds: float) -> tuple[float, float]:
    """``in_flight`` workers spread over ``connections`` pipelined
    connections, each sending its next request when the last returns,
    until ``seconds`` have passed. Returns the loop's start and end."""
    clients = [await ReproClient.connect(HOST, port)
               for _ in range(connections)]
    try:
        start = CLOCK()
        stop_at = start + seconds

        async def worker(client):
            while CLOCK() < stop_at:
                await ops.step(client)

        await asyncio.gather(*(worker(clients[i % connections])
                               for i in range(in_flight)))
        return start, CLOCK()
    finally:
        for client in clients:
            await client.close()


def ledger_check(ctx, port: int, ledger: Ledger, rng: random.Random) -> None:
    """Served answers on a sample of the pool must equal the answers
    over the ledger's relation; the vertex oracle that computes those is
    itself checked against ``evaluate_relation``."""
    live = sorted(ledger.live)
    oracle = ctx.inputs.oracle(live)
    sample = rng.sample(range(len(ctx.pool)), ctx.spec["check_queries"])
    expected = [oracle.answer(ctx.pool[i]) for i in sample]
    client = SyncReproClient(HOST, port)
    try:
        for i, want in zip(sample, expected):
            try:
                response = client.request(ctx.pool[i].request())
            except CONNECTION_ERRORS:
                response = None
            ctx.tally.op(response, want)
    finally:
        client.close()
    relation = ctx.inputs.relation(live)
    for i, want in list(zip(sample, expected))[:ctx.spec["oracle_sample"]]:
        q = ctx.pool[i]
        reference = sorted(evaluate_relation(
            relation, q.qtype, q.slope, q.intercept, Theta(q.theta)))
        ctx.tally.check(f"vertex oracle disagrees with evaluate_relation "
                        f"on the ledger relation for {q}", reference == want)


def space_ratio(ctx, data_dir: str, live) -> float:
    """Engine page bytes over encoded user-tuple bytes, from the data
    directory as the stopped server left it."""
    engine = open_engine(data_dir)
    try:
        pages = engine.index.pager.allocated_bytes
    finally:
        engine.index.pager.disk.close()
    user = sum(len(encode_tuple(tid, ctx.inputs.tuple(tid))) for tid in live)
    return pages / user


def run(ctx) -> dict:
    """One served workload; returns the raw measurements."""
    wl = ctx.workload
    ledger = Ledger(range(ctx.inputs.n), ctx.inputs.extra_tids)
    if wl["name"] == "read-write":
        ops = ReadsWithWrites(ctx, ctx.order, ctx.is_write, ledger)
    else:
        ops = Reads(ctx, ctx.order, ctx.expected)
    repeats = 1 if ctx.trace else ctx.spec["setup_repeats"]
    setups = []
    for r in range(repeats):
        server, elapsed = build_and_serve(ctx, f"setup-{r}")
        setups.append(elapsed)
        if r < repeats - 1:
            server.stop()
            shutil.rmtree(server.data_dir)
    loop = dict(connections=wl["connections"], in_flight=wl["in_flight"])
    out = {"setup_s": setups}
    try:
        if not ctx.trace:
            out["phase"] = asyncio.run(closed_loop(
                server.port, ops, seconds=ctx.seconds, **loop))
        else:
            # Both halves run on a freshly restarted server, so lazy
            # state rebuilt after a restart costs the same on each side.
            out["spans"] = os.path.join(ctx.workdir, "spans.json")
            qps = []
            for label, spans_out in (("untraced", None),
                                     ("traced", out["spans"])):
                ops.reset()
                server = restart(ctx, server, label, spans_out)
                ctx.tally.op(request(server.port, ctx.pool[0].request()),
                             None if wl["writes"] else ctx.expected[0])
                before = request(server.port, {"op": "stats"})
                out["phase"] = asyncio.run(closed_loop(
                    server.port, ops, seconds=ctx.seconds / 2.0, **loop))
                after = request(server.port, {"op": "stats"})
                start, end = out["phase"]
                qps.append(len(ops.read_latencies) / (end - start))
            out["untraced_qps"] = qps[0]
            out["cache"] = [
                after["metrics"]["counters"].get(key, 0)
                - before["metrics"]["counters"].get(key, 0)
                for key in ("exec_cache_hits", "exec_cache_misses")]
        out["window_end"] = CLOCK()
        ledger_check(ctx, server.port, ledger, ctx.rng)
        out["peak_rss_mb"] = peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    out["read_latencies"] = ops.read_latencies
    out["write_latencies"] = ops.write_latencies
    out["space_ratio"] = space_ratio(ctx, server.data_dir, ledger.live)
    return out
