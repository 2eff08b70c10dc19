"""The ``paper-t2`` workload: sequential ``DualIndexPlanner.query`` calls.

Every query has an interior slope outside S, so the planner runs the
paper's technique T2: one descent, the primary and secondary leaf
sweeps bounded by the handicaps, then refinement of every candidate.

The engine lives in a child process (this file run as a script), so the
peak RSS is that of the process that holds the engine. The parent
writes a job file, and checks the answers the child reports.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(ctx) -> dict:
    """Run the workload in a child process; returns raw measurements."""
    spec, wl = ctx.spec, ctx.workload
    job = {
        "seed": ctx.seed, "n": spec["n"], "extra": spec["extra_tuples"],
        "cache_dir": ctx.cache_dir, "k": spec["k"],
        "key_bytes": spec["key_bytes"],
        "repeats": 1 if ctx.trace else spec["setup_repeats"],
        "seconds": ctx.seconds,
        "queries": [[q.qtype, q.slope, q.intercept, q.theta]
                    for q in ctx.pool],
        "spans_out": (os.path.join(ctx.workdir, "spans.json")
                      if ctx.trace else None),
        "out": os.path.join(ctx.workdir, "t2-result.json"),
    }
    job_path = os.path.join(ctx.workdir, "t2-job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    subprocess.run([sys.executable, os.path.abspath(__file__), job_path],
                   env=ctx.env, check=True, timeout=170)
    with open(job["out"], encoding="utf-8") as fh:
        raw = json.load(fh)

    tally = ctx.tally
    tally.op({"ok": True, "ids": raw["first_ids"]}, ctx.expected[0])
    for index, _latency, ids in raw["reads"]:
        tally.op({"ok": True, "ids": ids}, ctx.expected[index])
    raw["read_latencies"] = [latency for _i, latency, _ids in raw["reads"]]
    if ctx.trace:
        raw["spans"] = job["spans_out"]
    return raw


def worker(job: dict) -> dict:
    from repro.core import DualIndexPlanner, HalfPlaneQuery, SlopeSet
    from repro.storage import Pager
    from repro.storage.serialize import encode_tuple

    from inputs import load_inputs
    from spans import CLOCK, peak_rss_mb

    inputs = load_inputs(job["seed"], job["n"], job["extra"],
                         job["cache_dir"])
    queries = [HalfPlaneQuery(*q) for q in job["queries"]]
    setups = []
    for _ in range(job["repeats"]):
        # Free the previous set-up's engine first, so the peak RSS is
        # that of one engine, not of two alive during a rebuild.
        planner = None
        gc.collect()
        relation = inputs.relation()
        start = CLOCK()
        planner = DualIndexPlanner.build(
            relation, SlopeSet.uniform_angles(job["k"]), pager=Pager(),
            key_bytes=job["key_bytes"], dynamic=True)
        first = planner.query(queries[0])
        setups.append(CLOCK() - start)
    out = {"setup_s": setups, "first_ids": sorted(first.ids)}

    reads = []
    position = 1

    def phase(seconds: float) -> tuple[float, float]:
        nonlocal position
        start = CLOCK()
        stop_at = start + seconds
        while CLOCK() < stop_at:
            index = position % len(queries)
            position += 1
            began = CLOCK()
            result = planner.query(queries[index])
            reads.append((index, CLOCK() - began, sorted(result.ids)))
        return start, CLOCK()

    recorder = None
    if job["spans_out"] is None:
        out["phase"] = phase(job["seconds"])
    else:
        import layers
        from spans import SpanRecorder

        first_half = phase(job["seconds"] / 2.0)
        out["untraced_qps"] = len(reads) / (first_half[1] - first_half[0])
        reads.clear()
        # The traced half replays the untraced half's queries, so the
        # overhead compares the same work.
        position = 1
        recorder = SpanRecorder()
        layers.install(recorder)
        out["phase"] = phase(job["seconds"] / 2.0)
    out["reads"] = reads

    out["window_end"] = CLOCK()
    if recorder is not None:
        recorder.dump(job["spans_out"])

    out["space_ratio"] = planner.index.pager.allocated_bytes / sum(
        len(encode_tuple(tid, inputs.tuple(tid))) for tid in range(inputs.n))
    out["peak_rss_mb"] = peak_rss_mb()
    return out


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    with open(sys.argv[1], encoding="utf-8") as fh:
        job_spec = json.load(fh)
    result = worker(job_spec)
    with open(job_spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
