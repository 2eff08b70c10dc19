"""The repository's benchmark: one workload per run, every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is taken from ``src/`` of
that checkout; the workloads and their parameters are in
``perfbench/spec.json``. Inputs are generated from ``--seed`` (cached
under ``perfbench/.cache``) and never timed.

Every answer the program gives is checked (see ``checks.py``). With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer metrics of a traced run. Readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark's own tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import signal
import statistics
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Environment switches that would change the engine the program builds
#: (file-backed default pagers, the scalar B+-tree path). The benchmark
#: measures the default configuration.
ENGINE_SWITCHES = ("REPRO_DATA_DIR", "REPRO_SCALAR", "REPRO_FULL")


def load_json(name: str):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def build_context(spec: dict, wl: dict, args) -> SimpleNamespace:
    from repro.constraints.theta import Theta
    from repro.core import SlopeSet
    from repro.geometry.predicates import evaluate_relation

    import inputs as gen
    from checks import Tally

    cache_dir = os.path.join(HERE, ".cache")
    data = gen.load_inputs(args.seed, spec["n"], spec["extra_tuples"],
                           cache_dir)
    rng = random.Random(f"{args.seed}:{wl['name']}")
    oracle = data.oracle()
    sel = tuple(spec["selectivity"])
    slopes = list(SlopeSet.uniform_angles(spec["k"]))
    if wl["name"] == "read-exact":
        pool = gen.exact_pool(rng, oracle, wl["pool"], slopes, sel)
        order = gen.zipf_sequence(rng, len(pool), wl["sequence"],
                                  wl["zipf_exponent"])
    elif wl["name"] == "paper-t2":
        pool = gen.interior_pool(rng, oracle, wl["pool"], slopes,
                                 wl["shrink"], sel)
        order = list(range(len(pool)))
    else:
        pool = gen.distinct_pool(rng, oracle, wl["pool"], sel)
        order = list(range(len(pool)))
    # Writes are spread evenly through the operation stream (one in
    # every 1/write_share operations, from a seeded offset): bursts of
    # writes would make the number of surface rebuilds per run, and so
    # every read metric, vary from run to run.
    every = round(1.0 / wl["write_share"]) if wl.get("write_share") else 0
    offset = rng.randrange(every) if every else 0
    is_write = [bool(every) and (i + offset) % every == 0
                for i in range(len(order))]
    expected = [oracle.answer(q) for q in pool]

    tally = Tally()
    relation = data.relation()
    for i in rng.sample(range(len(pool)), spec["oracle_sample"]):
        q = pool[i]
        reference = sorted(evaluate_relation(
            relation, q.qtype, q.slope, q.intercept, Theta(q.theta)))
        tally.check(f"vertex oracle disagrees with evaluate_relation "
                    f"for {q}", reference == expected[i])

    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in ENGINE_SWITCHES}
    env["PYTHONPATH"] = SRC
    return SimpleNamespace(
        spec=spec, workload=wl, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), inputs=data, cache_dir=cache_dir, rng=rng,
        pool=pool, order=order, is_write=is_write, expected=expected,
        tally=tally, workdir=workdir, env=env,
        serve_args=list(spec["serve_args"]))


def end_to_end(raw: dict) -> dict[str, float]:
    reads = raw["read_latencies"]
    start, end = raw["phase"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "read_qps": len(reads) / (end - start),
        "read_p50_ms": statistics.median(reads) * 1e3,
        "peak_rss_mb": raw["peak_rss_mb"],
        "space_ratio": raw["space_ratio"],
    }


def per_layer(raw: dict) -> dict[str, float]:
    import layers
    from spans import load_spans

    start, end = raw["phase"]
    hits, misses = raw.get("cache", (0, 0))
    out = layers.layer_metrics(load_spans(raw["spans"]), start,
                               raw["window_end"], hits, misses)
    traced_qps = len(raw["read_latencies"]) / (end - start)
    out["trace.overhead"] = 1.0 - traced_qps / raw["untraced_qps"]
    return out


def summary(wl: dict, seed: int, tally, raw: dict,
            metrics: dict[str, float], units: dict[str, str]) -> list[str]:
    """Readable lines: the gate's counts, then latencies that are printed
    but not gated (see spec.json), then every reported metric."""
    from spans import nearest_rank

    lines = [f"{wl['name']} seed={seed}: {tally.attempted} operations, "
             f"{tally.failed} failed ({tally.refused} refused, "
             f"{tally.wrong} wrong), failed_frac {tally.failed_frac:.6f}"]
    for failure in tally.check_failures:
        lines.append(f"  CHECK FAILED: {failure}")
    tails = {("read", 99), ("read", wl["tail_percentile"])} - {("read", 50)}
    if raw.get("write_latencies"):
        tails |= {("write", 50), ("write", 90)}
    for kind, pct in sorted(tails):
        samples = raw[f"{kind}_latencies"]
        value, beyond = nearest_rank(samples, pct)
        lines.append(f"  {kind}_p{pct}_ms {value * 1e3:.4f} ms (not gated; "
                     f"{len(samples)} samples, {beyond} beyond)")
    for key, value in metrics.items():
        lines.append(f"  {key} {value:.6g} {units[key]}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program at {SRC}/repro; run this from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    # A terminated run still stops the processes it started: SIGTERM
    # unwinds through the same finally blocks as an error.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    for key in ENGINE_SWITCHES:
        os.environ.pop(key, None)
    sys.path[:0] = [HERE, SRC]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"{SRC}", file=sys.stderr)
        return 2

    spec = load_json("spec.json")
    bench = load_json(os.path.join("..", "BENCHMARK.json"))
    workloads = {wl["name"]: wl for wl in spec["workloads"]}
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; expected one "
                     f"of {', '.join(workloads)}")
    wl = workloads[args.workload]
    ctx = build_context(spec, wl, args)
    # The inputs live as long as the run: keep them out of the load
    # generator's garbage collections, whose pauses would land in the
    # measured latencies.
    gc.freeze()
    try:
        if wl["kind"] == "served":
            import served
            raw = served.run(ctx)
        else:
            import paper_t2
            raw = paper_t2.run(ctx)
        if args.trace:
            metrics = per_layer(raw)
            listed = bench["per_layer"]
        else:
            metrics = end_to_end(raw)
            listed = bench["end_to_end"]
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in listed}
    metrics = {name: metrics[name] for name in units}
    for line in summary(wl, args.seed, ctx.tally, raw, metrics, units):
        print(line)
    print(json.dumps({
        "correct": ctx.tally.correct,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
