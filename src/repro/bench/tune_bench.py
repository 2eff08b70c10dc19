"""Fixed-``S`` vs learned-``S`` ablation (``BENCH_tune.json``).

The adaptive-tuning measurement (ROADMAP item 4): the fig9-medium
relation answered under two traffic families — ``skewed`` (slopes
concentrated on a few preferred directions the build-time set did not
anticipate) and ``uniform`` (the distribution ``uniform_angles``
optimises for) — each on two engines:

* **fixed** — the build-time ``SlopeSet.uniform_angles(k)``;
* **learned** — the slope set ``repro.tune`` learns from a slope log
  recorded over that family's own traffic, rebuilt via
  :func:`repro.tune.rebuild_planner`.

Per (family, engine) cell the bench reports total page accesses, T1/T2
false-hit counts and rates, and cache-cold batch QPS. Guard rail
before any number is reported: per-query answers must be bit-identical
between the engines (a learned ``S`` changes cost, never answers);
any mismatch exits 1.

Expectation (Theorems 4.1/4.2): on skewed traffic the learned set
collapses the nearest-anchor distance, so page accesses and false hits
drop sharply; on uniform traffic both engines are within noise. The
``counters`` section feeds ``repro bench-diff --mode floor`` against
``benchmarks/baselines/tune.json`` — ``skew_page_reduction_pct`` is
the pinned CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench import harness
from repro.core import DualIndexPlanner, SlopeSet
from repro.exec import BatchExecutor
from repro.obs.slopelog import SlopeLog, logging_slopes
from repro.tune import learn_slopes, predicted_improvement, rebuild_planner
from repro.workloads import make_relation, skewed_queries, uniform_queries

#: The fig9-medium workload (Figure 9: medium objects, N=2000, k=3).
FIG9_N = 2000
FIG9_SIZE = "medium"
FIG9_K = 3

DEFAULT_OUT = "BENCH_tune.json"
#: Queries per family. The scalar T1/T2 path on a non-member slope
#: costs ~0.5 s/query at n=2000 (the cost the ablation exists to show),
#: so this is sized to keep the four cells under a few minutes.
DEFAULT_QUERIES = 120


def _measure(planner: DualIndexPlanner, queries, repeats: int):
    """Per-query T1/T2 sweep costs plus cache-cold batch timing.

    Page accesses, candidates and false hits come from the *scalar*
    planner path — the sweeps Theorems 4.1/4.2 price by nearest-anchor
    distance. (The batch executor would answer non-member slopes
    through the memoised vectorized surface, which hides exactly the
    cost this ablation measures.) QPS still times the batch executor,
    cache-less, because serving happens through it.
    """
    results = [planner.query(q) for q in queries]
    best = float("inf")
    for _ in range(repeats):
        executor = BatchExecutor(planner, cache_size=0)
        start = time.perf_counter()
        executor.execute(queries)
        best = min(best, time.perf_counter() - start)
    return best, results


def _engine_row(name: str, seconds: float, results, n_queries: int) -> dict:
    candidates = sum(r.candidates for r in results)
    false_hits = sum(r.false_hits for r in results)
    return {
        "engine": name,
        "batch_seconds": round(seconds, 6),
        "qps": round(n_queries / seconds, 1),
        "page_accesses": sum(r.page_accesses for r in results),
        "candidates": candidates,
        "false_hits": false_hits,
        "false_hit_rate": round(false_hits / max(candidates, 1), 4),
    }


def run_bench(queries_per_family: int, repeats: int) -> dict:
    """Run the four (family × engine) cells; returns the artifact."""
    n, size, k, seed = FIG9_N, FIG9_SIZE, FIG9_K, harness.SEED
    relation = make_relation(n, size, seed=seed)
    fixed_slopes = SlopeSet.uniform_angles(k)
    families = {
        "skewed": skewed_queries(relation, queries_per_family, seed=seed),
        "uniform": uniform_queries(relation, queries_per_family, seed=seed),
    }
    payload: dict = {
        "workload": {
            "figure": "9 (medium objects)",
            "n": n,
            "size": size,
            "k": k,
            "seed": seed,
            "queries_per_family": queries_per_family,
            "repeats": repeats,
            "fixed_slopes": [round(s, 6) for s in fixed_slopes],
        },
        "families": {},
        "answers_identical": True,
    }
    counters: dict[str, float] = {}
    for family, queries in families.items():
        fixed = DualIndexPlanner.build(relation, fixed_slopes)
        # Learn S from a slope log recorded over this family's traffic
        # (one untimed observation pass — production would drain the
        # serve layer's log instead).
        log = SlopeLog(capacity=4096, seed=seed)
        with logging_slopes(log):
            BatchExecutor(fixed, cache_size=0).execute(queries)
        snapshot = log.snapshot()
        learned_slopes = learn_slopes(snapshot, k=max(k, 2))
        learned = rebuild_planner(fixed, learned_slopes)

        fixed_s, fixed_results = _measure(fixed, queries, repeats)
        learned_s, learned_results = _measure(learned, queries, repeats)

        identical = all(
            a.ids == b.ids
            for a, b in zip(fixed_results, learned_results)
        )
        payload["answers_identical"] &= identical
        fixed_pages = sum(r.page_accesses for r in fixed_results)
        learned_pages = sum(r.page_accesses for r in learned_results)
        reduction = 100.0 * (1.0 - learned_pages / max(fixed_pages, 1))
        payload["families"][family] = {
            "learned_slopes": [round(s, 6) for s in learned_slopes],
            "prediction": predicted_improvement(
                snapshot, fixed_slopes, learned_slopes
            ),
            "engines": [
                _engine_row("fixed", fixed_s, fixed_results, len(queries)),
                _engine_row(
                    "learned", learned_s, learned_results, len(queries)
                ),
            ],
            "answers_identical": identical,
            "page_reduction_pct": round(reduction, 2),
        }
        counters[f"{family[:4]}_page_reduction_pct"] = round(reduction, 2)
        counters[f"{family[:4]}_qps_learned"] = round(
            len(queries) / learned_s, 1
        )
    # bench-diff floor-gate input: the skew reduction is the pinned CI
    # gate; uniform reduction is reported but pinned permissively (the
    # learner must not *hurt* the traffic the fixed set was built for).
    payload["counters"] = counters
    return payload


def format_report(payload: dict) -> str:
    w = payload["workload"]
    lines = [
        f"tune bench — fig9-medium (n={w['n']}, size={w['size']}, "
        f"k={w['k']}, {w['queries_per_family']} queries/family)",
    ]
    for family, cell in payload["families"].items():
        lines.append(
            f"  {family}: learned S = "
            + ", ".join(f"{s:.3f}" for s in cell["learned_slopes"])
        )
        for row in cell["engines"]:
            lines.append(
                f"    {row['engine']:8s}: {row['page_accesses']:6d} pages, "
                f"{row['false_hits']:5d} false hits "
                f"(rate {row['false_hit_rate']:.3f}), "
                f"{row['qps']:.0f} q/s"
            )
        lines.append(
            f"    page reduction: {cell['page_reduction_pct']:.1f}% "
            f"(predicted cost ratio "
            f"{cell['prediction']['predicted_cost_ratio']:.3f})"
        )
    lines.append(
        f"  answers identical: {payload['answers_identical']}"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """``repro tune-bench`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro tune-bench",
        description="Fixed-S vs learned-S ablation on fig9-medium",
    )
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="artifact path (default %(default)s)")
    parser.add_argument("--queries", type=int, default=DEFAULT_QUERIES,
                        help="queries per family (default %(default)s)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best-of (default %(default)s)")
    args = parser.parse_args(argv)
    payload = run_bench(
        queries_per_family=args.queries, repeats=args.repeats)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(format_report(payload))
    print(f"wrote {args.out}")
    if not payload["answers_identical"]:
        print("FAIL: learned-S answers diverged from fixed-S", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
