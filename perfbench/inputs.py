"""Seeded inputs: the relation, the query pools and their answers.

Everything here is derived from the ``--seed`` argument and cached per
seed under ``perfbench/.cache``; none of it is timed. The relation comes
from the repository's Section 5 generator (fig9-medium: 2000 bounded
tuples, medium size class), and so do the fresh tuples the write phases
insert.

Queries are calibrated to a 10-15 % selectivity, and their expected
answers are computed, from the tuples' vertices: a bounded tuple's
``TOP(s)`` is ``max(y - s x)`` over its vertices and ``BOT(s)`` the
minimum (Proposition 2.2 of the paper). That is a numpy pass per query,
so pools of thousands of queries cost well under a second. The vertex
oracle is itself checked against the program's reference oracle,
``repro.geometry.predicates.evaluate_relation``, on a seeded sample of
every run (see ``run.py``).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from repro.constraints.linear import LinearConstraint
from repro.constraints.relation import GeneralizedRelation
from repro.constraints.tuples import GeneralizedTuple
from repro.workloads import make_relation
from repro.workloads.generator import random_edge_angles

CACHE_VERSION = 1
GE, LE = ">=", "<="
COMBOS = (("EXIST", GE), ("ALL", GE), ("EXIST", LE), ("ALL", LE))
#: The type and theta cycle of the interior (T2) pool: three ALL
#: queries to each EXIST one. An ALL query refines nearly every tuple
#: (about n candidates) and an EXIST one a slope-dependent fraction, so
#: per-query latency has two modes about 2x apart; with the types
#: balanced, the median of a run's couple of dozen reads fell between
#: them and flipped from run to run.
T2_COMBOS = (("ALL", GE), ("ALL", LE), ("ALL", GE), ("EXIST", GE),
             ("ALL", LE), ("ALL", GE), ("ALL", LE), ("EXIST", LE))
#: Ranks around the target order statistic that calibration may move
#: the cut by, to find a wide gap (selectivities stay within 0.2% of
#: the drawn value at n = 2000).
CALIBRATION_SLACK = 3
#: Narrowest gap an enumerated cut may sit in: ten times the program's
#: oracle tolerance.
MIN_GAP = 1e-6


@dataclass(frozen=True)
class Query:
    qtype: str
    slope: float
    intercept: float
    theta: str

    def request(self) -> dict:
        """The serve protocol's query envelope (the client sets ``id``)."""
        return {"op": "query", "type": self.qtype, "slope": self.slope,
                "intercept": self.intercept, "theta": self.theta}


class VertexOracle:
    """Answers and calibration from tuple vertices, for one tuple set."""

    def __init__(self, tids: list[int], vertices: list[np.ndarray]) -> None:
        self.tids = np.asarray(tids, dtype=np.int64)
        lengths = np.fromiter((len(v) for v in vertices), dtype=np.int64,
                              count=len(vertices))
        self.starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        points = np.concatenate(vertices)
        self.vx = np.ascontiguousarray(points[:, 0])
        self.vy = np.ascontiguousarray(points[:, 1])

    def surface(self, slope: float, which: str) -> np.ndarray:
        values = self.vy - slope * self.vx
        if which == "top":
            return np.maximum.reduceat(values, self.starts)
        return np.minimum.reduceat(values, self.starts)

    @staticmethod
    def which(qtype: str, theta: str) -> str:
        """The surface a query compares against (Proposition 2.2)."""
        if qtype == "EXIST":
            return "top" if theta == GE else "bot"
        return "bot" if theta == GE else "top"

    def answer(self, q: Query) -> list[int]:
        """Sorted ids selected by ``q``."""
        values = self.surface(q.slope, self.which(q.qtype, q.theta))
        mask = values >= q.intercept if q.theta == GE \
            else values <= q.intercept
        return self.tids[mask].tolist()

    def calibrate(self, qtype: str, slope: float, theta: str,
                  selectivity: float) -> float:
        """An intercept selecting about ``selectivity`` of the tuples.

        As in ``repro.workloads.queries``, the intercept is the midpoint
        between two neighbouring order statistics; of the gaps within
        ``CALIBRATION_SLACK`` ranks of the target, the widest is taken,
        so no tuple lies within the oracle tolerance of the query line.
        """
        values = np.sort(self.surface(slope, self.which(qtype, theta)))
        n = len(values)
        want = max(1, min(n - 1, round(selectivity * n)))
        # Gap g lies between values[g - 1] and values[g]; a >= query
        # selecting ``want`` tuples cuts at gap n - want, a <= query at
        # gap want.
        target = n - want if theta == GE else want
        lo = max(1, target - CALIBRATION_SLACK)
        hi = min(n - 1, target + CALIBRATION_SLACK)
        gaps = values[lo:hi + 1] - values[lo - 1:hi]
        g = lo + int(np.argmax(gaps))
        return float((values[g - 1] + values[g]) / 2.0)


@dataclass
class Inputs:
    """One seed's tuples. Ids ``0..n-1`` are the relation; the ``extra``
    tuples that write phases insert take the ids after them."""

    atoms: list[list[list]]
    vertices: list[np.ndarray]
    n: int

    def tuple(self, tid: int) -> GeneralizedTuple:
        return GeneralizedTuple([
            LinearConstraint((a, b), const, theta)
            for a, b, const, theta in self.atoms[tid]])

    def relation(self, tids=None) -> GeneralizedRelation:
        """Fresh tuple objects (no cached extensions) under their ids;
        by default the seed's relation."""
        if tids is None:
            return GeneralizedRelation(
                (self.tuple(t) for t in range(self.n)), name="fig9-medium")
        universe = GeneralizedRelation(
            (self.tuple(t) for t in range(len(self.atoms))),
            name="fig9-medium")
        return universe.subset(tids)

    def oracle(self, tids=None) -> VertexOracle:
        tids = list(range(self.n)) if tids is None else sorted(tids)
        return VertexOracle(tids, [self.vertices[t] for t in tids])

    def wire_tuple(self, tid: int) -> list[dict]:
        """An insert request's ``tuple`` field."""
        return [{"coeffs": [a, b], "const": const, "theta": theta}
                for a, b, const, theta in self.atoms[tid]]

    @property
    def extra_tids(self) -> range:
        return range(self.n, len(self.atoms))


def _atoms_of(t: GeneralizedTuple) -> list[list]:
    return [[float(c.coeffs[0]), float(c.coeffs[1]), float(c.const),
             c.theta.value] for c in t.constraints]


def load_inputs(seed: int, n: int, extra: int, cache_dir: str) -> Inputs:
    """The seed's relation plus ``extra`` insertable tuples, cached."""
    path = os.path.join(
        cache_dir, f"inputs-v{CACHE_VERSION}-n{n}-x{extra}-s{seed}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        data = None
    if data is None:
        tuples = [t for _, t in make_relation(n, "medium", seed=seed)]
        tuples += [t for _, t in make_relation(
            extra, "medium", seed=seed + 7919)]
        data = {
            "atoms": [_atoms_of(t) for t in tuples],
            "vertices": [[list(v) for v in t.extension().vertices()]
                         for t in tuples],
        }
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)
    return Inputs(
        atoms=data["atoms"],
        vertices=[np.asarray(v, dtype=np.float64) for v in data["vertices"]],
        n=n,
    )


def distinct_pool(rng: random.Random, oracle: VertexOracle, count: int,
                  selectivity: tuple[float, float]) -> list[Query]:
    """Uniform random slopes (almost surely outside S), random type."""
    out = []
    for _ in range(count):
        qtype = rng.choice(("ALL", "EXIST"))
        theta = rng.choice((GE, LE))
        slope = math.tan(random_edge_angles(rng, 1)[0])
        sel = rng.uniform(*selectivity)
        out.append(Query(qtype, slope,
                         oracle.calibrate(qtype, slope, theta, sel), theta))
    return out


def exact_pool(rng: random.Random, oracle: VertexOracle, count: int,
               slopes: list[float],
               selectivity: tuple[float, float]) -> list[Query]:
    """Distinct queries on slopes exactly in S (the restricted technique).

    With three slopes there are only about 1200 distinct queries in the
    selectivity band (slope x type x theta x cut position), so they are
    enumerated and ``count`` of them drawn without replacement; cuts in
    a gap narrower than ``MIN_GAP`` are left out.
    """
    candidates = []
    for slope in slopes:
        for qtype, theta in COMBOS:
            values = np.sort(oracle.surface(slope, oracle.which(qtype, theta)))
            n = len(values)
            for want in range(math.ceil(selectivity[0] * n),
                              math.floor(selectivity[1] * n) + 1):
                g = n - want if theta == GE else want
                if values[g] - values[g - 1] > MIN_GAP:
                    candidates.append(Query(
                        qtype, slope,
                        float((values[g - 1] + values[g]) / 2.0), theta))
    return rng.sample(candidates, count)


def interior_pool(rng: random.Random, oracle: VertexOracle, count: int,
                  slopes: list[float], shrink: float,
                  selectivity: tuple[float, float]) -> list[Query]:
    """Interior non-S slopes (always T2), type and theta cycling
    ``T2_COMBOS``.

    A T2 query's cost depends mostly on how far its slope lies from the
    nearest slope in S, and a run completes only a couple of dozen
    queries. So the slopes do not come from the seed, which would change
    the run's cost mix from seed to seed: they follow the golden-ratio
    sequence over ``(min S, max S)``, whose every prefix spreads evenly
    over the range. The seed still sets the relation and each query's
    selectivity.
    """
    lo, hi = slopes[0] * shrink, slopes[-1] * shrink
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    out = []
    for i in range(count):
        slope = lo + ((i + 1) * golden % 1.0) * (hi - lo)
        if any(abs(slope - s) < 1e-6 for s in slopes):
            slope += 1e-3
        qtype, theta = T2_COMBOS[i % len(T2_COMBOS)]
        sel = rng.uniform(*selectivity)
        out.append(Query(qtype, slope,
                         oracle.calibrate(qtype, slope, theta, sel), theta))
    return out


def zipf_sequence(rng: random.Random, pool_size: int, length: int,
                  exponent: float) -> list[int]:
    """``length`` pool positions with Zipf popularity over a seeded
    ranking of the pool."""
    ranking = list(range(pool_size))
    rng.shuffle(ranking)
    weights = np.array([1.0 / (r + 1) ** exponent for r in range(pool_size)])
    cdf = np.cumsum(weights / weights.sum())
    draws = np.searchsorted(cdf, [rng.random() for _ in range(length)],
                            side="right")
    draws = np.minimum(draws, pool_size - 1)
    return [ranking[int(d)] for d in draws]
