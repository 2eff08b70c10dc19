"""Selectivity-calibrated half-plane query generation (Section 5).

The paper evaluates six ALL and six EXIST queries per configuration with
selectivities between 5 % and 60 %, reporting the 10–15 % band. Because a
half-plane query's answer is a quantile cut of the relation's TOP/BOT
values (Proposition 2.2), target selectivities can be hit *exactly*: the
generator computes the relevant surface values once per slope and places
the intercept at the matching order statistic.
"""

from __future__ import annotations

import math
import random

from repro.constraints.relation import GeneralizedRelation
from repro.constraints.theta import Theta
from repro.core.query import ALL, EXIST, HalfPlaneQuery
from repro.core.slope_set import SlopeSet
from repro.errors import QueryError
from repro.geometry import dual
from repro.workloads.generator import random_edge_angles


def surface_values(
    relation: GeneralizedRelation, slope: float, which: str
) -> list[float]:
    """Sorted ``TOP``/``BOT`` values of every satisfiable tuple."""
    values = []
    for _tid, t in relation:
        poly = t.extension()
        if poly.is_empty:
            continue
        v = dual.top(poly, slope) if which == "top" else dual.bot(poly, slope)
        assert v is not None
        values.append(v)
    values.sort()
    return values


def intercept_for_selectivity(
    relation: GeneralizedRelation,
    query_type: str,
    slope: float,
    theta: Theta,
    selectivity: float,
) -> float:
    """The intercept whose query selects ~``selectivity`` of the relation.

    Uses Proposition 2.2: e.g. EXIST(q(>=)) selects tuples with
    ``TOP >= b``, so ``b`` is placed at the ``1 - selectivity`` order
    statistic of the TOP values (midpoint between neighbours to avoid
    boundary ties).
    """
    if not 0.0 < selectivity < 1.0:
        raise QueryError("selectivity must be in (0, 1)")
    if query_type == EXIST:
        which = "top" if theta is Theta.GE else "bot"
    else:
        which = "bot" if theta is Theta.GE else "top"
    values = surface_values(relation, slope, which)
    if not values:
        raise QueryError("relation has no satisfiable tuples")
    n = len(values)
    want = max(1, min(n, round(selectivity * n)))
    if theta is Theta.GE:
        # tuples with value >= b qualify: take the want-th from the top.
        index = n - want
        lo = values[index - 1] if index > 0 else values[0] - 1.0
        hi = values[index]
    else:
        index = want - 1
        lo = values[index]
        hi = values[index + 1] if index + 1 < n else values[index] + 1.0
    mid = (lo + hi) / 2.0
    if not math.isfinite(mid):
        # Order statistics at ±inf (unbounded tuples): nudge inside.
        mid = lo if math.isfinite(lo) else hi
        if not math.isfinite(mid):
            mid = 0.0
    return mid


def random_query(
    relation: GeneralizedRelation,
    rng: random.Random,
    query_type: str | None = None,
    theta: Theta | None = None,
    selectivity: tuple[float, float] = (0.10, 0.15),
    slope_range: tuple[float, float] | None = None,
) -> HalfPlaneQuery:
    """One selectivity-calibrated query with a random slope/type.

    ``slope_range`` restricts the angular coefficient (e.g. to the
    interior of the slope set); by default the slope is ``tan`` of a
    uniform non-vertical angle, like the data's constraint boundaries.
    """
    if query_type is None:
        query_type = rng.choice([ALL, EXIST])
    if theta is None:
        theta = rng.choice([Theta.GE, Theta.LE])
    if slope_range is None:
        slope = math.tan(random_edge_angles(rng, 1)[0])
    else:
        slope = rng.uniform(*slope_range)
    sel = rng.uniform(*selectivity)
    intercept = intercept_for_selectivity(
        relation, query_type, slope, theta, sel
    )
    return HalfPlaneQuery(query_type, slope, intercept, theta)


def make_queries(
    relation: GeneralizedRelation,
    count: int,
    query_type: str,
    seed: int = 0,
    selectivity: tuple[float, float] = (0.10, 0.15),
    slope_range: tuple[float, float] | None = None,
) -> list[HalfPlaneQuery]:
    """``count`` queries of one type (the paper uses six per type)."""
    rng = random.Random(seed)
    return [
        random_query(
            relation,
            rng,
            query_type=query_type,
            selectivity=selectivity,
            slope_range=slope_range,
        )
        for _ in range(count)
    ]


def fan_batch(k: int, width: int = 20) -> list[HalfPlaneQuery]:
    """The slope-group fan: ``k × width × 4`` exact-path queries.

    For every slope of ``SlopeSet.uniform_angles(k)``, ``width``
    intercepts × {EXIST, ALL} × {>=, <=}, which group into one merged
    sweep per (slope, direction, type). Intercepts sweep the populated
    key range so per-query answer sets span empty to nearly-everything;
    the per-slope offset keeps fans on different slopes from quantizing
    to identical key sets.
    """
    queries: list[HalfPlaneQuery] = []
    for i, slope in enumerate(SlopeSet.uniform_angles(k)):
        for j in range(width):
            intercept = -40.0 + 80.0 * j / max(width - 1, 1) + 0.37 * i
            queries.append(HalfPlaneQuery(EXIST, slope, intercept, ">="))
            queries.append(HalfPlaneQuery(EXIST, slope, -intercept, "<="))
            queries.append(HalfPlaneQuery(ALL, slope, intercept, ">="))
            queries.append(HalfPlaneQuery(ALL, slope, -intercept, "<="))
    return queries


def actual_selectivity(
    relation: GeneralizedRelation, query: HalfPlaneQuery
) -> float:
    """Measured selectivity of a query (oracle-evaluated)."""
    from repro.geometry.predicates import evaluate_relation

    if len(relation) == 0:
        return 0.0
    answer = evaluate_relation(
        relation, query.query_type, query.slope_2d, query.intercept, query.theta
    )
    return len(answer) / len(relation)
