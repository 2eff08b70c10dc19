"""Query generator tests: selectivity calibration is exact."""

import random

import pytest

from repro.constraints.theta import Theta
from repro.core import ALL, EXIST
from repro.errors import QueryError
from repro.workloads import (
    actual_selectivity,
    fan_batch,
    intercept_for_selectivity,
    make_queries,
    make_relation,
    random_query,
    surface_values,
)


@pytest.fixture(scope="module")
def relation():
    return make_relation(200, "small", seed=42)


class TestSurfaceValues:
    def test_sorted_and_complete(self, relation):
        values = surface_values(relation, 0.3, "top")
        assert len(values) == len(relation)
        assert values == sorted(values)


class TestCalibration:
    @pytest.mark.parametrize("qtype", [ALL, EXIST])
    @pytest.mark.parametrize("theta", [Theta.GE, Theta.LE])
    @pytest.mark.parametrize("target", [0.05, 0.12, 0.40])
    def test_selectivity_hits_target(self, relation, qtype, theta, target):
        b = intercept_for_selectivity(relation, qtype, 0.37, theta, target)
        from repro.core import HalfPlaneQuery

        sel = actual_selectivity(
            relation, HalfPlaneQuery(qtype, 0.37, b, theta)
        )
        # order-statistic placement: within one tuple of the target
        assert abs(sel - target) <= 1.5 / len(relation) + 0.01

    def test_bad_selectivity_rejected(self, relation):
        with pytest.raises(QueryError):
            intercept_for_selectivity(relation, EXIST, 0.0, Theta.GE, 1.5)


class TestGenerators:
    def test_make_queries_count_and_band(self, relation):
        queries = make_queries(relation, 6, EXIST, seed=7)
        assert len(queries) == 6
        for q in queries:
            assert q.query_type == EXIST
            sel = actual_selectivity(relation, q)
            assert 0.05 <= sel <= 0.20  # 10-15% band plus stat slack

    def test_slope_range_respected(self, relation):
        queries = make_queries(
            relation, 10, ALL, seed=8, slope_range=(-0.5, 0.5)
        )
        assert all(-0.5 <= q.slope_2d <= 0.5 for q in queries)

    def test_random_query_defaults(self, relation):
        rng = random.Random(9)
        q = random_query(relation, rng)
        assert q.query_type in (ALL, EXIST)
        assert q.theta in (Theta.GE, Theta.LE)

    def test_reproducible(self, relation):
        a = make_queries(relation, 5, EXIST, seed=10)
        b = make_queries(relation, 5, EXIST, seed=10)
        assert a == b


class TestFanBatch:
    def test_shape_and_validity(self):
        queries = fan_batch(2, width=5)
        assert len(queries) == 2 * 5 * 4
        types = {q.query_type for q in queries}
        thetas = {q.theta for q in queries}
        assert types == {"ALL", "EXIST"}
        assert len(thetas) == 2
        # Each (slope, type, theta) fan has distinct intercepts.
        seen = set()
        for q in queries:
            key = (q.slope, q.query_type, q.theta, q.intercept)
            assert key not in seen
            seen.add(key)
