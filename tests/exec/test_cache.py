"""Unit tests for the batch result cache (LRU + version invalidation)."""

import pytest

from repro import GeneralizedRelation, parse_tuple
from repro.core import DualIndexPlanner
from repro.core.query import HalfPlaneQuery, QueryResult
from repro.exec import BatchExecutor
from repro.exec.cache import QueryResultCache, cache_key


def q(intercept: float, qtype: str = "EXIST") -> HalfPlaneQuery:
    return HalfPlaneQuery(qtype, 0.5, intercept, ">=")


def test_key_is_full_query_identity():
    assert cache_key(q(1.0)) == cache_key(q(1.0))
    assert cache_key(q(1.0)) != cache_key(q(2.0))
    assert cache_key(q(1.0)) != cache_key(q(1.0, "ALL"))
    assert cache_key(
        HalfPlaneQuery("EXIST", 0.5, 1.0, ">=")
    ) != cache_key(HalfPlaneQuery("EXIST", 0.5, 1.0, "<="))
    assert cache_key(
        HalfPlaneQuery("EXIST", 0.25, 1.0, ">=")
    ) != cache_key(HalfPlaneQuery("EXIST", 0.5, 1.0, ">="))


def test_hit_and_miss_counting():
    cache = QueryResultCache(capacity=4)
    assert cache.get(q(1.0), version=1) is None
    cache.put(q(1.0), QueryResult(ids={1}), version=1)
    assert cache.get(q(1.0), version=1).ids == {1}
    assert (cache.hits, cache.misses) == (1, 1)
    assert cache.hit_rate == 0.5


def test_lru_eviction_order():
    cache = QueryResultCache(capacity=2)
    cache.put(q(1.0), QueryResult(ids={1}), version=1)
    cache.put(q(2.0), QueryResult(ids={2}), version=1)
    assert cache.get(q(1.0), version=1) is not None  # 1.0 becomes MRU
    cache.put(q(3.0), QueryResult(ids={3}), version=1)  # evicts 2.0
    assert cache.get(q(2.0), version=1) is None
    assert cache.get(q(1.0), version=1) is not None
    assert cache.get(q(3.0), version=1) is not None


def test_version_change_invalidates_everything():
    cache = QueryResultCache(capacity=4)
    cache.put(q(1.0), QueryResult(ids={1}), version=1)
    assert cache.get(q(1.0), version=2) is None
    assert cache.invalidations == 1
    # and the old version's entries do not resurrect
    assert cache.get(q(1.0), version=1) is None


def test_zero_capacity_disables_caching():
    cache = QueryResultCache(capacity=0)
    cache.put(q(1.0), QueryResult(ids={1}), version=1)
    assert cache.get(q(1.0), version=1) is None
    assert len(cache) == 0


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        QueryResultCache(capacity=-1)


@pytest.mark.parametrize("slope", [0.0, 0.37], ids=["exact", "vector"])
def test_returned_result_does_not_alias_the_cache(slope):
    relation = GeneralizedRelation([
        parse_tuple("y >= 0 and y <= 1 and x >= 0 and x <= 1"),
        parse_tuple("y >= 2 and y <= 3 and x >= 0 and x <= 1"),
        parse_tuple("y <= -5"),
    ])
    planner = DualIndexPlanner.build(relation, slopes=[-1.0, 0.0, 1.0])
    executor = BatchExecutor(planner)
    query = HalfPlaneQuery("EXIST", slope, -1.0, ">=")
    want = planner.query(query).ids
    first = executor.execute([query]).results[0]
    assert not first.cached and first.ids == want
    first.ids.add(999)
    again = executor.execute([query]).results[0]
    assert again.cached
    assert again.ids == want
    again.ids.add(998)
    assert executor.execute([query]).results[0].ids == want
