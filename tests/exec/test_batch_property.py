"""Property test: batched ALL/EXIST answers ≡ sequential per-query answers.

Random mixed-slope batches (exact-path, interior, and wrap-around
slopes, both query types and operators) against a shared executor whose
result cache persists across examples — caching must never change an
answer set.

Example budget and determinism come from the shared hypothesis profiles
registered in ``tests/conftest.py`` (``ci``/``dev``/``nightly``).
"""

import random

from hypothesis import given, strategies as st

from repro.core import ALL, EXIST, DualIndexPlanner, HalfPlaneQuery, SlopeSet
from repro.core.planner import SLOPE_TOL
from repro.exec import BatchExecutor
from repro.storage import Pager
from tests.conftest import random_mixed_relation

SLOPES = [-1.0, 0.5, 2.0]

_STATE = {}


def _setup():
    if _STATE:
        return _STATE
    rng = random.Random(31337)
    relation = random_mixed_relation(rng, 40)
    planner = DualIndexPlanner.build(
        relation, SlopeSet(SLOPES), pager=Pager(buffer_frames=8), key_bytes=4
    )
    _STATE["planner"] = planner
    _STATE["executor"] = BatchExecutor(planner)
    _STATE["uncached"] = BatchExecutor(planner, cache_size=0)
    return _STATE


_query = st.builds(
    HalfPlaneQuery,
    st.sampled_from([ALL, EXIST]),
    st.one_of(
        st.sampled_from(SLOPES),  # exact path (merged sweeps)
        st.floats(min_value=-2.5, max_value=2.5),  # interior (vectorized)
        st.floats(min_value=-30.0, max_value=30.0),  # wrap-around
    ),
    st.floats(min_value=-80.0, max_value=80.0),
    st.sampled_from([">=", "<="]),
)


@given(queries=st.lists(_query, min_size=1, max_size=8))
def test_batched_equals_sequential(queries):
    state = _setup()
    planner = state["planner"]
    sequential = [planner.query(q) for q in queries]
    batch = state["executor"].execute(queries)
    assert [r.ids for r in batch.results] == [r.ids for r in sequential]
    # Exact-slope queries run the same sweep split and refinement step
    # in both engines, so their accounting matches too.
    uncached = state["uncached"].execute(queries)
    for query, seq, res in zip(queries, sequential, uncached.results):
        if planner.index.slopes.index_of(query.slope_2d, SLOPE_TOL) is None:
            continue
        assert _accounting(res) == _accounting(seq), query


def _accounting(result):
    return (
        result.candidates,
        result.accepted_without_refinement,
        result.false_hits,
        result.refinement_pages,
    )
