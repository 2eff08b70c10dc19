"""Degenerate geometry: the cases the paper glosses over.

Unbounded polyhedra (±∞ envelopes and bounded finite domains), single-
point tuples (TOP ≡ BOT), and query slopes sitting exactly on a dual-
envelope breakpoint — for both the scalar profile engine
(``geometry/dual.py``) and the vectorized surface
(``geometry/vectorized.py``).
"""

import math

from repro.constraints import GeneralizedTuple, parse_tuple
from repro.constraints.theta import Theta
from repro.geometry import dual
from repro.geometry.predicates import all_halfplane, exist_halfplane
from repro.geometry.vectorized import DualSurface


class TestUnboundedEnvelopes:
    def test_halfplane_top_infinite_bot_finite(self):
        t = parse_tuple("y >= 2*x + 1")
        poly = t.extension()
        assert dual.top(poly, 2.0) == math.inf
        assert dual.bot(poly, 2.0) == 1.0  # boundary line itself
        # Any other slope tilts out of the half-plane both ways.
        assert dual.top(poly, 0.0) == math.inf
        assert dual.bot(poly, 0.0) == -math.inf

    def test_slab_finite_exactly_at_its_slope(self):
        t = parse_tuple("y >= x - 1 and y <= x + 1")
        poly = t.extension()
        assert dual.top(poly, 1.0) == 1.0
        assert dual.bot(poly, 1.0) == -1.0
        assert dual.top(poly, 0.5) == math.inf
        assert dual.bot(poly, 0.5) == -math.inf

    def test_wedge_profile_domain_is_bounded(self):
        t = parse_tuple("y >= x and y >= -x")  # upward wedge
        poly = t.extension()
        profile = dual.bot_profile_2d(poly)
        # BOT is finite exactly for slopes between the two edge slopes.
        assert profile.domain_lo == -1.0
        assert profile.domain_hi == 1.0
        assert profile(0.0) == 0.0
        assert profile(2.0) == -math.inf
        top_profile = dual.top_profile_2d(poly)
        # TOP is +inf everywhere: the wedge is vertically unbounded.
        assert top_profile.domain_lo > top_profile.domain_hi

    def test_all_is_false_on_infinite_side(self):
        t = parse_tuple("y >= 2*x + 1")
        poly = t.extension()
        assert not all_halfplane(poly, 0.0, 0.0, Theta.LE)  # TOP = +inf
        assert all_halfplane(poly, 2.0, 0.5, Theta.GE)  # BOT = 1 >= 0.5
        assert exist_halfplane(poly, 0.0, 1e9, Theta.GE)


class TestSinglePointTuples:
    def test_top_equals_bot_for_every_slope(self):
        t = GeneralizedTuple.from_box((3.0, 4.0), (3.0, 4.0))
        poly = t.extension()
        for s in (-2.0, -0.5, 0.0, 0.5, 2.0):
            expected = 4.0 - s * 3.0  # the dual line of the point
            assert dual.top(poly, s) == expected
            assert dual.bot(poly, s) == expected

    def test_exist_iff_all_on_singleton(self):
        t = GeneralizedTuple.from_box((3.0, 4.0), (3.0, 4.0))
        poly = t.extension()
        for s, b, theta in [
            (0.0, 4.0, Theta.GE),  # exactly through the point
            (0.0, 3.9, Theta.GE),
            (0.0, 4.1, Theta.GE),
            (1.0, 1.0, Theta.LE),
        ]:
            assert exist_halfplane(poly, s, b, theta) == all_halfplane(
                poly, s, b, theta
            )

    def test_profile_is_one_piece(self):
        poly = GeneralizedTuple.from_box((3.0, 4.0), (3.0, 4.0)).extension()
        profile = dual.top_profile_2d(poly)
        assert len(profile.pieces) == 1
        assert profile.breakpoints == []


class TestBreakpointSlopes:
    def test_query_slope_exactly_at_envelope_breakpoint(self, triangle):
        poly = triangle.extension()
        profile = dual.top_profile_2d(poly)
        assert profile.breakpoints  # a triangle's TOP graph bends
        for s in profile.breakpoints:
            # At a breakpoint two vertices attain the support together;
            # the profile, the support engine, and the surface agree.
            top_value = dual.top(poly, s)
            assert abs(profile(s) - top_value) <= 1e-9 * max(
                1.0, abs(top_value)
            )
            candidates = [y - s * x for x, y in poly.vertices()]
            assert abs(top_value - max(candidates)) <= 1e-9

    def test_vectorized_surface_matches_at_breakpoints(self, triangle):
        items = [(0, triangle)]
        surface = DualSurface.from_items(items)
        poly = triangle.extension()
        for s in dual.top_profile_2d(poly).breakpoints + [0.0, 1.5, -1.5]:
            assert surface.top_at(s)[0] == dual.top(poly, s)
            assert surface.bot_at(s)[0] == dual.bot(poly, s)


class TestVectorizedDegenerate:
    def test_surface_mixed_degenerate_answers_match_scalar(self):
        tuples = [
            (0, parse_tuple("y >= 2*x + 1")),  # half-plane
            (1, parse_tuple("y >= x - 1 and y <= x + 1")),  # slab
            (2, GeneralizedTuple.from_box((3.0, 4.0), (3.0, 4.0))),  # point
            (3, GeneralizedTuple.from_vertices_2d([(0, 0), (4, 0), (2, 3)])),
        ]
        surface = DualSurface.from_items(tuples)
        for s in (-2.0, -1.0, 0.0, 1.0, 2.0):
            for i, (_tid, t) in enumerate(tuples):
                poly = t.extension()
                assert surface.top_at(s)[i] == dual.top(poly, s)
                assert surface.bot_at(s)[i] == dual.bot(poly, s)
        for query_type in ("ALL", "EXIST"):
            for theta in (Theta.GE, Theta.LE):
                for s, b in [(1.0, 0.0), (0.0, 4.0), (2.0, 1.0)]:
                    predicate = (
                        all_halfplane if query_type == "ALL" else exist_halfplane
                    )
                    want = {
                        tid
                        for tid, t in tuples
                        if predicate(t.extension(), s, b, theta)
                    }
                    assert surface.answer(query_type, s, b, theta) == want


class TestSurfaceCacheBudget:
    def test_cache_evicts_oldest_past_budget(self, monkeypatch):
        from repro.geometry import vectorized
        from repro.workloads import make_relation

        items = sorted(make_relation(40, "small", seed=3))
        column = 40 * 8  # one float64 per tuple
        monkeypatch.setattr(vectorized, "SURFACE_CACHE_BYTES", 5 * column)
        surface = DualSurface.from_items(items)
        reference = DualSurface.from_items(items)
        slopes = [0.1 * i - 2.0 for i in range(30)]
        first = {s: (surface.top_at(s).copy(), surface.bot_at(s).copy())
                 for s in slopes}
        assert surface._cache_bytes <= 5 * column
        assert len(surface._cache) == 5
        assert surface._cache_bytes == sum(
            v.nbytes for v in surface._cache.values()
        )
        # Evicted slopes re-evaluate to identical values, on this surface
        # and on one that never evicted them.
        monkeypatch.setattr(vectorized, "SURFACE_CACHE_BYTES", 1 << 30)
        for s in slopes:
            top, bot = first[s]
            assert surface.top_at(s).tolist() == top.tolist()
            assert surface.bot_at(s).tolist() == bot.tolist()
            assert reference.top_at(s).tolist() == top.tolist()
            assert reference.bot_at(s).tolist() == bot.tolist()
