"""Vectorized dual evaluation: TOP/BOT of *many* tuples at one slope.

The scalar engine answers ``TOP^P(s)`` one polyhedron at a time through
:meth:`ConvexPolyhedron.support`. A batch of queries that share a slope
``s`` needs the surface value of *every* tuple at that one ``s`` — the
regime where the dual representation shines, because each tuple's
contribution is a maximum of linear functions of ``s`` (one dual line
per vertex):

    TOP^P(s) = max over vertices v of (v_y - s·v_x)     [+inf via rays]
    BOT^P(s) = min over vertices v of (v_y - s·v_x)     [-inf via rays]

:class:`DualSurface` flattens all vertices (and extreme rays) of a
tuple collection into numpy arrays once, then evaluates every tuple's
TOP or BOT at a slope in one segmented-reduction pass — one pass over
the dual representation per slope, not one support call per (tuple,
query) pair.

Exactness: the arithmetic mirrors the scalar support path operation for
operation (same products, same sums, same ray threshold), so the
vectorized values are bit-identical to ``dual.top``/``dual.bot`` for
every tuple with at least one vertex; vertex-free tuples (half-planes,
slabs) fall back to the scalar engine. Answer sets produced by
:meth:`DualSurface.answer` therefore equal the exact oracle's
(:func:`repro.geometry.predicates.evaluate_relation`).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterable, Sequence

import numpy as np

from repro.constraints.theta import Theta
from repro.constraints.tuples import GeneralizedTuple
from repro.errors import GeometryError
from repro.geometry import dual
from repro.geometry.polyhedron import warm_boundedness, warm_vertices
from repro.geometry.predicates import ORACLE_TOL

#: Ray threshold of the scalar fast path (``_support_2d_fast``).
_RAY_TOL = 1e-9

#: Byte budget of one surface's per-slope TOP/BOT column cache. Slopes
#: come from clients, so past this the oldest columns are evicted. At
#: n=2000 a column is 16 kB, so 256 MiB holds 16k columns: four times a
#: 4096-slope working set.
SURFACE_CACHE_BYTES = 256 * 1024 * 1024


class DualSurface:
    """The dual representation of a tuple collection as flat numpy arrays.

    Build once per relation snapshot (one pass over the tuples), then
    evaluate :meth:`top_at` / :meth:`bot_at` per slope — each evaluation
    is a handful of vectorized numpy operations over all tuples at once.
    Per-slope results are memoised up to :data:`SURFACE_CACHE_BYTES`
    (oldest evicted first), so a batch of queries sharing a slope pays
    for exactly one evaluation pass.

    Example::

        >>> from repro import parse_tuple
        >>> from repro.geometry.vectorized import DualSurface
        >>> items = [(0, parse_tuple("y >= x and y <= 4 and x >= 0"))]
        >>> surface = DualSurface.from_items(items)
        >>> float(surface.top_at(0.0)[0])   # TOP at slope 0 = max y
        4.0
    """

    def __init__(
        self,
        tids: list[int],
        tuples: list[GeneralizedTuple],
    ) -> None:
        self.tids = np.asarray(tids, dtype=np.int64)
        # One batched cone pass and one batched vertex enumeration
        # instead of one per tuple — the dominant cost of building the
        # surface otherwise.
        extensions = [t.extension() for t in tuples]
        warm_boundedness(extensions)
        warm_vertices(extensions)
        self._fallback: list[tuple[int, GeneralizedTuple]] = []
        vx: list[float] = []
        vy: list[float] = []
        starts: list[int] = [0]
        ray_x: list[float] = []
        ray_y: list[float] = []
        ray_owner: list[int] = []
        for row, t in enumerate(tuples):
            poly = t.extension()
            if poly.is_empty:
                raise GeometryError(
                    "DualSurface indexes satisfiable tuples only"
                )
            verts = poly.vertices()
            if not verts:
                # Vertex-free shapes go through the scalar engine; the
                # placeholder row keeps the segmented reduction aligned.
                self._fallback.append((row, t))
                vx.append(0.0)
                vy.append(0.0)
            else:
                for x, y in verts:
                    vx.append(x)
                    vy.append(y)
            starts.append(len(vx))
            if not poly.is_bounded:
                for rx, ry in poly.rays():
                    ray_x.append(rx)
                    ray_y.append(ry)
                    ray_owner.append(row)
        self._vx = np.asarray(vx, dtype=np.float64)
        self._vy = np.asarray(vy, dtype=np.float64)
        self._starts = np.asarray(starts[:-1], dtype=np.intp)
        self._ray_x = np.asarray(ray_x, dtype=np.float64)
        self._ray_y = np.asarray(ray_y, dtype=np.float64)
        self._ray_owner = np.asarray(ray_owner, dtype=np.intp)
        #: ``(upper, slope) -> column``, oldest first.
        self._cache: OrderedDict[tuple[bool, float], np.ndarray] = (
            OrderedDict()
        )
        self._cache_bytes = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_items(
        cls, items: Iterable[tuple[int, GeneralizedTuple]]
    ) -> "DualSurface":
        """Build from ``(tuple_id, tuple)`` pairs (e.g. a heap scan)."""
        tids: list[int] = []
        tuples: list[GeneralizedTuple] = []
        for tid, t in items:
            tids.append(tid)
            tuples.append(t)
        return cls(tids, tuples)

    def __len__(self) -> int:
        return int(self.tids.size)

    # ------------------------------------------------------------------
    # per-slope evaluation
    # ------------------------------------------------------------------
    def top_at(self, slope: float) -> np.ndarray:
        """``TOP^P(slope)`` for every tuple, in one vectorized pass."""
        return self._column(float(slope), upper=True)

    def bot_at(self, slope: float) -> np.ndarray:
        """``BOT^P(slope)`` for every tuple, in one vectorized pass."""
        return self._column(float(slope), upper=False)

    def _column(self, slope: float, upper: bool) -> np.ndarray:
        key = (upper, slope)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._evaluate(slope, upper)
            self._cache[key] = cached
            self._cache_bytes += cached.nbytes
            while (self._cache_bytes > SURFACE_CACHE_BYTES
                   and len(self._cache) > 1):
                _, old = self._cache.popitem(last=False)
                self._cache_bytes -= old.nbytes
        return cached

    def _evaluate(self, slope: float, upper: bool) -> np.ndarray:
        if self.tids.size == 0:
            return np.empty(0, dtype=np.float64)
        # Mirror the scalar support directions exactly:
        # TOP uses c = (-s, 1)  → contribution  (-s)·vx + vy
        # BOT uses c = ( s, -1) → support of s·vx - vy, negated afterwards
        if upper:
            contrib = (-slope) * self._vx + self._vy
        else:
            contrib = slope * self._vx - self._vy
        values = np.maximum.reduceat(contrib, self._starts)
        if self._ray_x.size:
            scale = max(abs(slope), 1.0)
            if upper:
                gain = (-slope) * self._ray_x + self._ray_y
            else:
                gain = slope * self._ray_x - self._ray_y
            unbounded = self._ray_owner[gain > _RAY_TOL * scale]
            values[unbounded] = math.inf
        if not upper:
            values = -values
        for row, t in self._fallback:
            poly = t.extension()
            exact = dual.top(poly, slope) if upper else dual.bot(poly, slope)
            assert exact is not None
            values[row] = exact
        return values

    # ------------------------------------------------------------------
    # Proposition 2.2 answers
    # ------------------------------------------------------------------
    def answer(
        self,
        query_type: str,
        slope: float,
        intercept: float,
        theta: Theta,
        tol: float = ORACLE_TOL,
    ) -> set[int]:
        """Exact oracle answer set for one half-plane selection.

        Applies Proposition 2.2 with the oracle tolerance over the
        vectorized surface values: e.g. ``EXIST(q(>=))`` selects the
        tuples with ``b <= TOP^P(s) + tol``. Bit-identical surface
        values + identical comparisons ⇒ answers identical to the
        scalar oracle (and hence to the refined planner result).
        """
        # set(tolist()) over the masked column: same set as a per-element
        # comprehension, one C pass instead of n int() calls.
        return set(self.answer_tids(query_type, slope, intercept, theta, tol).tolist())

    def answer_tids(
        self,
        query_type: str,
        slope: float,
        intercept: float,
        theta: Theta,
        tol: float = ORACLE_TOL,
    ) -> np.ndarray:
        """:meth:`answer` as a tid column (no Python-set materialisation) —
        the batch executor hands this to :meth:`QueryResult.set_lazy_ids`."""
        surface = self._surface_for(query_type, slope, theta)
        if theta is Theta.GE:
            mask = intercept <= surface + tol
        else:
            mask = intercept >= surface - tol
        return self.tids[mask]

    def _surface_for(
        self, query_type: str, slope: float, theta: Theta
    ) -> np.ndarray:
        if theta not in (Theta.GE, Theta.LE):
            raise GeometryError(
                f"half-plane queries use >= or <=, got {theta}"
            )
        if query_type == "EXIST":
            use_top = theta is Theta.GE
        elif query_type == "ALL":
            use_top = theta is Theta.LE
        else:
            raise GeometryError(
                f"query type must be ALL or EXIST, got {query_type!r}"
            )
        return self.top_at(slope) if use_top else self.bot_at(slope)

    def __repr__(self) -> str:
        return (
            f"<DualSurface tuples={len(self)} vertices={self._vx.size} "
            f"rays={self._ray_x.size} slopes_cached={len(self._cache)}>"
        )


def surfaces_equal_scalar(
    surface: DualSurface, tuples: Sequence[GeneralizedTuple], slope: float
) -> bool:
    """Debug helper: does the vectorized pass match the scalar engine?

    Compares bit-for-bit (infinities included); used by the test-suite.
    """
    top = surface.top_at(slope)
    bot = surface.bot_at(slope)
    for i, t in enumerate(tuples):
        poly = t.extension()
        if dual.top(poly, slope) != top[i] or dual.bot(poly, slope) != bot[i]:
            return False
    return True
