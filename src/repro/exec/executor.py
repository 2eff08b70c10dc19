"""The batch query execution engine.

Answering ``n`` half-plane selections one at a time costs ``n`` descents,
``n`` sweeps and up to ``n`` refinement fetches of the same heap pages.
:class:`BatchExecutor` answers the same batch with shared work:

* queries on a restricted slope are grouped by ``(slope index, type, θ)``
  — one group is one B+-tree and one sweep direction (Section 3), so the
  whole group is served by a *single* descent plus one merged range sweep
  (:meth:`repro.btree.tree.BPlusTree.sweep_up_multi`);
* boundary candidates of *all* exact groups are refined against one
  shared heap fetch (each distinct page read once per batch, pinned in
  the buffer pool while in use);
* queries on any other slope are answered from the vectorized dual
  surface (:class:`repro.geometry.vectorized.DualSurface`) — one numpy
  pass over the dual representation per distinct slope, not one
  tree traversal per query;
* identical queries hit an LRU result cache
  (:class:`repro.exec.cache.QueryResultCache`), invalidated whenever the
  index version changes.

Every answer set is identical to what :meth:`DualIndexPlanner.query`
returns sequentially (itself oracle-exact); only the page-access bill
changes. Batch I/O is accounted at batch scope (``BatchResult.io``)
because the whole point is that pages are *shared* between queries —
per-query ``QueryResult.io`` is left zero in batch mode.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.planner import SLOPE_TOL, DualIndexPlanner
from repro.core.query import ALL, EXIST, HalfPlaneQuery, QueryResult
from repro.core.refine import refine
from repro.core.restricted import restricted_sweep
from repro.errors import QueryError
from repro.exec.cache import CacheKey, QueryResultCache, cache_key
from repro.exec.grouping import group_queries
from repro.exec.partials import TECH_NAMES, TECH_VECTOR, ShardPartials
from repro.geometry.predicates import all_halfplane, exist_halfplane
from repro.geometry.vectorized import DualSurface
from repro.obs import slopelog
from repro.obs import trace as obs
from repro.obs import tracer
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.storage.heap import rid_pages
from repro.storage.serialize import decode_tuple
from repro.storage.stats import IOStats


@dataclass
class BatchResult:
    """All answers of one batch plus the shared execution accounting."""

    #: Per-query results, aligned with the input query list.
    results: list[QueryResult] = field(default_factory=list)
    #: Page accounting for the *whole* batch (shared work included once).
    io: IOStats = field(default_factory=IOStats)
    cache_hits: int = 0
    cache_misses: int = 0
    exact_groups: int = 0
    vector_groups: int = 0
    #: Leaf pages visited by the merged sweeps.
    sweep_leaves: int = 0
    #: Distinct heap pages fetched by the shared refinement step.
    refinement_pages: int = 0

    @property
    def page_accesses(self) -> int:
        """Total pages the batch touched."""
        return self.io.logical_reads + self.io.logical_writes

    def __len__(self) -> int:
        return len(self.results)

    def __repr__(self) -> str:
        return (
            f"<BatchResult queries={len(self.results)} "
            f"pages={self.page_accesses} cache_hits={self.cache_hits} "
            f"groups={self.exact_groups}+{self.vector_groups}>"
        )


class BatchExecutor:
    """Executes batches of half-plane queries against one planner.

    Parameters
    ----------
    planner:
        The :class:`~repro.core.planner.DualIndexPlanner` whose index the
        batch runs against. Answers always equal ``planner.query``'s.
    cache_size:
        LRU result-cache capacity (0 disables caching).
    registry:
        Metrics registry for cache/batch counters; defaults to the
        process-wide one.

    Example::

        >>> from repro import DualIndexPlanner, GeneralizedRelation, parse_tuple
        >>> from repro.core.query import HalfPlaneQuery
        >>> from repro.exec import BatchExecutor
        >>> r = GeneralizedRelation([parse_tuple("y >= x and y <= 4 and x >= 0")])
        >>> planner = DualIndexPlanner.build(r, slopes=[-1.0, 0.0, 1.0])
        >>> batch = BatchExecutor(planner).execute(
        ...     [HalfPlaneQuery("EXIST", 0.0, 2.0, ">="),
        ...      HalfPlaneQuery("EXIST", 0.0, 2.0, ">=")]
        ... )
        >>> [sorted(res.ids) for res in batch.results]
        [[0], [0]]
        >>> batch.cache_hits   # the duplicate was not re-executed
        1
    """

    def __init__(
        self,
        planner: DualIndexPlanner,
        cache_size: int = 256,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.planner = planner
        self.index = planner.index
        self.cache = QueryResultCache(cache_size)
        self.registry = registry if registry is not None else get_registry()
        self._surface: DualSurface | None = None
        self._surface_version: int | None = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(self, queries: Sequence[HalfPlaneQuery]) -> BatchResult:
        """Answer every query in the batch; results align with inputs.

        Cache hits are served first; every other query runs through the
        grouped-execution core (:meth:`_run`), whose answers are wrapped
        as :class:`QueryResult` objects and published to the cache.
        """
        queries = list(queries)
        version = self._begin(queries)
        if self.planner.slope_logging:
            for query in queries:
                slopelog.record(query.slope_2d, query.query_type)
        batch = BatchResult(results=[None] * len(queries))  # type: ignore[list-item]
        hits0, misses0 = self.cache.hits, self.cache.misses
        with self._scope(len(queries)) as scope:
            # Only the first occurrence of a query consults the cache; a
            # later copy of a missed query is a hit on the answer being
            # computed.
            keys = [cache_key(query) for query in queries]
            first: dict[CacheKey, int] = {}
            fresh: list[int] = []
            for position, (query, key) in enumerate(zip(queries, keys)):
                if key not in first:
                    cached = self.cache.get(query, version)
                    if cached is not None:
                        batch.results[position] = _clone_cached(cached)
                        continue
                    first[key] = position
                fresh.append(position)
            parts, columns = self._run([queries[p] for p in fresh], version)
            self.cache.hits += parts.cache_hits
            # The cache keeps its own copy of each answer, so a caller
            # mutating its result cannot corrupt later hits.
            for position, result, stored in zip(
                fresh, _results(parts, columns), _results(parts, columns)
            ):
                origin = first[keys[position]]
                if origin != position:
                    batch.results[position] = _clone_cached(
                        batch.results[origin]
                    )
                    continue
                self.cache.put(queries[position], stored, version)
                batch.results[position] = result
        batch.io = scope.delta
        batch.cache_hits = self.cache.hits - hits0
        batch.cache_misses = self.cache.misses - misses0
        batch.exact_groups = parts.exact_groups
        batch.vector_groups = parts.vector_groups
        batch.sweep_leaves = parts.sweep_leaves
        batch.refinement_pages = parts.refinement_pages
        self._record_metrics(batch)
        return batch

    def execute_partials(self, queries: Sequence[HalfPlaneQuery]) -> ShardPartials:
        """Answer a batch as compact :class:`ShardPartials` columns.

        The same core, answers and accounting as :meth:`execute`, but
        per-query results stay numpy columns — no :class:`QueryResult`
        objects, no result cache. This is the lean path the process
        fan-out workers run: on a fanned-out batch the per-query Python
        assembly would otherwise be repeated on every shard, and it is
        exactly the cost that does not shrink with the shard count.
        """
        queries = list(queries)
        version = self._begin(queries)
        with self._scope(len(queries)) as scope:
            out, columns = self._run(queries, version)
        out.io = scope.delta
        sizes = np.fromiter(
            (c.size for c in columns), dtype=np.int64, count=len(columns)
        )
        out.offsets = np.zeros(len(columns) + 1, dtype=np.int64)
        np.cumsum(sizes, out=out.offsets[1:])
        if columns:
            out.tids = np.concatenate(columns)
        return out

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    def _begin(self, queries: list[HalfPlaneQuery]) -> int:
        """Validate the batch, run pending maintenance, return the index
        version the batch answers against."""
        for query in queries:
            if query.dimension != 2:
                raise QueryError("BatchExecutor is 2-D; use DDimPlanner")
        if self.planner.index.dynamic and self.planner._has_dirty_leaves():
            with obs.span("maintain", pager=self.index.pager):
                self.index.refresh_handicaps()
        return self.index.version

    @contextmanager
    def _scope(self, n: int) -> Iterator:
        """The batch span plus the I/O measurement of its whole body."""
        with obs.span("batch", pager=self.index.pager,
                      index=self.index.name, queries=n,
                      **_trace_meta()):
            with self.index.pager.measure() as scope:
                yield scope

    def _run(
        self, queries: list[HalfPlaneQuery], version: int
    ) -> tuple[ShardPartials, list[np.ndarray]]:
        """The grouped-execution core: answers as :class:`ShardPartials`
        counters plus one accepted-tid column per query."""
        n = len(queries)
        out = ShardPartials(
            extras=[None] * n,
            technique=np.zeros(n, dtype=np.uint8),
            candidates=np.zeros(n, dtype=np.int64),
            false_hits=np.zeros(n, dtype=np.int64),
            accepted_without_refinement=np.zeros(n, dtype=np.int64),
            refinement_pages_q=np.zeros(n, dtype=np.int64),
        )
        columns: list = [None] * n

        # 1. Intra-batch duplicates execute once.
        origin = [0] * n
        first: dict[CacheKey, int] = {}
        fresh: list[tuple[int, HalfPlaneQuery]] = []
        for position, query in enumerate(queries):
            origin[position] = first.setdefault(cache_key(query), position)
            if origin[position] == position:
                fresh.append((position, query))
        out.cache_misses = len(fresh)
        out.cache_hits = n - len(fresh)

        # 2. Group the fresh queries by shared work.
        exact_groups, vector_groups = group_queries(
            fresh, self.index.slopes, SLOPE_TOL
        )
        out.exact_groups = len(exact_groups)
        out.vector_groups = len(vector_groups)

        # 3. One descent + merged sweep per exact group, split per query
        # into accepted and boundary candidates.
        work: list[tuple[HalfPlaneQuery, np.ndarray]] = []
        refined_at: list[int] = []
        for group in exact_groups:
            leaves, splits = restricted_sweep(
                self.index, group.query_type, group.queries[0].theta,
                group.slope_index, [q.intercept for q in group.queries],
                "sweep.batch",
            )
            out.sweep_leaves += leaves
            for position, query, (accepted, boundary) in zip(
                group.indices, group.queries, splits
            ):
                columns[position] = self.index.tids_for_rids(accepted)
                out.candidates[position] = accepted.size + boundary.size
                out.accepted_without_refinement[position] = accepted.size
                if boundary.size:
                    work.append((query, boundary))
                    refined_at.append(position)

        # 4. One shared refinement fetch for the boundary candidates of
        # every exact group, their heap pages pinned in the buffer pool.
        if work:
            pages = rid_pages(np.concatenate([b for _q, b in work]))
            with self.index.pager.pinned(pages.tolist()):
                refined, out.refinement_pages = refine(
                    self.index, work,
                    {ALL: all_halfplane, EXIST: exist_halfplane},
                )
            for position, (confirmed, false_hits, query_pages) in zip(
                refined_at, refined
            ):
                out.extras[position] = confirmed or None
                out.false_hits[position] = false_hits
                out.refinement_pages_q[position] = query_pages

        # 5. Vectorized path: one dual-surface pass per distinct slope.
        for group in vector_groups:
            surface = self._surface_for(version)
            for position, query in zip(group.indices, group.queries):
                out.technique[position] = TECH_VECTOR
                columns[position] = surface.answer_tids(
                    query.query_type,
                    query.slope_2d,
                    query.intercept,
                    query.theta,
                )
                out.candidates[position] = len(surface)

        # 6. Duplicates share the first occurrence's answer.
        for position, source in enumerate(origin):
            if source == position:
                continue
            columns[position] = columns[source]
            out.extras[position] = out.extras[source]
            for column in (out.technique, out.candidates, out.false_hits,
                           out.accepted_without_refinement,
                           out.refinement_pages_q):
                column[position] = column[source]
        return out, columns

    # ------------------------------------------------------------------
    # vector path
    # ------------------------------------------------------------------
    def _surface_for(self, version: int) -> DualSurface:
        """The dual surface of the current index contents (memoised).

        Building it costs one heap scan (each heap page one logical
        read); the surface then answers any number of non-restricted
        slopes without further I/O until the index version changes.
        """
        if self._surface is None or self._surface_version != version:
            with obs.span("surface.build"):
                self._surface = DualSurface.from_items(
                    decode_tuple(data) for _rid, data in self.index.heap.scan()
                )
            self._surface_version = version
        return self._surface

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _record_metrics(self, batch: BatchResult) -> None:
        reg = self.registry
        reg.counter("exec_batches", "Batches executed").inc()
        reg.counter("exec_batch_queries", "Queries answered in batches").inc(
            len(batch.results)
        )
        reg.counter("exec_cache_hits", "Batch result-cache hits").inc(
            batch.cache_hits
        )
        reg.counter("exec_cache_misses", "Batch result-cache misses").inc(
            batch.cache_misses
        )
        reg.counter("exec_merged_sweeps", "Merged multi-key sweeps").inc(
            batch.exact_groups
        )
        reg.counter(
            "exec_vector_passes", "Vectorized dual-surface slope groups"
        ).inc(batch.vector_groups)
        reg.gauge("exec_cache_entries", "Resident cached results").set(
            len(self.cache)
        )

    def __repr__(self) -> str:
        return f"<BatchExecutor index={self.index.name!r} cache={self.cache!r}>"


def _results(parts: ShardPartials, columns: list) -> Iterator[QueryResult]:
    """Each query of a core run as a fresh :class:`QueryResult` (tid
    columns are shared read-only, refined extras are copied)."""
    for technique, candidates, false_hits, accepted, pages, tids, extra in zip(
        parts.technique.tolist(),
        parts.candidates.tolist(),
        parts.false_hits.tolist(),
        parts.accepted_without_refinement.tolist(),
        parts.refinement_pages_q.tolist(),
        columns,
        parts.extras,
    ):
        result = QueryResult(
            technique=TECH_NAMES[technique],
            candidates=candidates,
            false_hits=false_hits,
            accepted_without_refinement=accepted,
            refinement_pages=pages,
        )
        result.set_lazy_ids(tids, set(extra) if extra else None)
        yield result


def _clone_cached(result: QueryResult) -> QueryResult:
    """An independent copy of a cached result, marked as served-from-cache.

    The I/O block is zeroed: a cache hit touches no pages.
    """
    return QueryResult(
        ids=set(result.ids),
        technique=result.technique,
        candidates=result.candidates,
        false_hits=result.false_hits,
        duplicates=result.duplicates,
        accepted_without_refinement=result.accepted_without_refinement,
        refinement_pages=result.refinement_pages,
        cached=True,
    )


def _trace_meta() -> dict:
    """Span meta tagging the batch with the active request's trace id
    (empty when no request context is installed — the common case)."""
    ctx = tracer.context()
    return {"trace": ctx.trace_id} if ctx is not None else {}
