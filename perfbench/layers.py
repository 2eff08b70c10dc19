"""The program's layer boundaries, wrapped for the traced run.

:func:`install` replaces each public function at the name its caller
resolves -- a class attribute, or a module global of the calling module
-- with a wrapper that records a span through a :class:`SpanRecorder`.
Nothing under ``src/`` changes; an untraced process never calls it.
Span names start with the layer, which is the module package the
function lives in: ``serve``, ``exec``, ``btree``, ``core``,
``geometry`` and ``storage``.

:func:`layer_metrics` turns the spans of one measured window into the
per-layer metrics named in ``spec.json``.
"""

from __future__ import annotations

import asyncio
import functools
from collections import defaultdict

from spans import Span, SpanRecorder, self_times

LAYERS = ("serve", "exec", "btree", "core", "geometry", "storage")
#: Spans that measure waiting, not work; they carry no self time.
WAIT_SPANS = ("serve.wait",)
#: Root spans under which pages count as read work.
READ_ROOTS = ("core.query", "core.query_batch")


def _planner_pager(args):
    return args[0].index.pager


def _own_pager(args):
    return args[0].pager


def _wal_size(planner) -> int:
    wal = getattr(planner.index.pager.disk, "wal", None)
    return wal.size_bytes if wal is not None else 0


def _answer_counts(results) -> dict:
    cand = ans = false_hits = 0
    for result in results:
        if result.cached:
            continue
        cand += result.candidates
        ans += result.answer_count
        false_hits += result.false_hits
    return {"cand": cand, "ans": ans, "fh": false_hits}


def install(rec: SpanRecorder) -> None:
    """Wrap every boundary the per-layer metrics read."""
    from repro.btree.tree import BPlusTree
    from repro.core import planner as planner_mod
    from repro.core.dual_index import DualIndex
    from repro.exec import executor as executor_mod
    from repro.geometry.vectorized import DualSurface
    from repro.serve import server as server_mod
    from repro.serve.coalesce import Coalescer
    from repro.serve.protocol import FrameDecoder
    from repro.storage import checkpoint as checkpoint_mod
    from repro.storage import serialize as serialize_mod
    from repro.storage.heap import HeapFile
    from repro.storage.wal import WriteAheadLog

    def wrap(owner, attr, name, pager_of=None, after=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return rec.call(name, fn, args, kwargs,
                            pager=pager_of(args) if pager_of else None,
                            after=after)

        setattr(owner, attr, wrapper)

    def wrap_iter(owner, attr, name, pager_of):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return rec.iterate(name, fn(*args, **kwargs),
                               pager=pager_of(args))

        setattr(owner, attr, wrapper)

    def wrap_wal(owner, attr, name):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = _wal_size(args[0])
            return rec.call(
                name, fn, args, kwargs, pager=_planner_pager(args),
                after=lambda a, _r: {"wal": _wal_size(a[0]) - before})

        setattr(owner, attr, wrapper)

    # serve: wire decode, coalescing wait, response encode.
    wrap(FrameDecoder, "feed", "serve.feed",
         after=lambda _a, r: {"frames": len(r) if r is not None else 0})
    wrap(server_mod, "query_from_request", "serve.parse")

    submitted: dict[int, float] = {}
    answered: dict[object, float] = {}
    submit = Coalescer.submit

    @functools.wraps(submit)
    async def traced_submit(self, item):
        submitted[id(item[0])] = rec.clock()
        result = await submit(self, item)
        answered[asyncio.current_task()] = rec.clock()
        return result

    Coalescer.submit = traced_submit

    encode = server_mod.encode_frame

    @functools.wraps(encode)
    def traced_encode(*args, **kwargs):
        try:
            start = answered.pop(asyncio.current_task(), None)
        except RuntimeError:
            start = None
        frame = encode(*args, **kwargs)
        if start is not None:
            rec.record("serve.encode", start, rec.clock())
        return frame

    server_mod.encode_frame = traced_encode

    query_batch = planner_mod.DualIndexPlanner.query_batch

    @functools.wraps(query_batch)
    def traced_query_batch(self, queries):
        began = rec.clock()
        for query in queries:
            start = submitted.pop(id(query), None)
            if start is not None:
                rec.record("serve.wait", start, began)
        return rec.call(
            "core.query_batch", query_batch, (self, queries),
            pager=self.index.pager,
            after=lambda _a, r: dict(
                _answer_counts(r.results) if r is not None else {},
                queries=len(queries)))

    planner_mod.DualIndexPlanner.query_batch = traced_query_batch
    wrap(server_mod, "maybe_checkpoint", "storage.checkpoint",
         pager_of=_planner_pager,
         after=lambda _a, r: {"fired": bool(r)})

    # exec: batch execution, the dual-surface vector route.
    wrap(executor_mod.BatchExecutor, "execute", "exec.execute",
         pager_of=lambda a: a[0].index.pager)
    from_items = DualSurface.__dict__["from_items"].__func__

    @functools.wraps(from_items)
    def traced_from_items(cls, items):
        return rec.call("exec.surface_build", from_items, (cls, items))

    DualSurface.from_items = classmethod(traced_from_items)
    wrap(DualSurface, "answer_tids", "exec.vector")

    # btree: sweeps and leaf reads.
    wrap(BPlusTree, "sweep_up_multi", "btree.sweep_multi", _own_pager)
    wrap(BPlusTree, "sweep_down_multi", "btree.sweep_multi", _own_pager)
    wrap_iter(BPlusTree, "sweep_up", "btree.sweep", _own_pager)
    wrap_iter(BPlusTree, "sweep_down", "btree.sweep", _own_pager)
    wrap(BPlusTree, "read_leaf", "btree.read_leaf", _own_pager)

    # core: the planner's query, T2 candidates, mutations, maintenance.
    wrap(planner_mod.DualIndexPlanner, "query", "core.query",
         _planner_pager,
         after=lambda _a, r: _answer_counts([r]) if r is not None else {})
    wrap(planner_mod, "t2_candidates", "core.candidates", _own_pager)
    wrap_wal(planner_mod.DualIndexPlanner, "insert", "core.mutation")
    wrap_wal(planner_mod.DualIndexPlanner, "delete", "core.mutation")
    wrap_wal(planner_mod.DualIndexPlanner, "commit", "core.commit")
    wrap(DualIndex, "refresh_handicaps", "core.maintain", _own_pager)

    # geometry: the refinement predicates, where each caller finds them.
    for module in (planner_mod, executor_mod):
        wrap(module, "all_halfplane", "geometry.predicate")
        wrap(module, "exist_halfplane", "geometry.predicate")

    # storage: record fetches, decoding, the WAL, catalog writes.
    wrap(HeapFile, "fetch_batch", "storage.fetch", _own_pager)
    wrap_iter(HeapFile, "scan", "storage.scan", _own_pager)
    wrap(serialize_mod, "decode_tuple", "storage.decode")
    wrap(executor_mod, "decode_tuple", "storage.decode")
    wrap(WriteAheadLog, "commit", "storage.wal_commit")
    wrap(checkpoint_mod, "write_catalog", "storage.catalog_write")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _count(span: Span, key: str) -> float:
    return (span.extra or {}).get(key, 0)


def _per_call(spans: list[Span]) -> list[float]:
    """Durations per call; the per-item spans of one iteration sum to
    one call."""
    calls: dict[object, float] = defaultdict(float)
    for span in spans:
        calls[_count(span, "call") or ("span", span.sid)] += span.duration
    return list(calls.values())


def layer_metrics(spans: list[Span], t0: float, t1: float,
                  cache_hits: float = 0.0,
                  cache_misses: float = 0.0) -> dict[str, float]:
    """Per-layer metrics over the spans that lie inside ``[t0, t1]``."""
    own = self_times(spans)
    by_sid = {span.sid: span for span in spans}
    window = [s for s in spans if s.start >= t0 and s.end <= t1]
    named: dict[str, list[Span]] = defaultdict(list)
    for span in window:
        named[span.name].append(span)

    def durations(name):
        return [s.duration for s in named[name]]

    def root_name(span):
        root = by_sid.get(span.root)
        return root.name if root is not None else ""

    reads = sum(_count(s, "queries") for s in named["core.query_batch"]) \
        + len(named["core.query"])
    per_read = 1.0 / reads if reads else 0.0
    out: dict[str, float] = {}

    frames = sum(_count(s, "frames") for s in named["serve.feed"])
    decode = sum(durations("serve.feed")) + sum(durations("serve.parse"))
    out["serve.decode_us"] = decode / frames * 1e6 if frames else 0.0
    out["serve.wait_ms"] = _mean(durations("serve.wait")) * 1e3
    out["serve.batch_queries"] = _mean(
        _count(s, "queries") for s in named["core.query_batch"])
    out["serve.encode_us"] = _mean(durations("serve.encode")) * 1e6

    out["exec.batch_ms"] = _mean(
        own[s.sid] for s in named["exec.execute"]) * 1e3
    lookups = cache_hits + cache_misses
    out["exec.cache_hit_ratio"] = cache_hits / lookups if lookups else 0.0
    builds = durations("exec.surface_build")
    out["exec.surface_builds"] = float(len(builds))
    out["exec.surface_build_ms"] = _mean(builds) * 1e3
    out["exec.rebuild_total_s"] = float(sum(builds))
    out["exec.vector_us"] = _mean(durations("exec.vector")) * 1e6

    out["btree.sweep_ms"] = _mean(
        durations("btree.sweep_multi") + _per_call(named["btree.sweep"])
    ) * 1e3
    index_pages = sum(
        _count(s, "reads") for name in
        ("btree.sweep_multi", "btree.sweep", "btree.read_leaf")
        for s in named[name]
        if root_name(s) in READ_ROOTS
        and not (s.parent in by_sid
                 and by_sid[s.parent].name.startswith("btree.")))
    out["btree.index_pages_per_query"] = index_pages * per_read

    queries = named["core.query"]
    out["core.query_ms"] = _mean(durations("core.query")) * 1e3
    out["core.candidates_ms"] = _mean(durations("core.candidates")) * 1e3
    candidate_end = {s.parent: s.end for s in named["core.candidates"]}
    out["core.refine_ms"] = _mean(
        q.end - candidate_end[q.sid] for q in queries
        if q.sid in candidate_end) * 1e3
    out["core.accounted_frac"] = (
        (out["core.candidates_ms"] + out["core.refine_ms"])
        / out["core.query_ms"] if out["core.query_ms"] else 0.0)
    answering = queries + named["core.query_batch"]
    cand = sum(_count(s, "cand") for s in answering)
    ans = sum(_count(s, "ans") for s in answering)
    out["core.candidates_per_answer"] = cand / ans if ans else 0.0
    out["core.false_hit_ratio"] = (
        sum(_count(s, "fh") for s in answering) / cand if cand else 0.0)
    mutations = named["core.mutation"]
    out["core.mutation_ms"] = _mean(durations("core.mutation")) * 1e3
    out["core.maintain_ms"] = _mean(durations("core.maintain")) * 1e3

    predicates = durations("geometry.predicate")
    out["geometry.predicate_us"] = _mean(predicates) * 1e6
    out["geometry.predicate_calls_per_query"] = len(predicates) * per_read

    out["storage.reads_per_query"] = sum(
        _count(s, "reads") for s in answering) * per_read
    out["storage.heap_pages_per_query"] = sum(
        _count(s, "reads") for s in named["storage.fetch"]
        if root_name(s) in READ_ROOTS) * per_read
    out["storage.fetch_ms"] = _mean(
        durations("storage.fetch") + _per_call(named["storage.scan"])) * 1e3
    per_write = 1.0 / len(mutations) if mutations else 0.0
    out["storage.writes_per_mutation"] = sum(
        _count(s, "writes") for s in mutations) * per_write
    out["storage.wal_bytes_per_write"] = sum(
        _count(s, "wal") for s in mutations + named["core.commit"]) \
        * per_write
    out["storage.commit_ms"] = _mean(durations("storage.wal_commit")) * 1e3
    fired = [s.duration for s in named["storage.checkpoint"]
             if _count(s, "fired")]
    out["storage.checkpoints"] = float(len(fired))
    out["storage.checkpoint_ms"] = _mean(fired) * 1e3

    elapsed = t1 - t0
    busy: dict[str, float] = defaultdict(float)
    for span in window:
        if span.name not in WAIT_SPANS:
            busy[span.name.split(".", 1)[0]] += own[span.sid]
    for layer in LAYERS:
        out[f"{layer}.share"] = busy[layer] / elapsed if elapsed else 0.0
    out["run.elapsed_s"] = elapsed
    return out
