"""The refinement step every technique ends in (Sections 3 and 4).

Candidates from the restricted sweep, T1 or T2 are only a superset of the
answer. :func:`refine` fetches them — each distinct heap page once, for
one query or a whole batch — decodes each record once and applies the
exact ALL/EXIST predicate per query, so the final answer always equals
the oracle's. The sequential planner and the batch executor both call it;
each passes its own predicates, so a caller that wraps them sees every
predicate call.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.obs import trace as obs
from repro.storage import serialize
from repro.storage.heap import rid_pages


def refine(
    index,
    work: Sequence[tuple[object, np.ndarray]],
    predicates: Mapping[str, Callable],
) -> tuple[list[tuple[set[int], int, int]], int]:
    """Verify the candidate rids of each ``(query, rids)`` in ``work``.

    ``predicates`` maps a query type (``ALL``/``EXIST``) to its exact
    half-plane predicate. The union of all candidates is fetched in one
    page-batched read, so a page shared by several queries costs one
    access.

    Returns one ``(confirmed tids, false hits, distinct heap pages of
    this query's candidates)`` per work item, plus the distinct heap
    pages fetched for the whole call.
    """
    # Which work items want each rid: every record is decoded once and
    # dropped after its checks, so a large candidate set never holds all
    # its decoded tuples (and their cached polyhedra) at once.
    wanted: dict[int, list[int]] = {}
    for item, (_query, rids) in enumerate(work):
        for rid in rids.tolist():
            wanted.setdefault(rid, []).append(item)
    every = sorted(wanted)
    with obs.span("fetch", rids=len(every)):
        records = index.heap.fetch_batch(every)
    confirmed: list[set[int]] = [set() for _ in work]
    false_hits = [0] * len(work)
    with obs.span("verify"):
        for rid, data in records.items():
            tid, t = serialize.decode_tuple(data)
            extension = t.extension()
            for item in wanted[rid]:
                query = work[item][0]
                if predicates[query.query_type](
                    extension, query.slope_2d, query.intercept, query.theta
                ):
                    confirmed[item].add(tid)
                else:
                    false_hits[item] += 1
        obs.incr("refine.confirmed", sum(len(c) for c in confirmed))
        obs.incr("refine.false_hits", sum(false_hits))
    pages = [int(rid_pages(rids).size) for _query, rids in work]
    return list(zip(confirmed, false_hits, pages)), int(rid_pages(every).size)
