"""The restricted technique's sweep (Section 3), for one or many queries.

Every restricted-slope read goes through :func:`restricted_sweep`: the
sequential exact path (one intercept), T1's app-queries (one intercept,
nothing accepted early) and the batch executor's slope groups (many
intercepts, one merged sweep). The tree runs one
``sweep_up_multi``/``sweep_down_multi``, and the split into
accepted/boundary candidates is one ``np.searchsorted`` over the swept
key column.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.obs import trace as obs


def restricted_sweep(
    index,
    query_type: str,
    theta,
    slope_index: int,
    intercepts: Sequence[float],
    span: str,
    accept: bool = True,
) -> tuple[int, list[tuple[np.ndarray, np.ndarray]]]:
    """One descent + merged sweep of the tree serving ``(query_type,
    θ)`` at ``S[slope_index]``, split per intercept.

    Each intercept's entries run from its quantized start (intercept
    widened by :meth:`DualIndex.margin` against the sweep) to the end of
    the leaf chain. Entries past the margin on the far side are
    *accepted* without refinement; the rest are *boundary* candidates.
    ``accept=False`` (T1's app-queries) accepts nothing: every entry is a
    candidate.

    Returns ``(leaf pages swept, [(accepted rids, boundary rids), ...])``
    with one int64 rid-array pair per intercept.
    """
    trees, upward = index.trees_for(query_type, theta)
    tree = trees[slope_index]
    # The sweep starts one margin behind the intercept and accepts from
    # one margin past it (IEEE negation is exact: b - m == b + -1.0 * m).
    sign = 1.0 if upward else -1.0
    margins = [sign * index.margin(b) for b in intercepts]
    starts = [b - m for b, m in zip(intercepts, margins)]
    ends = [b + m for b, m in zip(intercepts, margins)]
    with obs.span(span, tree=tree.name, queries=len(intercepts)):
        sweep = (
            tree.sweep_up_multi(starts)
            if upward
            else tree.sweep_down_multi(starts)
        )
    keys, rids = sweep.keys, sweep.rids
    if accept:
        # The sweep runs toward the accept region in both directions:
        # ascending keys for an up-sweep (accept keys >= end), descending
        # for a down-sweep (accept keys <= end, i.e. -key >= -end).
        probes = np.array([tree.quantize(e) for e in ends], dtype=np.float64)
        if upward:
            splits = np.searchsorted(keys, probes, side="left")
        else:
            splits = np.searchsorted(-keys, -probes, side="left")
    else:
        splits = [rids.size] * len(intercepts)
    parts = []
    for at, split in zip(sweep.offsets, splits):
        split = max(at, int(split))
        parts.append((rids[split:], rids[at:split]))
    return sweep.leaves, parts
