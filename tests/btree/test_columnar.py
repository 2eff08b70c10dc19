"""Columnar node codecs and vectorized descent vs a brute-force reference.

Array (de)serialization round-trips must carry exactly what the list
decoders carry, and ``np.searchsorted`` descent and merged sweeps must
agree with a plain sorted list of the inserted (quantized) entries on
the degenerate shapes where off-by-ones live — empty trees, a single
leaf, long duplicate-key runs, and start keys that hit stored keys
exactly.
"""

import numpy as np
import pytest

from repro.btree import BPlusTree
from repro.btree.columnar import ColumnarCache
from repro.btree.node import LeafNode, InternalNode, NodeLayout
from repro.storage import KeyCodec, Pager


def make_layout(key_bytes=8, aux_slots=0, page_size=256):
    return NodeLayout(page_size, KeyCodec(key_bytes), aux_slots)


def loaded_tree(entries, key_bytes=8, page_size=256):
    """A small-page tree with ``entries`` inserted one by one, and the
    scalar reference: the sorted list of its quantized entries."""
    tree = BPlusTree(Pager(page_size=page_size), KeyCodec(key_bytes))
    for key, rid in entries:
        tree.insert(key, rid)
    reference = sorted((tree.quantize(k), rid) for k, rid in entries)
    return tree, reference


class TestArrayRoundTrips:
    @pytest.mark.parametrize("key_bytes", [4, 8])
    def test_leaf_arrays_match_scalar_decode(self, key_bytes):
        layout = make_layout(key_bytes=key_bytes, aux_slots=2)
        node = LeafNode(
            keys=[-3.25, -3.25, 0.0, 1.5, 7.75],
            rids=[5, 9, 1, 0, 4_000_000_000],
            prev=12, next=13,
            aux=[1.5, -2.25],
        )
        data = layout.encode_leaf(node)
        scalar = layout.decode_leaf(data)
        arrays = layout.decode_leaf_arrays(data)
        assert arrays.keys.tolist() == scalar.keys
        assert arrays.rids.tolist() == scalar.rids
        assert (arrays.prev, arrays.next) == (scalar.prev, scalar.next)
        assert arrays.keys.dtype == np.float64
        assert arrays.rids.dtype == np.int64

    def test_leaf_arrays_empty(self):
        layout = make_layout()
        data = layout.encode_leaf(LeafNode())
        arrays = layout.decode_leaf_arrays(data)
        assert arrays.keys.size == 0
        assert arrays.rids.size == 0

    def test_leaf_arrays_read_only(self):
        layout = make_layout()
        data = layout.encode_leaf(LeafNode(keys=[1.0], rids=[2]))
        arrays = layout.decode_leaf_arrays(data)
        with pytest.raises(ValueError):
            arrays.keys[0] = 9.0
        with pytest.raises(ValueError):
            arrays.rids[0] = 9

    @pytest.mark.parametrize("key_bytes", [4, 8])
    def test_internal_arrays_match_scalar_decode(self, key_bytes):
        layout = make_layout(key_bytes=key_bytes)
        node = InternalNode(
            seps=[(-1.0, 3), (2.5, 0), (2.5, 7)],
            children=[10, 11, 12, 13],
        )
        data = layout.encode_internal(node)
        scalar = layout.decode_internal(data)
        arrays = layout.decode_internal_arrays(data)
        assert list(zip(arrays.keys.tolist(), arrays.rids.tolist())) == scalar.seps
        assert arrays.children.tolist() == scalar.children
        assert len(arrays.children) == len(arrays.keys) + 1

    def test_internal_arrays_sentinel_rid_widens(self):
        # 0xFFFFFFFF on page must survive as a positive int64, not wrap.
        layout = make_layout()
        node = InternalNode(seps=[(0.0, 0xFFFFFFFF)], children=[1, 2])
        data = layout.encode_internal(node)
        arrays = layout.decode_internal_arrays(data)
        assert arrays.rids[0] == 0xFFFFFFFF

    def test_quantized_keys_identical_across_decoders(self):
        # 4-byte keys quantize; both decoders must widen the *same* f32.
        layout = make_layout(key_bytes=4)
        keys = [0.1, 1e-40, 3.14159265358979, -2.0 / 3.0]
        data = layout.encode_leaf(LeafNode(keys=keys, rids=[0, 1, 2, 3]))
        assert layout.decode_leaf_arrays(data).keys.tolist() == \
            layout.decode_leaf(data).keys


class TestColumnarCache:
    def test_decode_once_then_hit(self):
        layout = make_layout()
        cache = ColumnarCache(layout)
        data = layout.encode_leaf(LeafNode(keys=[1.0], rids=[2]))
        first = cache.leaf(7, data)
        assert cache.leaf(7, data) is first
        cache.invalidate(7)
        assert cache.leaf(7, data) is not first

    def test_capacity_evicts_without_changing_answers(self):
        layout = make_layout()
        cache = ColumnarCache(layout, capacity=2)
        images = {
            pid: layout.encode_leaf(LeafNode(keys=[float(pid)], rids=[pid]))
            for pid in range(5)
        }
        for pid, data in images.items():
            cache.leaf(pid, data)
        assert len(cache) <= 2
        for pid, data in images.items():
            assert cache.leaf(pid, data).keys.tolist() == [float(pid)]


#: Degenerate entry sets the descent/sweep comparison runs over.
DEGENERATE_CASES = {
    "empty": [],
    "single-leaf": [(2.0, 0), (4.0, 1), (4.5, 2)],
    "duplicate-keys": [(1.0, rid) for rid in range(120)]
    + [(2.0, rid) for rid in range(120, 150)],
    "deep-mixed": [((i * 7) % 50 / 3.0, i) for i in range(300)],
}


def starts_for(entries):
    """Probe keys: every stored key (boundary-exact), midpoints, and
    out-of-range sentinels on both sides."""
    keys = sorted({k for k, _ in entries})
    starts = list(keys)
    starts += [(a + b) / 2.0 for a, b in zip(keys, keys[1:])]
    starts += [-1e9, 1e9, 0.0]
    return starts


@pytest.mark.parametrize("case", sorted(DEGENERATE_CASES))
class TestDescentParity:
    """Descent and merged sweeps against the scalar reference: a plain
    sorted list of the quantized entries."""

    def test_search_matches_scalar(self, case):
        tree, reference = loaded_tree(DEGENERATE_CASES[case])
        for key in starts_for(DEGENERATE_CASES[case]):
            qkey = tree.quantize(key)
            want = [rid for k, rid in reference if k == qkey]
            assert tree.search(key) == want, key
        tree.check_invariants()

    def test_multi_sweeps_match_scalar(self, case):
        tree, reference = loaded_tree(DEGENERATE_CASES[case])
        starts = starts_for(DEGENERATE_CASES[case])
        up = tree.sweep_up_multi(starts)
        down = tree.sweep_down_multi(starts)
        for got in (up, down):
            assert got.keys.dtype == np.float64
            assert got.rids.dtype == np.int64
            assert len(got.offsets) == len(starts)
        for i, start in enumerate(starts):
            q = tree.quantize(start)
            want_up = [e for e in reference if e[0] >= q]
            want_down = [e for e in reversed(reference) if e[0] <= q]
            assert list(zip(*up.entries_for(i))) == want_up, start
            assert list(zip(*down.entries_for(i))) == want_down, start
            # Alone, each start is the sweep's extreme: its descent and
            # first-leaf trim are exercised, not just its offset.
            alone_up = tree.sweep_up_multi([start])
            alone_down = tree.sweep_down_multi([start])
            assert list(zip(*alone_up.entries_for(0))) == want_up, start
            assert list(zip(*alone_down.entries_for(0))) == want_down, start

    def test_page_accounting_bit_identical(self, case):
        # A merged sweep costs exactly the widest single sweep: one
        # descent to the extreme start, then every leaf to the chain end.
        tree, _ = loaded_tree(DEGENERATE_CASES[case])
        starts = starts_for(DEGENERATE_CASES[case])
        descent = max(tree.height - 1, 0)
        for multi, single, widest in (
            (tree.sweep_up_multi, tree.items_from, min(starts)),
            (tree.sweep_down_multi, tree.items_to, max(starts)),
        ):
            with tree.pager.measure() as scope:
                sweep = multi(starts)
            merged = scope.delta.logical_reads
            with tree.pager.measure() as scope:
                list(single(widest))
            assert merged == scope.delta.logical_reads
            assert sweep.leaves == merged - (descent if sweep.leaves else 0)


class TestWriteInvalidation:
    def test_insert_after_read_is_visible(self):
        # A cached decoded page must never mask a subsequent write.
        tree, _ = loaded_tree([(float(i), i) for i in range(50)])
        assert tree.search(25.0) == [25]
        tree.insert(25.0, 999)
        assert sorted(tree.search(25.0)) == [25, 999]
        tree.delete(25.0, 25)
        assert tree.search(25.0) == [999]
        tree.check_invariants()
