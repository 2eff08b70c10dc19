"""Span recording, self time and the percentile rule."""

import pytest

from spans import (Span, SpanRecorder, covered_length, load_spans,
                   nearest_rank, self_times)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_nested_calls_record_parents_roots_and_self_time():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def leaf(cost):
        clock.advance(cost)

    def middle():
        clock.advance(1.0)
        rec.call("leaf", leaf, (2.0,))
        clock.advance(0.5)
        rec.call("leaf", leaf, (3.0,))

    def outer():
        rec.call("middle", middle)
        clock.advance(4.0)

    rec.call("outer", outer)
    by_name = {}
    for span in rec.spans:
        by_name.setdefault(span.name, []).append(span)
    (outer_span,) = by_name["outer"]
    (middle_span,) = by_name["middle"]
    leaves = by_name["leaf"]
    assert outer_span.duration == 10.5
    assert middle_span.parent == outer_span.sid
    assert all(s.parent == middle_span.sid for s in leaves)
    assert {s.root for s in rec.spans} == {outer_span.sid}

    own = self_times(rec.spans)
    assert own[outer_span.sid] == pytest.approx(4.0)
    assert own[middle_span.sid] == pytest.approx(1.5)
    assert sorted(own[s.sid] for s in leaves) == [2.0, 3.0]
    # Self times partition the root's wall time.
    assert sum(own.values()) == pytest.approx(outer_span.duration)


def test_self_time_counts_overlapping_children_once():
    parent = Span(1, "p", 0.0, 10.0, None, 1, None)
    children = [
        Span(2, "c", 1.0, 4.0, 1, 1, None),
        Span(3, "c", 3.0, 6.0, 1, 1, None),   # overlaps the first
        Span(4, "c", 9.0, 12.0, 1, 1, None),  # runs past the parent
    ]
    own = self_times([parent, *children])
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert covered_length([(1, 4), (3, 6), (9, 12)], 0, 10) == 6.0
    assert covered_length([], 0, 10) == 0.0


def test_dump_and_load_round_trip(tmp_path):
    rec = SpanRecorder()
    rec.call("a", lambda: None, extra={"frames": 3})
    rec.record("b", 1.0, 2.0)
    path = str(tmp_path / "spans.json")
    rec.dump(path)
    loaded = load_spans(path)
    assert [s.extra for s in loaded] == [{"frames": 3}, None]
    assert [s.name for s in loaded] == ["a", "b"]


def test_iterate_times_only_the_iterator():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def produce():
        for item in range(3):
            clock.advance(1.0)
            yield item

    consumed = []
    for item in rec.iterate("gen", produce()):
        clock.advance(10.0)  # consumer work, outside every span
        consumed.append(item)
    assert consumed == [0, 1, 2]
    assert len(rec.spans) == 4  # three items plus the final StopIteration
    assert sum(s.duration for s in rec.spans) == 3.0
    assert len({dict(s.extra)["call"] for s in rec.spans}) == 1


def test_pages_come_from_the_pager_scope():
    from repro.storage import Pager

    pager = Pager()
    page = pager.allocate()
    rec = SpanRecorder()

    def touch():
        pager.write(page, bytes(pager.page_size))
        pager.read(page)
        pager.read(page)

    rec.call("io", touch, pager=pager)
    assert dict(rec.spans[0].extra) == {"reads": 2, "writes": 1}


def test_percentile_rule_needs_ten_samples_beyond():
    samples = [float(i) for i in range(1, 1001)]
    assert nearest_rank(samples, 99) == (990.0, 10)
    assert nearest_rank(samples[:999], 99)[1] == 9
    assert nearest_rank([5.0, 1.0, 3.0], 50) == (3.0, 1)
    with pytest.raises(ValueError):
        nearest_rank([], 50)

