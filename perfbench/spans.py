"""In-memory span recording, the arithmetic of the traced run, and the
peak-RSS reading.

A span is one call across a layer boundary: its name, start and end on
the shared monotonic clock, the span that was open on the same thread
when it started (its parent), the root span it belongs to (the batch or
query it serves), and optional counts taken at the same boundary, such
as the pages a :meth:`Pager.measure` scope saw. Spans are appended to a
list and written out once, when the traced process ends.

The module has no dependency on the program: the wrappers in
``layers.py`` feed it, and the tests drive it with a fake clock.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Iterator, NamedTuple

#: One clock for every process of a run. CLOCK_MONOTONIC is system-wide,
#: so spans from the server process and the load generator's phase
#: bounds can be compared directly.
CLOCK = time.monotonic


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    root: int
    #: Counts taken at the boundary: pairs while recording, a dict once
    #: loaded.
    extra: dict | tuple | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any number of threads.

    Nesting is tracked per thread, so only synchronous calls may be
    recorded through :meth:`call`. Work that suspends (an ``await``)
    is recorded afterwards with :meth:`record`, from timestamps the
    caller took, and never becomes a parent.
    """

    def __init__(self, clock: Callable[[], float] = CLOCK) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple = (),
             kwargs: dict | None = None, pager=None,
             after: Callable | None = None, extra: dict | None = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        With ``pager`` the span carries the logical reads and writes of
        a ``pager.measure()`` scope around the call. ``after(args,
        result)`` may return more counts to attach; it sees ``None``
        when the call raised.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        root = parent[1] if parent is not None else sid
        stack.append((sid, root))
        scope = pager.measure() if pager is not None else None
        if scope is not None:
            scope.__enter__()
        result = None
        start = self.clock()
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        finally:
            end = self.clock()
            stack.pop()
            counts = dict(extra) if extra else {}
            if scope is not None:
                scope.__exit__(None, None, None)
                counts["reads"] = scope.delta.logical_reads
                counts["writes"] = scope.delta.logical_writes
            if after is not None:
                counts.update(after(args, result) or {})
            # Counts are kept as a tuple of pairs: a span then holds only
            # atoms, so the garbage collector stops tracking it and a
            # long traced run does not slow down collections.
            self.spans.append(Span(
                sid, name, start, end,
                parent[0] if parent is not None else None, root,
                tuple(counts.items()) if counts else None))

    def iterate(self, name: str, iterator: Iterator, pager=None) -> Iterator:
        """Re-yield ``iterator``, one span per ``next()`` on it.

        The consumer's own work between items stays outside the spans.
        Every span of one iteration carries the same ``call`` id, so the
        iteration can be summed as one call.
        """
        call = next(self._ids)
        try:
            while True:
                try:
                    item = self.call(name, next, (iterator,), pager=pager,
                                     extra={"call": call})
                except StopIteration:
                    return
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def record(self, name: str, start: float, end: float,
               extra: dict | None = None) -> None:
        """Add a span measured by the caller; it has no parent."""
        sid = next(self._ids)
        self.spans.append(Span(sid, name, start, end, None, sid,
                               tuple(extra.items()) if extra else None))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([list(span) for span in self.spans], fh)


def load_spans(path: str) -> list[Span]:
    """Spans as written by :meth:`SpanRecorder.dump`, counts as dicts."""
    with open(path, encoding="utf-8") as fh:
        return [Span(*row[:6], dict(row[6]) if row[6] else None)
                for row in json.load(fh)]


def covered_length(intervals: Iterable[tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals
        if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.duration - covered_length(
            children.get(span.sid, ()), span.start, span.end)
        for span in spans
    }


def nearest_rank(samples: list[float], pct: float) -> tuple[float, int]:
    """``(value, samples beyond it)`` at the ``pct`` percentile, by the
    nearest-rank rule on the sorted samples."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank



def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")
