"""In-memory span recorder and the self-time arithmetic behind the layer metrics.

A span is ``[name, start, end, parent, note]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 at the
top) and ``note`` an optional summary of the call's result. The layer of a
span is its name up to the first dot, so ``"dose.apply_anneal"`` belongs to
``dose``. Spans live in ``Tracer.spans`` until the caller writes them out.

Spans are recorded by the benchmark, not by the program: ``Tracer.wrap``
swaps a module attribute for a timing wrapper. Callers that look the name up
at call time (``jio.write_json`` inside ``jjtune.cli``, ``child_rng`` inside
``jjtune.wafer``) then run through the wrapper, which gives nested spans and
call counts without editing the package.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Any, Callable, Iterable, Iterator, Sequence

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    """Records nested spans for one thread; install wrappers, run, restore."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list]:
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(
        self,
        module: Any,
        attr: str,
        name: str,
        note: Callable[[Any], Any] | None = None,
    ) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call.

        ``note`` maps the call's result to the small value kept on the span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(record)
            if note is not None:
                record[NOTE] = note(result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by the intervals; overlaps count once."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        elif end > cover_end:
            cover_end = end
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def children_of(spans: Sequence[list]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for index, record in enumerate(spans):
        if record[PARENT] >= 0:
            kids[record[PARENT]].append(index)
    return kids


def _clipped(spans: Sequence[list], parent: int, indices: Iterable[int]):
    lo, hi = spans[parent][START], spans[parent][END]
    for i in indices:
        start, end = max(spans[i][START], lo), min(spans[i][END], hi)
        if end > start:
            yield start, end


def self_time(spans: Sequence[list], index: int, kids: Sequence[Sequence[int]]) -> float:
    """Duration of a span minus the part of it its children cover."""
    record = spans[index]
    return (record[END] - record[START]) - union_length(_clipped(spans, index, kids[index]))


def layer_self_time(spans: Sequence[list], index: int, kids: Sequence[Sequence[int]]) -> float:
    """Time a span spends in its own layer, nested same-layer calls included.

    Descends through children of the same layer and subtracts only the time
    covered by the first spans of another layer on each path, so
    ``tuner.iterative_tune`` keeps the time of its nested
    ``tuner.power_for_shift`` but loses that of ``dose.apply_anneal``.
    """
    own = layer(spans[index][NAME])
    foreign: list[int] = []
    pending = list(kids[index])
    while pending:
        child = pending.pop()
        if layer(spans[child][NAME]) == own:
            pending.extend(kids[child])
        else:
            foreign.append(child)
    record = spans[index]
    return (record[END] - record[START]) - union_length(_clipped(spans, index, foreign))


def self_by_layer(spans: Sequence[list]) -> dict[str, float]:
    """Sum of per-span self time, keyed by layer.

    Every instant inside a root span is counted in exactly one span's self
    time, so the values add up to the roots' total duration.
    """
    kids = children_of(spans)
    totals: dict[str, float] = {}
    for index, record in enumerate(spans):
        key = layer(record[NAME])
        totals[key] = totals.get(key, 0.0) + self_time(spans, index, kids)
    return totals
