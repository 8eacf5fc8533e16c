"""In-memory span recorder used by the traced benchmark run.

A span is one call of a wrapped function: its name, start and end on the
``time.perf_counter`` clock, the index of the span that was open when it
started (its cause), a work count and an optional tag. Spans are kept in a
list and aggregated once the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple

NO_PARENT = -1


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    count: int = 0
    tag: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


# describe(args, kwargs, result) -> (count, tag)
Describe = Callable[[tuple, dict, object], "tuple[int, str | None]"]


class Tracer:
    """Records nested spans around wrapped callables while ``active``."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._open: list[int] = []
        self.active = False

    def wrap(self, name: str, fn: Callable, describe: Describe | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else NO_PARENT
            tracer.spans.append(None)
            tracer._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans[index] = Span(name, start, time.perf_counter(), parent)
                tracer._open.pop()
                raise
            end = time.perf_counter()
            tracer._open.pop()
            count, tag = describe(args, kwargs, result) if describe is not None else (0, None)
            tracer.spans[index] = Span(name, start, end, parent, count, tag)
            return result

        return traced

    @contextmanager
    def paused(self):
        """Run a block (set-up, checks) without recording spans."""
        was_active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was_active

    def extend(self, spans: list[Span]) -> None:
        """Append spans recorded by another process, re-basing parent links."""
        offset = len(self.spans)
        for span in spans:
            parent = span.parent + offset if span.parent != NO_PARENT else NO_PARENT
            self.spans.append(span._replace(parent=parent))

    def finished(self) -> list[Span]:
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        return list(self.spans)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent != NO_PARENT:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.duration - covered)
    return result


def outermost(spans: list[Span]) -> list[bool]:
    """True for spans with no ancestor of the same name.

    Summing only these avoids counting a layer twice when one of its public
    functions calls another (``compose.predict`` calls ``predict_batch``).
    """
    flags = []
    for span in spans:
        parent = span.parent
        while parent != NO_PARENT and spans[parent].name != span.name:
            parent = spans[parent].parent
        flags.append(parent == NO_PARENT)
    return flags


def ancestor_named(spans: list[Span], index: int, name: str) -> int:
    """Index of the nearest ancestor called ``name``, or NO_PARENT."""
    parent = spans[index].parent
    while parent != NO_PARENT and spans[parent].name != name:
        parent = spans[parent].parent
    return parent
