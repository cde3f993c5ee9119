"""In-memory spans recorded from outside the program, and their self-time fold.

A :class:`Recorder` times calls into the program's layers by wrapping
callables the benchmark itself built or passes in (a tenant accountant's
``charge``, a mechanism instance's ``release_many``, a query function, a
bench case). Nothing in the program is patched: each wrapper is installed
on one instance or handed to one constructor. Spans are synchronous, so a
single stack gives every span its parent even inside an asyncio loop; the
request a span serves comes from :attr:`Recorder.request`, which the
caller sets in its own task context.

:func:`self_times` folds a span list into per-name self time: a span's
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import contextvars
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    """One timed call: ``name`` ran from ``start`` to ``end`` (perf-counter s)."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: object = None
    size: int | None = None
    failed: bool = False


class Recorder:
    """Collects the spans of one unit execution.

    Parameters
    ----------
    tracer:
        The program's active ``repro.observability.Tracer``, if any; see
        :meth:`adopt_program_spans`.
    """

    def __init__(self, tracer=None) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request: contextvars.ContextVar = contextvars.ContextVar(
            "perf_request", default=None
        )
        self.tracer = tracer
        # The tracer's own time origin, on this module's perf_counter scale.
        self._tracer_origin = (
            time.perf_counter() - tracer.seconds if tracer is not None else 0.0
        )

    def begin(self, name: str, *, request=None, size: int | None = None) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, time.perf_counter(), parent=parent, request=request, size=size)
        )
        self._stack.append(index)
        return index

    def end(self, index: int, *, failed: bool = False) -> None:
        """Close the span opened as ``index`` (the innermost open one)."""
        span = self.spans[index]
        span.end = time.perf_counter()
        span.failed = failed
        self._stack.pop()

    def timed(self, function, name: str, *, per_request: bool = True,
              size_argument: int | None = None):
        """``function`` wrapped so that every call records a span ``name``.

        Parameters
        ----------
        function:
            The callable to time (a bound method or a plain function).
        name:
            Span name, which is also the layer the time is folded into.
        per_request:
            Tag the span with the current :attr:`request`. Calls that serve
            many requests at once (a batch flush) pass ``False``.
        size_argument:
            Position of an argument holding the call's batch size, recorded
            as :attr:`Span.size`.
        """

        def wrapper(*args, **kwargs):
            size = None
            if size_argument is not None:
                size = int(args[size_argument]) if len(args) > size_argument \
                    else int(kwargs["n"])
            index = self.begin(
                name,
                request=self.request.get() if per_request else None,
                size=size,
            )
            failed = True
            try:
                result = function(*args, **kwargs)
                failed = False
                return result
            finally:
                self.end(index, failed=failed)

        return wrapper

    def adopt_program_spans(self, prefix: str, name: str) -> None:
        """Copy the program tracer's outermost spans named ``prefix...``.

        Each copy is renamed ``name`` and placed under the innermost
        recorded span that was open at its midpoint. A matching span nested
        inside another matching span is skipped, so no time counts twice.
        Call it once the recorded spans are closed.

        Parameters
        ----------
        prefix:
            Program span-name prefix, e.g. ``"release_many:"``.
        name:
            Layer name given to the copies.
        """
        records = {record.span_id: record for record in self.tracer.spans}
        own = list(self.spans)
        for record in self.tracer.spans:
            if not record.name.startswith(prefix) or record.seconds is None:
                continue
            ancestor = records.get(record.parent_id)
            while ancestor is not None and not ancestor.name.startswith(prefix):
                ancestor = records.get(ancestor.parent_id)
            if ancestor is not None:
                continue
            start = self._tracer_origin + record.offset_seconds
            end = start + record.seconds
            middle = (start + end) / 2.0
            parent = None
            for index, span in enumerate(own):
                if span.start <= middle <= span.end and (
                    parent is None or span.start >= own[parent].start
                ):
                    parent = index
            size = record.attributes.get("count")
            self.spans.append(Span(name, start, end, parent=parent, size=size))

    def named(self, name: str) -> list[Span]:
        """Every recorded span called ``name``."""
        return [span for span in self.spans if span.name == name]


def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Fold spans into ``{name: summed self seconds}``.

    A span's self time is its duration minus the part of its interval
    covered by its children; overlapping children are counted once.

    Parameters
    ----------
    spans:
        Spans whose ``parent`` fields index into the same list.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    folded: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        duration = span.end - span.start
        folded[span.name] += duration - _covered(
            span.start, span.end, children.get(index, ())
        )
    return dict(folded)


def columns(spans: list[Span]) -> dict[str, list]:
    """Spans as column lists, the compact form written to ``TRACE_*.json``."""
    origin = min((span.start for span in spans), default=0.0)
    return {
        "name": [span.name for span in spans],
        "start_s": [span.start - origin for span in spans],
        "end_s": [span.end - origin for span in spans],
        "parent": [span.parent for span in spans],
        "request": [span.request for span in spans],
        "size": [span.size for span in spans],
        "failed": [span.failed for span in spans],
    }
