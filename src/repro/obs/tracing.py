"""Structured spans: the truthful replacement for flat trace entries.

The original admin-mode trace was a flat list of ``(stage, artifact,
elapsed)`` entries with a hand-maintained ``SUBSUMED_STAGES`` set to
avoid double-counting the ``ix-detection`` entry that aggregated its
finder/creator sub-steps.  That hack is exactly the kind of lie this
module removes at the root: a :class:`Span` has a ``span_id``, a
``parent_id`` and monotonic ``start``/``end`` timestamps
(``time.perf_counter``), so

* a parent's duration *covers* its children by construction (no
  summing, no subsumption lists);
* "total time" is the root span's duration — real wall clock;
* per-stage aggregation sums **leaf** spans only, which can never
  exceed the root's duration.

A :class:`SpanRecorder` builds one span tree per request (one
translation), carries a ``request_id``, and is deliberately
single-threaded: one recorder per request, many recorders in flight.
"""

from __future__ import annotations

import itertools
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager

__all__ = ["Span", "SpanRecorder", "new_request_id"]

#: Process-wide span id source; ids are unique per process, which is
#: all a parent/child edge needs.
_SPAN_IDS = itertools.count(1)


def new_request_id() -> str:
    """A fresh opaque request id (16 hex chars)."""
    return uuid.uuid4().hex[:16]


@dataclass
class Span:
    """One timed unit of work inside a request's span tree.

    ``artifact`` is what the unit produced, for the admin monitor.  A
    stage may :meth:`defer` it: the rendering then runs when the
    artifact is first read, so a request nobody inspects never pays
    for it.
    """

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    _artifact: Any = field(default=None, repr=False)
    _render: Callable[[], Any] | None = field(default=None, repr=False)

    @property
    def artifact(self) -> Any:
        if self._render is not None:
            self._artifact, self._render = self._render(), None
        return self._artifact

    @artifact.setter
    def artifact(self, value: Any) -> None:
        self._artifact, self._render = value, None

    def defer(self, render: Callable[[], Any]) -> None:
        """Set the artifact to ``render()``, computed on first read."""
        self._render = render

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def elapsed(self) -> float:
        """Seconds from start to end (to *now* while still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def render(self, depth: int = 0) -> str:
        """Human-readable block for the admin monitor."""
        body = (
            self.artifact if isinstance(self.artifact, str)
            else repr(self.artifact)
        )
        indent = "  " * depth
        return (
            f"{indent}== {self.name} ({self.elapsed * 1000:.1f} ms) ==\n"
            f"{body}"
        )


class _SpanScope:
    """The ``with`` block of :meth:`SpanRecorder.span`.

    A class, not a generator context manager: every translation opens
    about a dozen spans, and this form costs less per span.
    """

    __slots__ = ("recorder", "name", "span")

    def __init__(self, recorder: SpanRecorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> Span:
        self.span = self.recorder.start_span(self.name)
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.recorder.end_span(self.span)


@dataclass
class SpanRecorder:
    """Builds one request's span tree; **not** thread-safe by design.

    One recorder records one request on one thread (the pipeline is
    synchronous per request); concurrency lives one level up, in the
    service, which owns a recorder per in-flight translation.
    """

    request_id: str = field(default_factory=new_request_id)
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list, repr=False)

    # -- recording -----------------------------------------------------------

    def start_span(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=next(_SPAN_IDS),
            parent_id=parent.span_id if parent else None,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ValueError(
                f"span {span.name!r} is not the innermost open span"
            )
        span.end = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> ContextManager[Span]:
        """Open a child span for the duration of the ``with`` block."""
        return _SpanScope(self, name)

    def add(self, name: str, artifact: Any, elapsed: float) -> None:
        """Compatibility shim: record an already-measured span.

        Pre-span callers recorded ``(stage, artifact, elapsed)``
        triples; this creates an equivalent finished child of the
        currently open span.
        """
        now = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(
            name=name,
            span_id=next(_SPAN_IDS),
            parent_id=parent.span_id if parent else None,
            start=now - elapsed,
            end=now,
            _artifact=artifact,
        ))

    # -- tree structure ------------------------------------------------------

    @property
    def root(self) -> Span | None:
        """The first top-level span (the request span, once recorded)."""
        for span in self.spans:
            if span.parent_id is None:
                return span
        return None

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def is_leaf(self, span: Span) -> bool:
        return all(s.parent_id != span.span_id for s in self.spans)

    def leaves(self) -> list[Span]:
        parents = {s.parent_id for s in self.spans}
        return [s for s in self.spans if s.span_id not in parents]

    def find(self, name: str) -> Span | None:
        """The first span with ``name``, or None."""
        for span in self.spans:
            if span.name == name:
                return span
        return None

    def self_seconds(self, span: Span) -> float:
        """``span``'s elapsed time minus its direct children's.

        Self-times tile the tree exactly: summing them over every span
        equals the root's duration, so per-stage accounting built on
        them can never double-count and never lose time — orchestration
        glue shows up as the parents' (small) self-time instead of
        silently inflating or escaping the totals.
        """
        return span.elapsed - sum(
            c.elapsed for c in self.children(span)
        )

    # -- rendering -----------------------------------------------------------

    def _depth(self, span: Span) -> int:
        by_id = {s.span_id: s for s in self.spans}
        depth, current = 0, span
        while current.parent_id is not None:
            current = by_id[current.parent_id]
            depth += 1
        return depth

    def render_tree(self) -> str:
        """One line per span, indented by depth, with durations.

        The compact form the slow-query log dumps::

            translate (84.2 ms)  request=1f2e...
              verification (0.1 ms)
              ...
        """
        lines = []
        for span in self.spans:
            indent = "  " * self._depth(span)
            suffix = (
                f"  request={self.request_id}"
                if span.parent_id is None else ""
            )
            lines.append(
                f"{indent}{span.name} ({span.elapsed * 1000:.1f} ms)"
                f"{suffix}"
            )
        return "\n".join(lines)
