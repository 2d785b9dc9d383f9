"""Spans and explicit trace-context propagation across process borders.

One mining job crosses a lot of machinery — HTTP submit, scheduler
queue, executor shards, sometimes a remote worker daemon — and the
point of a trace is that all of it hangs off **one trace id**. The
pieces:

- :class:`TraceContext` — the two ids that travel: ``trace_id`` (one
  per logical operation) and ``span_id`` (the sender's span, which the
  receiver parents under). It is a frozen, picklable dataclass with a
  ``to_wire``/``from_wire`` dict form small enough to ride any
  envelope: the service attaches it to scheduled jobs, the dist
  executor puts it in shard request envelopes next to the context
  digest, and a process session pickles it with the rest of its context.
- :class:`Span` — one timed operation (name, ids, start/end read
  through the :mod:`repro.obs.clock` seam, string tags).
- :class:`Tracer` — creates spans and keeps the most recent finished
  ones in a bounded deque. Completed spans are *observability data*,
  not results: they never feed fingerprints, and a full deque silently
  drops the oldest span.

Propagation is **explicit**: whoever starts work passes the context on
(an argument, a wire field) and the far side calls
:meth:`Tracer.span` with ``parent=ctx``. For call sites that cannot
thread an argument through (the beam search doesn't know about jobs),
:func:`activate` pins a context to the current thread and
:func:`current` reads it back — the executor backends activate the
job's context around the work they run, which is what stitches
engine-internal phase spans onto the job's trace.

Ids are random (``secrets``); they exist to correlate, not to
reproduce, and they stay out of every fingerprint — the determinism
contract is asserted with tracing on.
"""

from __future__ import annotations

import secrets
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.errors import ObsError
from repro.obs import clock

__all__ = [
    "TraceContext",
    "Span",
    "Tracer",
    "TRACER",
    "activate",
    "current",
]

#: Finished spans retained per tracer (oldest dropped beyond this).
SPAN_RETENTION = 4096


@dataclass(frozen=True)
class TraceContext:
    """The propagated pair: which trace, and which span to parent under."""

    trace_id: str
    span_id: str

    def to_wire(self) -> dict:
        """The envelope form (two short strings; JSON- and pickle-safe)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @staticmethod
    def from_wire(document: object) -> "TraceContext | None":
        """Decode an envelope field; malformed/absent -> ``None``.

        Lenient by design: tracing must never turn a valid job request
        into an error.
        """
        if not isinstance(document, dict):
            return None
        trace_id = document.get("trace_id")
        span_id = document.get("span_id")
        if isinstance(trace_id, str) and isinstance(span_id, str):
            return TraceContext(trace_id, span_id)
        return None


@dataclass
class Span:
    """One timed operation within a trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    started: float
    ended: float | None = None
    tags: dict[str, str] = field(default_factory=dict)

    @property
    def context(self) -> TraceContext:
        """The context children of this span propagate."""
        return TraceContext(self.trace_id, self.span_id)

    @property
    def duration(self) -> float:
        """Seconds from start to finish (0.0 while still open)."""
        return 0.0 if self.ended is None else self.ended - self.started

    def tag(self, key: str, value: object) -> "Span":
        """Attach one string tag (values are stringified)."""
        self.tags[str(key)] = str(value)
        return self


class Tracer:
    """Creates spans and retains the most recent finished ones."""

    def __init__(self, retention: int = SPAN_RETENTION) -> None:
        if retention < 1:
            raise ObsError(f"span retention must be >= 1, got {retention}")
        self._finished: deque[Span] = deque(maxlen=retention)
        self._lock = threading.Lock()

    @staticmethod
    def _new_id() -> str:
        return secrets.token_hex(8)

    def start(
        self, name: str, parent: TraceContext | None = None
    ) -> Span:
        """Open a span; a ``None`` parent starts a fresh trace."""
        if parent is None:
            trace_id, parent_id = self._new_id(), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        return Span(
            name=name,
            trace_id=trace_id,
            span_id=self._new_id(),
            parent_id=parent_id,
            started=clock.perf_counter(),
        )

    def finish(self, span: Span) -> Span:
        """Close a span and retain it (idempotent for a closed span)."""
        if span.ended is None:
            span.ended = clock.perf_counter()
            with self._lock:
                self._finished.append(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        parent: TraceContext | None = None,
        *,
        activate_ctx: bool = True,
    ) -> Iterator[Span]:
        """``with tracer.span("score", parent=ctx) as span: ...``

        While the block runs, the new span's context is the thread's
        :func:`current` (unless ``activate_ctx=False``), so nested
        instrumentation parents correctly without plumbing.
        """
        opened = self.start(name, parent=parent)
        try:
            if activate_ctx:
                with activate(opened.context):
                    yield opened
            else:
                yield opened
        finally:
            self.finish(opened)

    def record(
        self,
        name: str,
        started: float,
        ended: float,
        parent: TraceContext | None,
        tags: Mapping[str, object] | None = None,
    ) -> Span | None:
        """Retain an already-measured interval as a finished span.

        The hot paths measure phases with two clock reads regardless of
        tracing; this turns those same boundaries into a span after the
        fact — no context-manager overhead inside the loop. A ``None``
        parent is a no-op returning ``None``: phase spans only exist
        *within* a trace, never as orphan roots.
        """
        if parent is None:
            return None
        span = Span(
            name=name,
            trace_id=parent.trace_id,
            span_id=self._new_id(),
            parent_id=parent.span_id,
            started=started,
            ended=ended,
        )
        if tags:
            for key, value in tags.items():
                span.tag(key, value)
        with self._lock:
            self._finished.append(span)
        return span

    # ------------------------------ reads ----------------------------- #
    def finished(self, trace_id: str | None = None) -> list[Span]:
        """Retained finished spans, oldest first; optionally one trace."""
        with self._lock:
            spans = list(self._finished)
        if trace_id is None:
            return spans
        return [span for span in spans if span.trace_id == trace_id]

    def tree(self, trace_id: str) -> dict[str | None, list[Span]]:
        """Finished spans of one trace, grouped by ``parent_id``."""
        tree: dict[str | None, list[Span]] = {}
        for span in self.finished(trace_id):
            tree.setdefault(span.parent_id, []).append(span)
        return tree

    def clear(self) -> None:
        """Drop every retained span (tests)."""
        with self._lock:
            self._finished.clear()


#: Process-wide default tracer: every instrumented tier records here,
#: which is what makes an in-process multi-tier test see one tree.
TRACER = Tracer()

_ACTIVE = threading.local()


@contextmanager
def activate(ctx: TraceContext | None) -> Iterator[None]:
    """Pin ``ctx`` as this thread's current trace context."""
    previous = getattr(_ACTIVE, "ctx", None)
    _ACTIVE.ctx = ctx
    try:
        yield
    finally:
        _ACTIVE.ctx = previous


def current() -> TraceContext | None:
    """This thread's active trace context (``None`` outside any)."""
    return getattr(_ACTIVE, "ctx", None)
