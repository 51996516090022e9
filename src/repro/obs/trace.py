"""Execution tracing: explicit spans over the PoA protocol's hot paths.

One trace follows a unit of work across layers: a GPS sample from the
receiver read, through the Secure Monitor Call into the GPS Sampler TA's
signing, out over the link, and into the Auditor's stage-by-stage
verification.  Spans carry ids, parent links, monotonic start/end
timestamps, a status, and free-form attributes, so "where did this
sample's latency go?" is answerable from one export instead of four
ad-hoc accumulators.

The default tracer is a :class:`NoopTracer` — instrumented call sites pay
one module-level lookup and a no-op context manager when tracing is off
(the overhead benchmark ``benchmarks/bench_obs_overhead.py`` bounds the
cost).  Install a real :class:`Tracer` for one scope with
:func:`use_tracer`::

    with use_tracer(Tracer()) as tracer:
        with tracer.span("flight", policy="adaptive"):
            ...                     # nested call sites attach children
    print(format_tree(tracer.spans))
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Span completion states.
STATUS_OK = "ok"
STATUS_ERROR = "error"

# Tracer instances get distinct id prefixes so spans from different
# tracers (two runs exported side by side, say) can never collide.
_tracer_ids = itertools.count(1)
_tracer_ids_lock = threading.Lock()


@dataclass
class Span:
    """One timed operation in a trace."""

    name: str
    span_id: str
    trace_id: str
    parent_id: str | None
    start_s: float
    end_s: float | None = None
    status: str = STATUS_OK
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float | None:
        """Wall time of the span, or None while it is still open."""
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach or overwrite one attribute."""
        self.attributes[key] = value

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable view (the JSONL export row)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Rebuild a span from its :meth:`to_dict` row."""
        return cls(name=data["name"], span_id=data["span_id"],
                   trace_id=data["trace_id"], parent_id=data.get("parent_id"),
                   start_s=data["start_s"], end_s=data.get("end_s"),
                   status=data.get("status", STATUS_OK),
                   attributes=dict(data.get("attributes") or {}))


class Tracer:
    """Collects spans; nesting follows an explicit active-span stack.

    Args:
        clock: monotonic time source (``time.perf_counter`` by default;
            injectable for deterministic tests).
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        with _tracer_ids_lock:
            self._prefix = f"tr{next(_tracer_ids)}"
        self._clock = clock
        self._span_counter = itertools.count(1)
        self._trace_counter = itertools.count(1)
        self._stack: list[Span] = []
        #: Finished spans in completion order.
        self.spans: list[Span] = []

    # --- span lifecycle -----------------------------------------------------

    @property
    def current_span(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def start_span(self, name: str, parent: Span | None = None,
                   attributes: dict[str, Any] | None = None) -> Span:
        """Open a span (child of ``parent`` or of the current span)."""
        if parent is None:
            parent = self.current_span
        if parent is None:
            trace_id = f"{self._prefix}-t{next(self._trace_counter)}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(name=name,
                    span_id=f"{self._prefix}-s{next(self._span_counter)}",
                    trace_id=trace_id, parent_id=parent_id,
                    start_s=self._clock(),
                    attributes=dict(attributes or {}))
        self._stack.append(span)
        return span

    def end_span(self, span: Span, status: str | None = None) -> Span:
        """Close a span, pop it off the stack, and retain it."""
        span.end_s = self._clock()
        if status is not None:
            span.status = status
        if span in self._stack:
            # Pop through any children left open by non-local exits.
            while self._stack:
                if self._stack.pop() is span:
                    break
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Context manager: open a child span, close it on exit.

        An exception escaping the block marks the span ``error`` and
        propagates.
        """
        span = self.start_span(name, attributes=attributes)
        try:
            yield span
        except BaseException:
            self.end_span(span, status=STATUS_ERROR)
            raise
        self.end_span(span)

    def clear(self) -> None:
        """Drop all finished spans (long-lived tracers between exports)."""
        self.spans.clear()

    def __len__(self) -> int:
        return len(self.spans)

    def __bool__(self) -> bool:
        # Truthiness means "is tracing live?", not "are there spans yet?" —
        # without this an empty tracer is falsy via __len__, which reads
        # wrong in `if tracer:` guards at instrumented call sites.
        return True


class _NoopSpan:
    """The shared do-nothing span the noop tracer hands out."""

    __slots__ = ()
    name = "noop"
    span_id = trace_id = parent_id = None
    start_s = end_s = None
    duration_s = None
    status = STATUS_OK
    attributes: dict[str, Any] = {}

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def to_dict(self) -> dict[str, Any]:  # pragma: no cover - debug aid
        return {"name": self.name}


NOOP_SPAN = _NoopSpan()


class _NoopSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return NOOP_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP_CONTEXT = _NoopSpanContext()


class NoopTracer:
    """The default tracer: every operation is a near-free no-op."""

    enabled = False
    spans: tuple = ()
    current_span = None

    def span(self, name: str, **attributes: Any) -> _NoopSpanContext:
        return _NOOP_CONTEXT

    def start_span(self, name: str, parent: Span | None = None,
                   attributes: dict[str, Any] | None = None) -> _NoopSpan:
        return NOOP_SPAN

    def end_span(self, span: Any, status: str | None = None) -> _NoopSpan:
        return NOOP_SPAN

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __bool__(self) -> bool:
        return False


NOOP_TRACER = NoopTracer()

_active_tracer: Tracer | NoopTracer = NOOP_TRACER


def get_tracer() -> Tracer | NoopTracer:
    """The process-wide tracer instrumented call sites report into."""
    return _active_tracer


def set_tracer(tracer: Tracer | NoopTracer) -> Tracer | NoopTracer:
    """Install ``tracer`` globally; returns the previous one."""
    global _active_tracer
    previous = _active_tracer
    _active_tracer = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Scope a (new, by default) real tracer as the process-wide one."""
    tracer = tracer if tracer is not None else Tracer()
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
