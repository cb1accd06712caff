"""Hierarchical pipeline spans and Chrome trace-event export.

PR 2 instrumented the simulation *kernel* (``repro.sim.metrics``); this
module instruments the pipeline *above* it.  A :class:`SpanTracer`
records a tree of timed spans — parse, validate, partition, each
refinement procedure, estimate, export, simulate — with counters and
attributes per span, and exports the whole run as Chrome trace-event
JSON loadable in Perfetto or ``chrome://tracing``.

Design points:

* **context-manager API** — ``with tracer.span("control"): ...``; spans
  nest automatically via the tracer's stack;
* **zero-cost when detached** — pipeline code holds :data:`NULL_TRACER`
  by default, whose ``span`` returns a shared no-op span: no timestamps
  are taken, no objects allocated per call beyond the method dispatch;
* **one timing system** — ``repro profile`` times its phases as root
  spans of category ``"phase"`` and reads them back with
  :meth:`SpanTracer.aggregate`, so it and ``repro trace`` share this
  substrate.
"""

from __future__ import annotations

import json
import time as _time
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "SpanTracer",
    "NULL_TRACER",
    "validate_chrome_trace",
]


class Span:
    """One timed region of the pipeline.

    ``attrs`` carries both attributes (:meth:`set`) and counters
    (:meth:`add`); they become the ``args`` of the exported trace
    event.  ``end`` is ``None`` while the span is open.
    """

    __slots__ = ("name", "category", "start", "end", "attrs", "children", "_tracer")

    def __init__(self, name: str, category: str, tracer: "SpanTracer"):
        self.name = name
        self.category = category
        self.start = _time.perf_counter()
        self.end: Optional[float] = None
        self.attrs: Dict[str, object] = {}
        self.children: List["Span"] = []
        self._tracer = tracer

    @property
    def seconds(self) -> float:
        """Wall-clock duration (up to now while still open)."""
        end = self.end if self.end is not None else _time.perf_counter()
        return end - self.start

    def set(self, key: str, value) -> None:
        """Attach an attribute (shows up in the trace event's args)."""
        self.attrs[key] = value

    def add(self, key: str, amount: int = 1) -> None:
        """Increment a counter attribute."""
        self.attrs[key] = self.attrs.get(key, 0) + amount

    def iter_tree(self) -> Iterator["Span"]:
        """This span and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_tree()

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = _time.perf_counter()
        self._tracer._pop(self)
        return False

    def __repr__(self) -> str:
        state = f"{self.seconds * 1e3:.3f} ms" if self.end is not None else "open"
        return f"<span {self.name!r} [{self.category}] {state}>"


class _NullSpan:
    """The shared do-nothing span :data:`NULL_TRACER` hands out."""

    __slots__ = ()

    def set(self, key: str, value) -> None:
        pass

    def add(self, key: str, amount: int = 1) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _NullTracer:
    """Detached tracer: ``span`` costs one method call, nothing else."""

    __slots__ = ()

    _SPAN = _NullSpan()

    def span(self, name: str, category: str = "pipeline", **attrs) -> _NullSpan:
        return self._SPAN

    def record_span(
        self, name: str, seconds: float, category: str = "exec", **attrs
    ) -> _NullSpan:
        return self._SPAN


#: What pipeline code holds when no one is watching.
NULL_TRACER = _NullTracer()


class SpanTracer:
    """Collects a forest of :class:`Span` trees.

    The tracer keeps an explicit stack: a span opened while another is
    open becomes its child.  One tracer records one logical run; spans
    from concurrent threads are not supported (the pipeline is
    single-threaded).
    """

    def __init__(self):
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -- recording ----------------------------------------------------------

    def span(self, name: str, category: str = "pipeline", **attrs) -> Span:
        """Open a span; use as a context manager to close it."""
        opened = Span(name, category, self)
        if attrs:
            opened.attrs.update(attrs)
        if self._stack:
            self._stack[-1].children.append(opened)
        else:
            self.roots.append(opened)
        self._stack.append(opened)
        return opened

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    def record_span(
        self, name: str, seconds: float, category: str = "exec", **attrs
    ) -> Span:
        """Attach an already-completed span of known duration.

        The execution engine uses this for work that was *not* timed by
        this tracer's clock: jobs that ran in a worker process (their
        duration comes back over the result channel) and cache hits
        (duration ~0).  The span is closed on arrival — it nests under
        :attr:`current` but never joins the open stack.
        """
        span = Span(name, category, self)
        now = _time.perf_counter()
        span.start = now - max(float(seconds), 0.0)
        span.end = now
        if attrs:
            span.attrs.update(attrs)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # -- queries ------------------------------------------------------------

    def iter_spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.iter_tree()

    def find(self, name: str, category: Optional[str] = None) -> Optional[Span]:
        """First span named ``name`` (optionally in ``category``)."""
        for span in self.iter_spans():
            if span.name == name and (category is None or span.category == category):
                return span
        return None

    def aggregate(self, category: Optional[str] = None) -> Dict[str, float]:
        """Root-span name -> accumulated seconds, in first-entry order.

        Re-entering a name accumulates into the same bucket, which is
        how ``repro profile`` reports per-phase seconds.  ``category``
        restricts to matching roots.
        """
        out: Dict[str, float] = {}
        for root in self.roots:
            if category is not None and root.category != category:
                continue
            out[root.name] = out.get(root.name, 0.0) + root.seconds
        return out

    def describe(self) -> str:
        """The span forest as an indented text tree with durations."""
        lines: List[str] = []

        def emit(span: Span, depth: int) -> None:
            attrs = ""
            if span.attrs:
                attrs = "  " + " ".join(
                    f"{key}={value}" for key, value in sorted(span.attrs.items())
                )
            lines.append(
                f"{'  ' * depth}{span.name:<24}{span.seconds * 1e3:10.3f} ms{attrs}"
            )
            for child in span.children:
                emit(child, depth + 1)

        for root in self.roots:
            emit(root, 0)
        return "\n".join(lines) if lines else "no spans recorded"

    # -- export -------------------------------------------------------------

    def to_chrome_trace(self, process_name: str = "repro") -> Dict[str, object]:
        """The run as a Chrome trace-event JSON object.

        Every span becomes a complete (``ph="X"``) event with
        microsecond ``ts``/``dur`` relative to the earliest span start;
        a metadata event names the process.  The result loads in
        Perfetto and ``chrome://tracing``.
        """
        events: List[Dict[str, object]] = [
            {
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "ts": 0,
                "name": "process_name",
                "args": {"name": process_name},
            }
        ]
        spans = list(self.iter_spans())
        origin = min((s.start for s in spans), default=0.0)
        for span in spans:
            end = span.end if span.end is not None else _time.perf_counter()
            events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "name": span.name,
                    "cat": span.category,
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round((end - span.start) * 1e6, 3),
                    "args": dict(span.attrs),
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_chrome_json(self, process_name: str = "repro") -> str:
        return json.dumps(self.to_chrome_trace(process_name), indent=2)


def validate_chrome_trace(data) -> int:
    """Check ``data`` against the trace-event schema; returns the event
    count.  Raises ``ValueError`` with a precise message on the first
    violation — this is what the CI trace-smoke job runs on the emitted
    JSON.
    """
    if not isinstance(data, dict):
        raise ValueError(f"trace must be a JSON object, got {type(data).__name__}")
    events = data.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace object must carry a 'traceEvents' array")
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: events must be objects")
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            raise ValueError(f"{where}: missing event phase 'ph'")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where}: missing integer {key!r}")
        if not isinstance(event.get("ts"), (int, float)):
            raise ValueError(f"{where}: missing numeric 'ts'")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"{where}: missing event 'name'")
        if phase == "X" and not isinstance(event.get("dur"), (int, float)):
            raise ValueError(f"{where}: complete event without 'dur'")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            raise ValueError(f"{where}: 'args' must be an object")
    return len(events)
