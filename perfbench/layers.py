"""Layer-by-layer tracing from outside the program.

:class:`LayerTracer` replaces the public functions of each ``repro``
layer with wrappers that record a span per call, at the place where
the caller looks the name up (module attribute or class attribute),
and puts every original back on :meth:`LayerTracer.uninstall`.
Spans stay in memory: name, start, end, parent span, request ID and a
few attributes read from the call's result.  :func:`layer_metrics`
turns them into the per-layer metrics; :func:`chrome_trace` writes them
out in the Chrome trace-event format.

Only the process that installed the wrappers records: a worker forked
from it calls straight through, so its job time shows only as the
engine's ``exec.job_s``.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: refinement procedures read from ``RefinedDesign.procedure_seconds``
REFINE_PROCEDURES = (
    "validate", "plan", "control", "data", "memory", "businterface",
    "arbiter", "emitter", "assemble",
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request_id: str = ""
    thread: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread of the installing process.

    The parent of a span is the innermost open span of the same thread.
    A span opened on a thread with no open span, carrying a request ID,
    takes as parent the open span that registered that request ID on
    another thread: a server-side submit nests under the client call
    that sent it.
    """

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._by_request: Dict[str, int] = {}

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request_id: str = "",
              publish: bool = False) -> int:
        stack = self._stack()
        with self._lock:
            if stack:
                parent: Optional[int] = stack[-1]
            else:
                parent = self._by_request.get(request_id) if request_id else None
            if not request_id:
                request_id = (
                    self.spans[parent].request_id if parent is not None
                    else self.run_id
                )
            index = len(self.spans)
            self.spans.append(Span(
                name, self.clock(), parent=parent, request_id=request_id,
                thread=threading.get_ident(),
            ))
            if publish:
                self._by_request[request_id] = index
        stack.append(index)
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        with self._lock:
            if self._by_request.get(span.request_id) == index:
                del self._by_request[span.request_id]
        return span

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of its interval that its
    child spans cover (overlapping children are counted once)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(max(span.duration - covered, 0.0))
    return result


# -- the wrapped names -----------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One name to wrap: ``attr`` of module ``module`` (or of class
    ``owner`` in it).  ``span`` is the span name; ``count_only`` wraps
    with a call counter instead of a span."""

    module: str
    attr: str
    span: str
    owner: str = ""
    count_only: bool = False


TARGETS: Tuple[Target, ...] = (
    Target("repro.lang.parser", "parse", "lang.parse"),
    Target("repro.lang.printer", "print_specification", "lang.print"),
    Target("repro.spec.specification", "validate", "spec.validate",
           owner="Specification"),
    Target("repro.graph.access_graph", "from_specification", "graph.build",
           owner="AccessGraph"),
    Target("repro.partition.auto", "greedy_partition", "partition.greedy"),
    Target("repro.partition.auto", "kl_partition", "partition.kl"),
    Target("repro.partition.auto", "annealed_partition", "partition.annealed"),
    Target("repro.partition.auto", "partition_cost", "partition.cost_evals",
           count_only=True),
    Target("repro.refine.refiner", "run", "refine.run", owner="Refiner"),
    Target("repro.sim.interpreter", "run", "sim.run", owner="Simulator"),
    Target("repro.sim.batch", "run_batch", "sim.batch", owner="BatchSimulator"),
    Target("repro.sim.equivalence", "check_equivalence", "equiv.check"),
    Target("repro.sim.equivalence", "compare_runs", "equiv.compare"),
    Target("repro.estimate.profile", "profile_specification",
           "estimate.profile"),
    Target("repro.estimate", "estimate_design_point", "estimate.cost"),
    Target("repro.exec.job", "key", "exec.key", owner="Job"),
    Target("repro.exec.cache", "get", "exec.cache_get", owner="ResultCache"),
    Target("repro.exec.cache", "put", "exec.cache_put", owner="ResultCache"),
    Target("repro.exec.engine", "run", "exec.run", owner="ExecutionEngine"),
    Target("repro.serve.server", "submit", "serve.submit", owner="ReproServer"),
    Target("repro.serve.client", "submit", "serve.client", owner="ReproClient"),
)


def _lanes(args, kwargs) -> int:
    stimuli = kwargs.get("stimuli", args[1] if len(args) > 1 else ())
    return len(stimuli)


def _batch_steps(result) -> int:
    return sum(lane.result.steps for lane in result if lane.result is not None)


def _job_seconds(results) -> float:
    return sum(r.seconds for r in results if not r.cached)


#: span name -> (span attribute, function of (args, kwargs, result))
_RESULT_ATTRS: Dict[str, Tuple[Tuple[str, Callable], ...]] = {
    "sim.run": (("steps", lambda a, k, r: r.steps),),
    "sim.batch": (
        ("lanes", lambda a, k, r: _lanes(a, k)),
        ("steps", lambda a, k, r: _batch_steps(r)),
    ),
    "refine.run": (
        ("procedures", lambda a, k, r: dict(r.procedure_seconds)),
    ),
    "equiv.compare": (("mismatches", lambda a, k, r: len(r.mismatches)),),
    "exec.cache_get": (("hit", lambda a, k, r: r is not None),),
    "exec.run": (("job_s", lambda a, k, r: _job_seconds(r)),),
    "serve.submit": (("status", lambda a, k, r: r[0]),),
    "serve.client": (
        ("attempts", lambda a, k, r: r.attempts),
        ("status", lambda a, k, r: r.status),
    ),
}


def _server_request_id(args, kwargs) -> str:
    return kwargs.get("request_id", args[2] if len(args) > 2 else "") or ""


def _client_request_id(args, kwargs) -> str:
    return kwargs.get("request_id", args[4] if len(args) > 4 else "") or ""


_REQUEST_IDS = {
    "serve.submit": _server_request_id,
    "serve.client": _client_request_id,
}


class LayerTracer:
    """Installs the wrappers of :data:`TARGETS`; use as a context
    manager or call :meth:`install`/:meth:`uninstall`."""

    def __init__(self, run_id: str, targets: Sequence[Target] = TARGETS):
        self.recorder = SpanRecorder(run_id)
        self.targets = tuple(targets)
        self._pid = os.getpid()
        self._saved: List[Tuple[object, str, object]] = []
        #: simulators that have run once (later runs are warm)
        self._warm = weakref.WeakSet()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers already installed")
        try:
            for target in self.targets:
                module = importlib.import_module(target.module)
                holder = getattr(module, target.owner) if target.owner else module
                raw = (holder.__dict__[target.attr] if target.owner
                       else getattr(holder, target.attr))
                self._saved.append((holder, target.attr, raw))
                setattr(holder, target.attr, self._wrap(target, raw))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, raw = self._saved.pop()
            setattr(holder, attr, raw)

    def _span_name(self, target: Target, args) -> str:
        if target.span != "sim.run":
            return target.span
        simulator = args[0]
        if simulator in self._warm:
            return "sim.warm"
        self._warm.add(simulator)
        return "sim.cold"

    def _wrap(self, target: Target, raw):
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        recorder = self.recorder
        pid = self._pid
        attrs = _RESULT_ATTRS.get(target.span, ())
        request_id_of = _REQUEST_IDS.get(target.span)
        publish = target.span == "serve.client"

        if target.count_only:
            @functools.wraps(function)
            def counted(*args, **kwargs):
                if os.getpid() == pid:
                    recorder.count(target.span)
                return function(*args, **kwargs)
            return counted

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return function(*args, **kwargs)
            request_id = request_id_of(args, kwargs) if request_id_of else ""
            index = recorder.begin(
                self._span_name(target, args), request_id, publish=publish
            )
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                recorder.end(index).attrs["error"] = type(exc).__name__
                raise
            span = recorder.end(index)
            for name, read in attrs:
                span.attrs[name] = read(args, kwargs, result)
            return result

        return classmethod(traced) if is_classmethod else traced


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    spans = recorder.spans
    own = self_times(spans)
    calls: Dict[str, int] = {}
    busy: Dict[str, float] = {}
    for span, seconds in zip(spans, own):
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + seconds

    def count(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    def seconds(*names: str) -> float:
        return sum(busy.get(name, 0.0) for name in names)

    def total(name: str, attr: str) -> float:
        return sum(span.attrs.get(attr, 0) for span in spans if span.name == name)

    searches = ("partition.greedy", "partition.kl", "partition.annealed")
    metrics: Dict[str, float] = {
        "lang.calls": count("lang.parse", "lang.print"),
        "lang_s": seconds("lang.parse", "lang.print"),
        "spec.validate.calls": count("spec.validate"),
        "spec.validate_s": seconds("spec.validate"),
        "graph.build.calls": count("graph.build"),
        "graph.build_s": seconds("graph.build"),
        "partition.search.calls": count(*searches),
        "partition.search_s": seconds(*searches),
        "partition.cost_evals": recorder.counts.get("partition.cost_evals", 0),
        "refine.calls": count("refine.run"),
        "refine_s": seconds("refine.run"),
    }
    for procedure in REFINE_PROCEDURES:
        metrics[f"refine.{procedure}_s"] = sum(
            span.attrs.get("procedures", {}).get(procedure, 0.0)
            for span in spans if span.name == "refine.run"
        )
    steps = total("sim.cold", "steps") + total("sim.warm", "steps") \
        + total("sim.batch", "steps")
    sim_seconds = seconds("sim.cold", "sim.warm", "sim.batch")
    metrics.update({
        "sim.cold.calls": count("sim.cold"),
        "sim.cold_s": seconds("sim.cold"),
        "sim.warm.calls": count("sim.warm"),
        "sim.warm_s": seconds("sim.warm"),
        "sim.batch.calls": count("sim.batch"),
        "sim.batch.lanes": total("sim.batch", "lanes"),
        "sim.batch_s": seconds("sim.batch"),
        "sim.steps": steps,
        "sim.us_per_step": sim_seconds / steps * 1e6 if steps else 0.0,
        "equiv.checks": count("equiv.compare"),
        "equiv.mismatches": total("equiv.compare", "mismatches"),
        "equiv.compare_s": seconds("equiv.compare", "equiv.check"),
        "estimate.profile.calls": count("estimate.profile"),
        "estimate.profile_s": seconds("estimate.profile"),
        "estimate.cost.calls": count("estimate.cost"),
        "estimate.cost_s": seconds("estimate.cost"),
    })

    lookups = count("exec.cache_get")
    hits = sum(1 for s in spans if s.name == "exec.cache_get" and s.attrs.get("hit"))
    # the engine's own share of a grid: what is left of ExecutionEngine.run
    # after the job bodies and its key/cache calls
    bookkeeping: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None and span.name in (
            "exec.key", "exec.cache_get", "exec.cache_put"
        ):
            bookkeeping[span.parent] = (
                bookkeeping.get(span.parent, 0.0) + span.duration
            )
    dispatch = sum(
        max(span.duration - span.attrs.get("job_s", 0.0)
            - bookkeeping.get(index, 0.0), 0.0)
        for index, span in enumerate(spans) if span.name == "exec.run"
    )
    metrics.update({
        "exec.key.calls": count("exec.key"),
        "exec.key_s": seconds("exec.key"),
        "exec.cache_get_s": seconds("exec.cache_get"),
        "exec.cache_put_s": seconds("exec.cache_put"),
        "exec.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "exec.job_s": total("exec.run", "job_s"),
        "exec.dispatch_s": dispatch,
        "serve.admit_s": seconds("serve.submit"),
        "serve.http_s": seconds("serve.client"),
        "serve.retries": sum(
            span.attrs.get("attempts", 1) - 1
            for span in spans if span.name == "serve.client"
        ),
        "serve.rejected": sum(
            1 for span in spans
            if span.name == "serve.submit" and span.attrs.get("status") in (429, 503)
        ),
    })
    return metrics


def chrome_trace(recorder: SpanRecorder) -> Dict[str, object]:
    """The spans as a Chrome trace-event document (complete events,
    microseconds from the first span)."""
    spans = recorder.spans
    origin = min((span.start for span in spans), default=0.0)
    threads: Dict[int, int] = {}
    own = self_times(spans)
    events = []
    for index, (span, seconds) in enumerate(zip(spans, own)):
        tid = threads.setdefault(span.thread, len(threads) + 1)
        args = {
            "request_id": span.request_id,
            "self_us": round(seconds * 1e6, 3),
        }
        if span.parent is not None:
            args["parent"] = span.parent
        args.update(
            {k: v for k, v in span.attrs.items() if isinstance(v, (int, float, str))}
        )
        events.append({
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": os.getpid(),
            "tid": tid,
            "id": index,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"run_id": recorder.run_id,
                          "counts": dict(recorder.counts)}}
