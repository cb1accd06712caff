"""The ``repro serve`` daemon: refinement-as-a-service over HTTP/JSON.

Built entirely on the stdlib (:mod:`http.server`) and the existing
campaign machinery: every request is a content-addressed
:class:`repro.exec.job.Job` executed through an
:class:`repro.exec.engine.ExecutionEngine`, so identical submissions
from different clients are answered from the shared on-disk
:class:`repro.exec.cache.ResultCache` in microseconds, and a successful
response ``payload`` is byte-identical to the same job run through the
campaign CLIs.

Robustness is the headline:

* **worker isolation** — each of the ``workers`` slots owns a
  single-worker :class:`repro.exec.executors.ProcessExecutor` with
  serial fallback *off*.  The slot's worker is forked on its first
  computed request and kept for the next ones; it is replaced after a
  crash or a deadline preemption, when it died while idle (the next
  request then runs normally), or when a task was registered since
  the fork, and it is killed and reaped on :meth:`ReproServer.close`.
  A job that SIGKILLs its worker produces a structured 500 on that
  request only and is never re-run in the server process;
* **deadlines** — a request's ``deadline`` (seconds) is decremented
  through queueing and propagated into the per-job execution timeout;
  exhaustion anywhere yields a structured 504;
* **backpressure** — a bounded admission queue; overflow is an
  immediate 429 with ``Retry-After`` computed from the observed
  (EWMA) service time and current occupancy, never a hang;
* **circuit breaker** — specs that repeatedly crash workers are
  quarantined with a structured 503 (see
  :class:`repro.serve.breaker.CircuitBreaker`) instead of thrashing
  the workers;
* **graceful drain** — SIGTERM/SIGINT stop admission (503
  ``draining``, readiness flips), let in-flight requests finish,
  flush cache scratch files, and exit 0.  Responses sent while
  draining carry ``Connection: close``, and closing the daemon shuts
  down every kept-alive client connection, so no handler thread
  outlives it.

Connections are HTTP/1.1 keep-alive: one handler thread serves a
client's consecutive requests, with Nagle's algorithm off (a response
is written as a header and a body, and Nagle would hold the body back
for the client's delayed ACK).  A connection idle for
``_Handler.timeout`` seconds is closed by the daemon.

Telemetry is unified (see ``docs/OBSERVABILITY.md``): every request
carries a correlation ID — the client's ``X-Repro-Request-Id`` header
when present, a generated one otherwise — which is echoed on the
response, stamped on every journal record the request produces
(admission, queueing, dispatch, completion, rejection), bound via
:func:`repro.obs.events.bind_request_id` around engine execution so
per-job events and spans inherit it, and fed into per-request latency
histograms in the process-wide
:class:`repro.obs.metrics.MetricsRegistry`.  A flight recorder keeps
the most recent journal records in a bounded ring and dumps them to
``flight_dir`` whenever a request ends in a worker crash, deadline
preemption or circuit-open rejection, so every 5xx is diagnosable
after the fact.

Endpoints (see ``docs/SERVICE.md`` for the full contract)::

    GET  /healthz        liveness (200 while the process runs)
    GET  /readyz         readiness (503 while starting or draining)
    GET  /metrics        Prometheus text-format telemetry snapshot
    GET  /v1/stats       serve/exec/cache/breaker/telemetry counters
    GET  /v1/tasks       registered task names
    GET  /v1/trace       merged Chrome trace of recent jobs (--trace)
    GET  /v1/jobs/<key>  cached result lookup by job key
    POST /v1/jobs        submit {"task","params"[,"deadline"]}
    POST /v1/drain       begin graceful drain (as SIGTERM does)
"""

from __future__ import annotations

import json
import math
import queue
import re
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from repro.exec import (
    ExecutionEngine,
    Job,
    ProcessExecutor,
    ResultCache,
    SerialExecutor,
    code_version_salt,
    default_cache_dir,
    get_task,
    task_names,
)
from repro.obs.events import (
    EventJournal,
    FlightRecorder,
    NULL_JOURNAL,
    bind_request_id,
    new_request_id,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.obs.stats import Ewma
from repro.obs.trace import SpanTracer
from repro.serve.breaker import CircuitBreaker
from repro.sim.metrics import Counters

__all__ = [
    "ERROR_STATUS",
    "ReproServer",
    "ServeConfig",
    "ServeMetrics",
    "run_server",
]

#: Error-taxonomy kind -> HTTP status.  Every non-200 body is
#: ``{"error": {"kind": <one of these>, "message": ...}}``.
ERROR_STATUS: Dict[str, int] = {
    "bad-request": 400,
    "unknown-task": 400,
    "not-found": 404,
    "method-not-allowed": 405,
    "queue-full": 429,
    "error": 500,
    "crash": 500,
    "internal": 500,
    "circuit-open": 503,
    "draining": 503,
    "cancelled": 503,
    "deadline": 504,
}

#: Outcome kinds that trigger a flight-recorder dump: each represents
#: a request the server could not serve normally and a human will want
#: to reconstruct after the fact.
FLIGHT_DUMP_KINDS = frozenset({"crash", "deadline", "circuit-open"})

_REQUEST_ID_RE = re.compile(r"[A-Za-z0-9._:-]{1,64}$")


def _clean_request_id(value: Optional[str]) -> str:
    """A client-supplied correlation ID, or ``""`` if unusable (too
    long, funny characters — IDs land in filenames and log lines)."""
    if value and _REQUEST_ID_RE.match(value):
        return value
    return ""


@dataclass
class ServeConfig:
    """Everything the daemon is allowed to do, in one place."""

    host: str = "127.0.0.1"
    port: int = 8736
    #: worker slots (= max concurrently executing requests)
    workers: int = 2
    #: admitted requests allowed to wait for a slot before 429
    queue_limit: int = 8
    #: ``process`` (isolated workers; the default) or ``serial``
    #: (in-process; no crash isolation or deadline preemption)
    executor: str = "process"
    #: seconds granted when a request names no deadline
    default_deadline: float = 30.0
    #: hard ceiling any requested deadline is clamped to
    max_deadline: float = 300.0
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    #: result-cache directory; ``None`` = $REPRO_CACHE_DIR/.repro_cache
    cache_dir: Optional[str] = None
    cache_capacity: int = 4096
    #: run without any result cache
    no_cache: bool = False
    #: seconds drain waits for in-flight requests before closing anyway
    drain_grace: float = 30.0
    #: per-slot SpanTracers + the /v1/trace endpoint
    trace: bool = False
    #: register the chaos tasks (sleep/crash/spin) — testing only
    chaos: bool = False
    #: access-log lines on stderr
    verbose: bool = False
    #: metrics registry + event journal + ``GET /metrics``; off turns
    #: the whole telemetry layer into shared no-ops
    telemetry: bool = True
    #: JSONL event-journal file (``None`` = ring buffer only)
    journal_path: Optional[str] = None
    #: where flight-recorder dumps land on crash/deadline/circuit-open
    flight_dir: str = "benchmarks/output"
    #: journal records the flight recorder retains
    flight_capacity: int = 512


class ServeMetrics(Counters):
    """The serving layer's own counters, on the shared
    :class:`repro.sim.metrics.Counters` bag (engine counters live in
    each slot's :class:`repro.sim.metrics.ExecMetrics`).  ``errors``
    (completed requests that failed) and ``rejected`` (refused at
    admission) are per-kind tallies.  The service-time EWMA is no
    counter: it is the input to ``Retry-After``.  All mutation happens
    under the server lock."""

    FIELDS = (
        ("requests", "requests"),
        ("ok", "requests ok"),
        ("cached", "requests served from cache"),
        ("errors", "errors by kind"),
        ("rejected", "rejections by kind"),
        ("queue_depth", "queue depth"),
        ("in_flight", "in flight"),
        ("peak_queue_depth", "peak queue depth"),
        ("peak_in_flight", "peak in flight"),
    )
    TALLIES = frozenset({"errors", "rejected"})
    __slots__ = tuple(name for name, _ in FIELDS) + (
        "_service_ewma", "started_at",
    )

    #: EWMA smoothing factor for observed service time.
    ALPHA = 0.3

    def __init__(self):
        self._service_ewma = Ewma(alpha=self.ALPHA)
        self.started_at = time.monotonic()
        super().__init__()

    @property
    def ewma_service_seconds(self) -> float:
        return self._service_ewma.value

    def note_service(self, seconds: float) -> None:
        self._service_ewma.update(seconds)

    def count_error(self, kind: str, rejected: bool) -> None:
        self.tally("rejected" if rejected else "errors", kind)

    def as_dict(self) -> Dict[str, object]:
        out = super().as_dict()
        del out["wall_seconds"]  # the daemon reports uptime instead
        out["ewma_service_seconds"] = round(self.ewma_service_seconds, 6)
        out["uptime_seconds"] = round(time.monotonic() - self.started_at, 3)
        return out


class _Slot:
    """One worker slot: an exclusive engine over a one-worker executor.

    Slots circulate through a :class:`queue.Queue`; a request owns at
    most one slot at a time, so each engine (and its tracer) is only
    ever used single-threaded while the *fleet* serves concurrently.
    """

    #: trace roots kept per slot (older spans are trimmed)
    TRACE_KEEP = 256

    def __init__(
        self,
        index: int,
        config: ServeConfig,
        cache: Optional[ResultCache],
        journal=NULL_JOURNAL,
        registry=NULL_REGISTRY,
    ):
        self.index = index
        if config.executor == "process":
            executor = ProcessExecutor(workers=1, serial_fallback=False)
        elif config.executor == "serial":
            executor = SerialExecutor()
        else:
            raise ValueError(
                f"unknown serve executor {config.executor!r}; "
                "choose process or serial"
            )
        self.tracer = SpanTracer() if config.trace else None
        self.engine = ExecutionEngine(
            executor=executor, cache=cache, tracer=self.tracer,
            journal=journal, registry=registry,
        )

    def trim_trace(self) -> None:
        if self.tracer is not None and len(self.tracer.roots) > self.TRACE_KEEP:
            del self.tracer.roots[: -self.TRACE_KEEP]


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # drain handles lifecycle; don't block close on handler threads
    block_on_close = False
    repro: "ReproServer"

    def __init__(self, *args, **kwargs):
        self._open: set = set()  # accepted connections not yet shut down
        self._open_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut down every open client connection: a handler thread
        waiting on an idle kept-alive connection reads EOF and ends."""
        with self._open_lock:
            open_now = list(self._open)
        for request in open_now:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class ReproServer:
    """The daemon: construct, :meth:`start`, then :meth:`wait`.

    Usable in-process (tests start it on an ephemeral port and talk to
    ``http://127.0.0.1:{server.port}``) or via ``repro serve``.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        if self.config.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.config.workers}")
        if self.config.queue_limit < 0:
            raise ValueError(
                f"queue-limit must be >= 0, got {self.config.queue_limit}"
            )
        self.cache: Optional[ResultCache] = None
        if not self.config.no_cache:
            self.cache = ResultCache(
                self.config.cache_dir or default_cache_dir(),
                capacity=self.config.cache_capacity,
            )
        self.metrics = ServeMetrics()
        # -- unified telemetry: registry + journal + flight recorder
        if self.config.telemetry:
            self.registry = MetricsRegistry()
            self.recorder = FlightRecorder(
                capacity=self.config.flight_capacity
            )
            self.journal = EventJournal(
                path=self.config.journal_path, recorder=self.recorder
            )
        else:
            self.registry = NULL_REGISTRY
            self.recorder = None
            self.journal = NULL_JOURNAL
        self._m_requests = self.registry.counter(
            "repro_serve_requests_total",
            "Submissions by final outcome (ok, or the error kind).",
            ("outcome",),
        )
        self._m_request_seconds = self.registry.histogram(
            "repro_serve_request_seconds",
            "Request latency from admission to final outcome, by task.",
            ("task",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._m_queue_depth = self.registry.gauge(
            "repro_serve_queue_depth", "Admitted requests awaiting a slot."
        )
        self._m_in_flight = self.registry.gauge(
            "repro_serve_in_flight", "Requests currently executing."
        )
        self._m_flight_dumps = self.registry.counter(
            "repro_serve_flight_dumps_total",
            "Flight-recorder dumps written, by trigger reason.",
            ("reason",),
        )
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
            journal=self.journal,
        )
        self._slots: "queue.Queue[_Slot]" = queue.Queue()
        self._all_slots: List[_Slot] = []
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._draining = False
        self._drain_reason = ""
        self._drain_requested = threading.Event()
        self._started = False
        self._closed = False
        self._httpd: Optional[_HTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._salt = ""
        self.port = self.config.port

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ReproServer":
        """Bind, spin up the listener thread and the worker slots."""
        if self._started:
            raise RuntimeError("server already started")
        if self.config.chaos:
            from repro.serve.chaos import register_chaos_tasks

            register_chaos_tasks()
        # compute the code salt once, before any request races to
        self._salt = code_version_salt()
        for index in range(self.config.workers):
            slot = _Slot(
                index, self.config, self.cache,
                journal=self.journal, registry=self.registry,
            )
            self._all_slots.append(slot)
            self._slots.put(slot)
        self._httpd = _HTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.repro = self
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-listener",
            daemon=True,
        )
        self._thread.start()
        self._started = True
        return self

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def ready(self) -> bool:
        with self._lock:
            return self._started and not self._draining and not self._closed

    def begin_drain(self, reason: str = "requested") -> None:
        """Stop admitting; in-flight requests keep running.  Safe to
        call from a signal handler or any thread; idempotent."""
        with self._lock:
            if self._draining:
                return
            self._draining = True
            self._drain_reason = reason
        self._drain_requested.set()

    def wait(self, timeout: Optional[float] = None) -> int:
        """Block until a drain is requested, then complete it: wait
        (bounded by ``drain_grace``) for in-flight work, close the
        listener, flush cache scratch files.  Returns the process exit
        code (0 on a clean drain)."""
        # Poll in short slices rather than blocking indefinitely: a
        # process-directed SIGTERM may be delivered to a busy handler
        # thread, and the main thread must keep returning to bytecode
        # for the Python-level signal handler (-> begin_drain) to run.
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._drain_requested.wait(0.2):
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    "no drain requested within the wait timeout"
                )
        grace_ends = time.monotonic() + self.config.drain_grace
        with self._lock:
            while self.metrics.queue_depth > 0 or self.metrics.in_flight > 0:
                remaining = grace_ends - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(min(remaining, 0.2))
            drained = self.metrics.queue_depth == 0 and self.metrics.in_flight == 0
        self.close()
        if not drained:
            print(
                "repro serve: drain grace expired with requests still "
                "in flight",
                file=sys.stderr,
            )
            return 1
        return 0

    def close(self) -> None:
        """Tear the listener down now (after a drain, or in tests)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._draining = True
        self._drain_requested.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd.close_connections()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        for slot in self._all_slots:
            slot.engine.release()
        if self.cache is not None:
            self.cache.remove_temp_files()
        self.journal.emit("server-closed")
        self.journal.close()

    # -- request handling ----------------------------------------------------

    def _error(
        self,
        kind: str,
        message: str,
        rejected: bool = False,
        retry_after: Optional[float] = None,
        key: Optional[str] = None,
        count: bool = True,
        request_id: str = "",
    ) -> Tuple[int, Dict[str, str], Dict[str, object]]:
        if count:
            with self._lock:
                self.metrics.count_error(kind, rejected)
        if request_id:
            # only submissions carry an ID; read-only lookups skip the
            # journal, counters and flight recorder entirely
            self._note_failure(kind, message, rejected, key, request_id)
        headers: Dict[str, str] = {}
        body: Dict[str, object] = {
            "error": {"kind": kind, "message": message}
        }
        if key is not None:
            body["key"] = key
        if retry_after is not None:
            headers["Retry-After"] = str(max(1, math.ceil(retry_after)))
            headers["X-Repro-Retry-After"] = f"{max(retry_after, 0.001):.3f}"
        return ERROR_STATUS[kind], headers, body

    def _note_failure(
        self,
        kind: str,
        message: str,
        rejected: bool,
        key: Optional[str],
        request_id: str,
    ) -> None:
        """Telemetry for one failed/rejected submission: outcome
        counter, journal record, and — for the post-mortem-worthy
        kinds — a flight-recorder dump naming the request."""
        self._m_requests.labels(kind).inc()
        self.journal.emit(
            "request-rejected" if rejected else "request-failed",
            request_id=request_id,
            error=kind,
            key=key or "",
            message=message,
        )
        if kind in FLIGHT_DUMP_KINDS and self.recorder is not None:
            path = self.recorder.dump(
                self.config.flight_dir, kind, request_id
            )
            self._m_flight_dumps.labels(kind).inc()
            self.journal.emit(
                "flight-dump", request_id=request_id, reason=kind, path=path
            )

    def _retry_after_seconds(self) -> float:
        """Backpressure hint from observed service time and occupancy:
        roughly how long until a queue slot frees up."""
        ewma = self.metrics.ewma_service_seconds or 1.0
        waiting = self.metrics.queue_depth + self.metrics.in_flight
        return min(max(ewma * (waiting + 1) / self.config.workers, 0.05), 60.0)

    def submit(
        self, data: object, request_id: str = ""
    ) -> Tuple[int, Dict[str, str], Dict[str, object]]:
        """Handle one POST /v1/jobs body; returns (status, headers, body).

        ``request_id`` is the client's ``X-Repro-Request-Id`` (or
        ``""``); an unusable or absent one is replaced by a generated
        ID.  The ID is bound for the whole submission — journal
        records, engine job events and spans inherit it — and echoed
        in the response headers.
        """
        received = time.monotonic()
        rid = _clean_request_id(request_id) or new_request_id()
        with bind_request_id(rid):
            status, headers, body = self._submit(data, rid, received)
        task = data.get("task") if isinstance(data, dict) else None
        if isinstance(task, str):
            self._m_request_seconds.labels(task).observe(
                time.monotonic() - received
            )
        headers = dict(headers)
        headers.setdefault("X-Repro-Request-Id", rid)
        return status, headers, body

    def _submit(
        self, data: object, rid: str, received: float
    ) -> Tuple[int, Dict[str, str], Dict[str, object]]:
        if not isinstance(data, dict):
            return self._error(
                "bad-request", "request body must be a JSON object",
                request_id=rid,
            )
        task = data.get("task")
        params = data.get("params")
        if not isinstance(task, str) or not isinstance(params, dict):
            return self._error(
                "bad-request",
                'body must carry a string "task" and an object "params"',
                request_id=rid,
            )
        try:
            get_task(task)
        except KeyError:
            return self._error(
                "unknown-task",
                f"unknown task {task!r}; GET /v1/tasks lists the registry",
                request_id=rid,
            )
        if "stimuli" in params:
            return self._error(
                "bad-request",
                'batched submissions ("stimuli") are not supported; '
                'submit one "inputs" vector per job',
                request_id=rid,
            )
        workload = params.get("workload")
        if workload is not None:
            # reject unknown registry ids at admission rather than
            # burning a worker slot on a job that can only fail
            from repro.apps.workloads import WorkloadError, default_registry

            if not isinstance(workload, str):
                return self._error(
                    "bad-request", '"workload" must be a registry id string',
                    request_id=rid,
                )
            try:
                default_registry().get(workload)
            except WorkloadError as exc:
                return self._error(
                    "bad-request", str(exc), request_id=rid,
                )
        deadline = data.get("deadline", self.config.default_deadline)
        if not isinstance(deadline, (int, float)) or deadline <= 0:
            return self._error(
                "bad-request",
                '"deadline" must be a positive number of seconds',
                request_id=rid,
            )
        deadline = min(float(deadline), self.config.max_deadline)
        job = Job(task, params, label=f"serve:{task}")
        try:
            key = job.key(self._salt)
        except TypeError:
            return self._error(
                "bad-request", '"params" must be JSON-serialisable',
                request_id=rid,
            )
        self.journal.emit(
            "request-received", request_id=rid, task=task, key=key,
            deadline=round(deadline, 3),
        )

        # -- admission ------------------------------------------------------
        with self._lock:
            self.metrics.requests += 1
            if self._draining:
                return self._error_locked(
                    "draining",
                    f"server is draining ({self._drain_reason})",
                    rejected=True,
                    retry_after=self.config.drain_grace,
                    key=key,
                    request_id=rid,
                )
            decision = self.breaker.admit(key)
            if not decision.allowed:
                return self._error_locked(
                    "circuit-open",
                    "this job spec repeatedly crashed workers; "
                    f"circuit is {decision.state}",
                    rejected=True,
                    retry_after=decision.retry_after,
                    key=key,
                    request_id=rid,
                )
            if self.metrics.queue_depth >= self.config.queue_limit:
                return self._error_locked(
                    "queue-full",
                    f"admission queue is full "
                    f"({self.config.queue_limit} waiting)",
                    rejected=True,
                    retry_after=self._retry_after_seconds(),
                    key=key,
                    request_id=rid,
                )
            self.metrics.queue_depth += 1
            self.metrics.peak_queue_depth = max(
                self.metrics.peak_queue_depth, self.metrics.queue_depth
            )
            self._m_queue_depth.set(self.metrics.queue_depth)
        self.journal.emit(
            "request-queued", request_id=rid, key=key,
            depth=self.metrics.queue_depth,
        )

        # -- wait for a worker slot (bounded by the deadline) ---------------
        slot: Optional[_Slot] = None
        try:
            remaining = deadline - (time.monotonic() - received)
            if remaining > 0:
                try:
                    slot = self._slots.get(timeout=remaining)
                except queue.Empty:
                    slot = None
        finally:
            with self._lock:
                self.metrics.queue_depth -= 1
                self._m_queue_depth.set(self.metrics.queue_depth)
                if slot is not None:
                    self.metrics.in_flight += 1
                    self.metrics.peak_in_flight = max(
                        self.metrics.peak_in_flight, self.metrics.in_flight
                    )
                    self._m_in_flight.set(self.metrics.in_flight)
                else:
                    self._idle.notify_all()
        if slot is None:
            return self._error(
                "deadline",
                f"deadline of {deadline:g}s exhausted while queued",
                key=key,
                request_id=rid,
            )
        self.journal.emit(
            "request-dispatched", request_id=rid, key=key, slot=slot.index,
        )

        # -- execute with the remaining deadline ----------------------------
        try:
            remaining = deadline - (time.monotonic() - received)
            if remaining <= 0:
                return self._error(
                    "deadline",
                    f"deadline of {deadline:g}s exhausted before execution",
                    key=key,
                    request_id=rid,
                )
            result = slot.engine.run([job], timeout=remaining)[0]
        except Exception as exc:  # noqa: BLE001 — a 500, never a hang
            return self._error(
                "internal", f"{type(exc).__name__}: {exc}", key=key,
                request_id=rid,
            )
        finally:
            slot.trim_trace()
            self._slots.put(slot)
            with self._lock:
                self.metrics.in_flight -= 1
                self._m_in_flight.set(self.metrics.in_flight)
                self._idle.notify_all()

        # -- outcome --------------------------------------------------------
        if result.error is None:
            self.breaker.record(key, ok=True)
            with self._lock:
                self.metrics.ok += 1
                if result.cached:
                    self.metrics.cached += 1
                else:
                    self.metrics.note_service(result.seconds)
            self._m_requests.labels("ok").inc()
            self.journal.emit(
                "request-complete", request_id=rid, key=key,
                cached=result.cached, seconds=round(result.seconds, 6),
            )
            headers = {
                "X-Repro-Cached": "true" if result.cached else "false",
                "X-Repro-Seconds": f"{result.seconds:.6f}",
            }
            # audit trail: which kernel variant computed this payload
            # (compiled or batched) — present on simulation
            # tasks, absent on purely structural ones
            if isinstance(result.payload, dict) and "kernel" in result.payload:
                headers["X-Repro-Kernel"] = str(result.payload["kernel"])
            # the body carries only deterministic members, so for one
            # job key every 200 body is byte-identical — cold, warm,
            # or computed by the campaign CLIs
            return 200, headers, {"key": key, "payload": result.payload}
        kind = result.error.get("kind", "error")
        self.breaker.record(key, ok=kind not in ("crash", "timeout"))
        message = result.error.get("message", "")
        if kind == "timeout":
            return self._error(
                "deadline",
                f"execution exceeded the deadline: {message}",
                key=key,
                request_id=rid,
            )
        if kind == "crash":
            return self._error(
                "crash",
                f"worker process died executing this job: {message}",
                key=key,
                request_id=rid,
            )
        if kind == "cancelled":
            return self._error(
                "cancelled", message or "job cancelled", key=key,
                request_id=rid,
            )
        return self._error(
            "error",
            f"{result.error.get('type', 'Exception')}: {message}",
            key=key,
            request_id=rid,
        )

    def _error_locked(
        self, kind, message, rejected, retry_after, key, request_id=""
    ):
        """:meth:`_error` for callers already holding the lock."""
        self.metrics.count_error(kind, rejected)
        status, headers, body = self._error(
            kind,
            message,
            rejected=rejected,
            retry_after=retry_after,
            key=key,
            count=False,
            request_id=request_id,
        )
        return status, headers, body

    # -- read-only endpoints -------------------------------------------------

    def lookup(self, key: str) -> Tuple[int, Dict[str, str], Dict[str, object]]:
        if self.cache is None:
            return self._error(
                "not-found", "no result cache configured", count=False
            )
        payload = self.cache.get(key)
        if payload is None:
            return self._error(
                "not-found", f"no cached result under {key!r}", count=False
            )
        return 200, {"X-Repro-Cached": "true"}, {"key": key, "payload": payload}

    def stats(self) -> Dict[str, object]:
        with self._lock:
            server = self.metrics.as_dict()
            server["ready"] = self._started and not self._draining and not self._closed
            server["draining"] = self._draining
            server["workers"] = self.config.workers
            server["queue_limit"] = self.config.queue_limit
            server["executor"] = self.config.executor
            server["retry_after_seconds"] = round(self._retry_after_seconds(), 3)
        exec_totals: Dict[str, object] = {}
        for slot in self._all_slots:
            for name, value in slot.engine.metrics.as_dict().items():
                exec_totals[name] = exec_totals.get(name, 0) + value
        cache: Optional[Dict[str, object]] = None
        if self.cache is not None:
            cache = dict(self.cache.stats.as_dict())
            cache["read_only"] = self.cache.read_only
            cache["root"] = self.cache.root
        telemetry: Dict[str, object] = {
            "enabled": self.config.telemetry,
            "events_emitted": self.journal.emitted,
            "journal_path": self.journal.path,
            "flight_dumps": self.recorder.dumps if self.recorder else 0,
            "metrics": self.registry.snapshot(),
        }
        return {
            "server": server,
            "exec": exec_totals,
            "cache": cache,
            "breaker": self.breaker.snapshot(),
            "telemetry": telemetry,
        }

    def trace_events(self) -> Optional[Dict[str, object]]:
        """Merged Chrome trace of the slots' recent jobs (one tid per
        slot), or ``None`` when tracing is off."""
        if not self.config.trace:
            return None
        events: List[Dict[str, object]] = [
            {
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "ts": 0,
                "name": "process_name",
                "args": {"name": "repro-serve"},
            }
        ]
        for slot in self._all_slots:
            if slot.tracer is None:
                continue
            for event in slot.tracer.to_chrome_trace()["traceEvents"]:
                if event.get("ph") == "M":
                    continue
                merged = dict(event)
                merged["tid"] = slot.index + 1
                events.append(merged)
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # a response is two writes; see the module docstring
    disable_nagle_algorithm = True
    #: seconds a kept-alive connection may sit idle before the daemon
    #: closes it (the client resends on a fresh connection)
    timeout = 10.0

    #: request body size cap (a specification is a few hundred KB at
    #: the very most; anything larger is a client bug or abuse)
    MAX_BODY = 8 * 1024 * 1024

    @property
    def rs(self) -> ReproServer:
        return self.server.repro  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.rs.config.verbose:
            sys.stderr.write(
                f"{self.address_string()} - {format % args}\n"
            )

    # -- plumbing ------------------------------------------------------------

    def _request_id(self) -> str:
        return _clean_request_id(self.headers.get("X-Repro-Request-Id"))

    def _send(
        self,
        status: int,
        body: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        data = (json.dumps(body, sort_keys=True) + "\n").encode()
        self._send_bytes(status, data, "application/json", headers)

    def _send_text(
        self,
        status: int,
        text: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        self._send_bytes(status, text.encode(), content_type, None)

    def _send_bytes(
        self,
        status: int,
        data: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]],
    ) -> None:
        headers = headers or {}
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            self.send_header(name, value)
        # echo the client's correlation ID on every response (submit
        # already placed the authoritative — possibly generated — one)
        rid = self._request_id()
        if rid and "X-Repro-Request-Id" not in headers:
            self.send_header("X-Repro-Request-Id", rid)
        if self.rs._draining or self.close_connection:
            # send_header also marks this connection to close
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _guard(self, handler) -> None:
        try:
            handler()
        except BrokenPipeError:
            pass  # client went away; nothing to answer
        except Exception as exc:  # noqa: BLE001 — a 500, never a dead thread
            # the request may be half read: do not reuse the connection
            self.close_connection = True
            try:
                self._send(
                    500,
                    {
                        "error": {
                            "kind": "internal",
                            "message": f"{type(exc).__name__}: {exc}",
                        }
                    },
                )
            except Exception:
                pass

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server contract
        self._guard(self._get)

    def _get(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send(200, {"status": "alive"})
        elif path == "/readyz":
            if self.rs.ready():
                self._send(200, {"status": "ready"})
            else:
                state = "draining" if self.rs._draining else "starting"
                self._send(
                    503,
                    {"error": {"kind": "draining", "message": state},
                     "status": state},
                )
        elif path == "/metrics":
            if not self.rs.config.telemetry:
                self._send(
                    404,
                    {"error": {"kind": "not-found",
                               "message": "telemetry disabled; start the "
                                          "server without --no-telemetry"}},
                )
            else:
                self._send_text(
                    200,
                    self.rs.registry.render(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
        elif path == "/v1/stats":
            self._send(200, self.rs.stats())
        elif path == "/v1/tasks":
            self._send(200, {"tasks": task_names()})
        elif path == "/v1/trace":
            trace = self.rs.trace_events()
            if trace is None:
                self._send(
                    404,
                    {"error": {"kind": "not-found",
                               "message": "tracing disabled; start the "
                                          "server with --trace"}},
                )
            else:
                self._send(200, trace)
        elif path.startswith("/v1/jobs/"):
            key = path[len("/v1/jobs/"):]
            status, headers, body = self.rs.lookup(key)
            self._send(status, body, headers)
        else:
            self._send(
                404,
                {"error": {"kind": "not-found",
                           "message": f"no route for {path!r}"}},
            )

    def do_POST(self) -> None:  # noqa: N802 — http.server contract
        self._guard(self._post)

    def _post(self) -> None:
        path = self.path.split("?", 1)[0].rstrip("/")
        length = int(self.headers.get("Content-Length") or 0)
        if 0 <= length <= self.MAX_BODY:
            # read every body, routed or not, so a kept connection
            # stays in step with the client's next request
            raw = self.rfile.read(length)
        else:
            # an unread body would be parsed as the next request
            self.close_connection = True
            raw = b""
        if path == "/v1/jobs":
            if not raw:
                self._send(
                    400,
                    {"error": {"kind": "bad-request",
                               "message": "a JSON body is required "
                                          f"(at most {self.MAX_BODY} bytes)"}},
                )
                return
            try:
                data = json.loads(raw)
            except ValueError as exc:
                self._send(
                    400,
                    {"error": {"kind": "bad-request",
                               "message": f"invalid JSON: {exc}"}},
                )
                return
            status, headers, body = self.rs.submit(
                data, request_id=self._request_id()
            )
            self._send(status, body, headers)
        elif path == "/v1/drain":
            self.rs.begin_drain("POST /v1/drain")
            self._send(202, {"status": "draining"})
        else:
            self._send(
                405 if path in ("/healthz", "/readyz", "/v1/stats") else 404,
                {"error": {"kind": "not-found",
                           "message": f"no POST route for {path!r}"}},
            )


def run_server(config: ServeConfig) -> int:
    """The ``repro serve`` entry point: start, announce, install
    signal handlers, block until drained.  Returns the exit code."""
    import signal as _signal

    server = ReproServer(config).start()
    print(f"repro serve listening on {server.url}", flush=True)
    print(
        f"  workers={config.workers} queue_limit={config.queue_limit} "
        f"executor={config.executor} "
        f"cache={'off' if server.cache is None else server.cache.root} "
        f"telemetry={'on' if config.telemetry else 'off'}"
        + (f" journal={config.journal_path}" if config.journal_path else ""),
        file=sys.stderr,
        flush=True,
    )

    def _drain(signum, frame):  # noqa: ARG001 — signal contract
        server.begin_drain(_signal.Signals(signum).name)

    previous = {
        sig: _signal.signal(sig, _drain)
        for sig in (_signal.SIGTERM, _signal.SIGINT)
    }
    try:
        code = server.wait()
    finally:
        for sig, old in previous.items():
            _signal.signal(sig, old)
    stats = server.stats()
    print(
        "repro serve drained: "
        f"{stats['server']['ok']} ok, "
        f"{stats['server']['cached']} cache-served, "
        f"errors={stats['server']['errors']}, "
        f"rejected={stats['server']['rejected']}",
        file=sys.stderr,
    )
    return code
