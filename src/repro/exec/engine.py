"""The campaign execution engine: grid in, ordered results out.

``ExecutionEngine.run`` takes a job grid (see
:class:`repro.exec.job.Job`), answers what it can from the
content-addressed result cache, hands the misses to the configured
executor, stores fresh results back, and returns one
:class:`repro.exec.job.JobResult` per job **in grid order** — results
are keyed by job identity, never by completion order, which is what
makes serial and parallel campaign reports byte-identical.

Observability plugs into the existing layers:

* an :class:`repro.sim.metrics.ExecMetrics` counts jobs, this
  engine's own cache hits/misses, failures and fallbacks — the same
  :class:`repro.sim.metrics.Counters` bag as the kernel's
  ``SimMetrics``, so both render through one ``describe``.  Events of
  the whole cache (corrupt entries, evictions) stay in the cache's
  :class:`repro.exec.cache.CacheStats`: engines may share a cache;
* a :class:`repro.obs.trace.SpanTracer` receives one ``exec`` span per
  grid and one child span per job (cache hits included, flagged
  ``cached=True``), so ``repro sweep --trace`` / ``repro fuzz --trace``
  show the scheduler's work next to the pipeline spans;
* an :class:`repro.obs.events.EventJournal` receives ``grid-start`` /
  ``job-cache-hit`` / ``job-complete`` / ``grid-complete`` records,
  and a :class:`repro.obs.metrics.MetricsRegistry` job/cache counters
  plus an execution-latency histogram.  Every journal record and span
  carries the request/run correlation ID: the serving layer binds the
  HTTP request's ID (:func:`repro.obs.events.bind_request_id`) before
  calling :meth:`ExecutionEngine.run`; standalone campaigns get a
  generated ``run-...`` ID per grid.  Both default to the shared
  no-op singletons, costing nothing when unused.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.exec.cache import ResultCache
from repro.exec.executors import SerialExecutor
from repro.exec.job import Job, JobResult, code_version_salt
from repro.obs.events import NULL_JOURNAL, current_request_id, new_request_id
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, NULL_REGISTRY
from repro.obs.trace import NULL_TRACER
from repro.sim.metrics import ExecMetrics

__all__ = ["ExecutionEngine"]


class ExecutionEngine:
    """Runs job grids through a cache + executor pair.

    ``executor``
        Any object with ``run(items, timeout=, cancel=) -> outcomes``
        — see :mod:`repro.exec.executors`.  Default: the serial
        reference.
    ``cache``
        A :class:`repro.exec.cache.ResultCache`, or ``None`` to run
        uncached (the default — campaign drivers opt in).
    ``refresh``
        Recompute every job but store the fresh results (a cache
        warm-up that distrusts current contents).
    ``journal`` / ``registry``
        An :class:`repro.obs.events.EventJournal` and a
        :class:`repro.obs.metrics.MetricsRegistry` (both default to
        the no-op singletons; see the module docstring).
    """

    def __init__(
        self,
        executor=None,
        cache: Optional[ResultCache] = None,
        metrics: Optional[ExecMetrics] = None,
        tracer=None,
        refresh: bool = False,
        journal=None,
        registry=None,
    ):
        self.executor = executor if executor is not None else SerialExecutor()
        self.cache = cache
        self.metrics = metrics if metrics is not None else ExecMetrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.refresh = refresh
        self.journal = journal if journal is not None else NULL_JOURNAL
        self.registry = registry if registry is not None else NULL_REGISTRY
        # shared no-ops when the registry is disabled; get-or-create,
        # so engines sharing a registry share these families
        self._jobs_total = self.registry.counter(
            "repro_exec_jobs_total",
            "Engine jobs by final outcome (cache hits count as ok).",
            ("outcome",),
        )
        self._cache_total = self.registry.counter(
            "repro_exec_cache_total",
            "Result-cache lookups by event.",
            ("event",),
        )
        self._job_seconds = self.registry.histogram(
            "repro_exec_job_seconds",
            "Executed (non-cached) job duration in seconds.",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )

    # -- main entry ----------------------------------------------------------

    def run(
        self,
        jobs: Sequence[Job],
        timeout: Optional[float] = None,
        cancel=None,
    ) -> List[JobResult]:
        """Run ``jobs``; see the class docstring.

        ``timeout`` overrides the executor's per-job budget for this
        call only (the serving layer passes a request's remaining
        deadline here); ``cancel`` is a :class:`threading.Event` —
        once set, jobs that have not started yet come back with a
        structured ``cancelled`` error instead of running.  Cache hits
        are always served, even with ``cancel`` set.
        """
        started = time.perf_counter()
        salt = code_version_salt()
        executor_name = getattr(self.executor, "name", "custom")
        use_cache = self.cache is not None
        read_cache = use_cache and not self.refresh
        # the correlation ID every event/span of this grid carries:
        # the serving layer's bound request ID when present, else a
        # generated run ID (only worth minting when someone listens)
        run_id = current_request_id()
        if not run_id and self.journal.enabled:
            run_id = "run-" + new_request_id()
        span_id = {"request_id": run_id} if run_id else {}

        results: List[Optional[JobResult]] = [None] * len(jobs)
        keys: List[str] = []
        pending: List[int] = []

        self.journal.emit(
            "grid-start", request_id=run_id, jobs=len(jobs),
            executor=executor_name,
        )
        with self.tracer.span(
            "exec-grid", category="exec", jobs=len(jobs),
            executor=executor_name, **span_id,
        ) as grid_span:
            for index, job in enumerate(jobs):
                key = job.key(salt)
                keys.append(key)
                if read_cache:
                    payload = self.cache.get(key, task=job.task)
                    if payload is not None:
                        results[index] = JobResult(
                            job=job, key=key, payload=payload,
                            cached=True, executor="cache",
                        )
                        self.tracer.record_span(
                            job.describe(), 0.0, cached=True, **span_id
                        )
                        self.metrics.cache_hits += 1
                        self._cache_total.labels("hit").inc()
                        self._jobs_total.labels("ok").inc()
                        self.journal.emit(
                            "job-cache-hit", request_id=run_id,
                            task=job.task, key=key,
                        )
                        continue
                    self.metrics.cache_misses += 1
                    self._cache_total.labels("miss").inc()
                pending.append(index)

            degraded_before = getattr(self.executor, "degraded", 0)
            retries_before = getattr(self.executor, "retries", 0)
            if pending:
                outcomes = self.executor.run(
                    [(jobs[i].task, jobs[i].params) for i in pending],
                    timeout=timeout,
                    cancel=cancel,
                )
                for index, outcome in zip(pending, outcomes):
                    job = jobs[index]
                    key = keys[index]
                    seconds = float(outcome.get("seconds", 0.0))
                    error = outcome.get("error")
                    payload = outcome.get("payload")
                    results[index] = JobResult(
                        job=job, key=key, payload=payload, error=error,
                        cached=False, seconds=seconds, executor=executor_name,
                    )
                    self.tracer.record_span(
                        job.describe(), seconds, cached=False,
                        **({"error": error["kind"]} if error else {}),
                        **span_id,
                    )
                    kind = "ok" if error is None else error.get("kind", "error")
                    self._jobs_total.labels(kind).inc()
                    self._job_seconds.observe(seconds)
                    self.journal.emit(
                        "job-complete", request_id=run_id, task=job.task,
                        key=key, outcome=kind, seconds=round(seconds, 6),
                    )
                    if error is None and use_cache:
                        self.cache.put(key, job.task, payload, salt=salt)

            done = [r for r in results if r is not None]
            self._account(
                jobs, done, grid_span, degraded_before, retries_before
            )
        self.journal.emit(
            "grid-complete", request_id=run_id, jobs=len(jobs),
            cache_hits=sum(1 for r in done if r.cached),
            failed=sum(1 for r in done if not r.ok),
            retries=getattr(self.executor, "retries", 0) - retries_before,
            degraded=getattr(self.executor, "degraded", 0) - degraded_before,
            seconds=round(time.perf_counter() - started, 6),
        )
        self.metrics.wall_seconds += time.perf_counter() - started
        return done

    def release(self) -> None:
        """Kill and reap the executor's worker processes, if it keeps
        any (the process executor's kept workers).  The engine stays usable;
        a later run forks fresh workers.  The campaign CLIs and the
        serve daemon call this when they are done."""
        terminate = getattr(self.executor, "terminate", None)
        if callable(terminate):
            terminate()

    def abort(self) -> None:
        """Best-effort cleanup after an interrupt: :meth:`release` the
        workers and remove half-written cache temp files.  The
        campaign CLIs call this on SIGINT/SIGTERM before exiting."""
        self.release()
        if self.cache is not None:
            self.cache.remove_temp_files()

    # -- bookkeeping ---------------------------------------------------------

    def _account(
        self, jobs, results, grid_span, degraded_before, retries_before
    ) -> None:
        hits = sum(1 for r in results if r.cached)
        failed = sum(1 for r in results if not r.ok)
        executed = len(results) - hits
        self.metrics.jobs += len(jobs)
        self.metrics.executed += executed
        self.metrics.failed += failed
        self.metrics.timeouts += sum(
            1 for r in results if r.error and r.error.get("kind") == "timeout"
        )
        self.metrics.cancelled += sum(
            1 for r in results if r.error and r.error.get("kind") == "cancelled"
        )
        self.metrics.degraded += (
            getattr(self.executor, "degraded", 0) - degraded_before
        )
        self.metrics.retries += (
            getattr(self.executor, "retries", 0) - retries_before
        )
        grid_span.set("cache_hits", hits)
        grid_span.set("executed", executed)
        grid_span.set("failed", failed)

    def describe(self) -> str:
        """The engine's cumulative counters (for CLI stderr summaries),
        plus the cache-wide events of its cache, if it has one."""
        if self.cache is None:
            return self.metrics.describe()
        stats = self.cache.stats
        return self.metrics.describe((
            ("cache entries discarded", stats.errors),
            ("cache evictions", stats.evictions),
        ))
