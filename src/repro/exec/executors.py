"""Pluggable job executors: ``serial`` (reference) and ``process``.

An executor takes an ordered list of ``(task, params)`` pairs and
returns one *outcome* mapping per job, in the same order::

    {"payload": {...}, "seconds": 0.12}            # success
    {"error": {"kind": ..., "type": ..., "message": ...}, "seconds": ...}

Jobs never raise out of an executor — every failure mode is folded
into a structured error so campaign reports stay deterministic:

``error``
    The task raised; ``type``/``message`` carry the exception.
``timeout``
    The job exceeded the per-job wall-clock budget.  The worker that
    ran it is poisoned (it may still be computing), so the process
    pool is replaced before the remaining jobs continue.
``crash``
    A worker process died mid-job (killed, segfaulted, OOMed).  The
    process executor *degrades gracefully*: the in-flight and
    remaining jobs are recomputed serially in the parent process, so
    a flaky pool can slow a campaign down but never lose results.
``cancelled``
    A caller-supplied cancellation event was set before the job
    started; jobs already running finish normally.

Both executors accept per-call overrides — ``run(items, timeout=...,
cancel=...)`` — which is how the serving layer (:mod:`repro.serve`)
propagates one request's deadline into exactly that request's jobs
without touching the executor's configured default.

:class:`ProcessExecutor` forks its pool on the first ``run`` and keeps
it for later runs.  Every job is its own pool task, so it costs one
queue round-trip rather than a fork.  The kept pool is replaced by a
fresh one only when a job times out (the worker is poisoned), a worker
dies mid-job (the pool is broken), a worker died while idle (detected
before the next submit, so no job is charged with it), or a task was
registered after the fork (the workers would not know it).
:meth:`ProcessExecutor.terminate` kills the pool and reaps its
workers; every pool owner calls it when done (the campaign CLIs also
on SIGINT/SIGTERM, the serve daemon on close).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["SerialExecutor", "ProcessExecutor", "resolve_executor"]

Outcome = Dict[str, object]
Item = Tuple[str, Dict[str, object]]


def _structured_error(kind: str, exc: Optional[BaseException], message: str = "") -> Dict[str, object]:
    return {
        "kind": kind,
        "type": type(exc).__name__ if exc is not None else kind,
        "message": message or (str(exc).splitlines()[0] if exc is not None and str(exc) else ""),
    }


def _execute_one(task: str, params: Dict[str, object]) -> Outcome:
    """Run one job to an outcome mapping (never raises)."""
    from repro.exec.campaigns import get_task

    started = time.perf_counter()
    try:
        fn = get_task(task)
        payload = fn(dict(params))
        if not isinstance(payload, dict):
            raise TypeError(
                f"task {task!r} returned {type(payload).__name__}, "
                "expected a JSON-serialisable dict"
            )
        return {"payload": payload, "seconds": time.perf_counter() - started}
    except BaseException as exc:  # noqa: BLE001 — folded into the report
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return {
            "error": {
                **_structured_error("error", exc),
                "traceback": traceback.format_exc(limit=4),
            },
            "seconds": time.perf_counter() - started,
        }


def _cancelled_outcome() -> Outcome:
    return {
        "error": _structured_error(
            "cancelled", None, "job cancelled before it started"
        ),
        "seconds": 0.0,
    }


class SerialExecutor:
    """The reference executor: everything in-process, in order.

    ``timeout`` is accepted for interface parity but cannot preempt a
    running job in-process; ``cancel`` (a :class:`threading.Event`)
    skips jobs that have not started yet.
    """

    name = "serial"

    def run(
        self,
        items: Sequence[Item],
        timeout: Optional[float] = None,
        cancel: Optional[threading.Event] = None,
    ) -> List[Outcome]:
        outcomes: List[Outcome] = []
        for task, params in items:
            if cancel is not None and cancel.is_set():
                outcomes.append(_cancelled_outcome())
            else:
                outcomes.append(_execute_one(task, params))
        return outcomes


class ProcessExecutor:
    """A multiprocessing pool with per-job timeouts and degradation.

    ``workers``
        Pool size (default: all schedulable CPUs, capped at 4 so the
        default matches the benchmark gate's configuration).
    ``timeout``
        Per-job wall-clock budget in seconds (``None``: unlimited).
    ``serial_fallback``
        On a worker crash, recompute the unfinished jobs serially in
        the parent instead of raising (default on).

    The pool is forked on the first run and kept across runs (see the
    module docstring for what replaces it); call :meth:`terminate` to
    release its workers.  ``degraded``/``timeouts``/``restarts``
    accumulate over runs for the engine's metrics.
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        serial_fallback: bool = True,
        mp_context: Optional[str] = None,
    ):
        if workers is None:
            workers = min(4, _available_cpus())
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.timeout = timeout
        self.serial_fallback = serial_fallback
        self._mp_context = mp_context
        self.degraded = 0
        self.timeouts = 0
        self.retries = 0
        self.restarts = 0
        #: the kept pool and the task-registry generation it was forked
        #: at, both guarded by the lock (terminate() may come from
        #: another thread)
        self._pool = None
        self._pool_generation = -1
        self._pool_lock = threading.Lock()

    # -- pool plumbing -------------------------------------------------------

    def _context(self):
        if self._mp_context is not None:
            return multiprocessing.get_context(self._mp_context)
        try:
            # fork keeps worker start-up to milliseconds and inherits
            # the task registry as it stands at the fork (tests
            # register ad-hoc tasks; a later one re-forks the pool)
            return multiprocessing.get_context("fork")
        except ValueError:
            return multiprocessing.get_context()

    def _new_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self.workers, mp_context=self._context()
        )

    def _acquire_pool(self):
        """The kept pool, replaced first if it broke, a worker died
        while idle, or a task was registered since it forked."""
        from repro.exec.campaigns import registry_generation

        generation = registry_generation()
        with self._pool_lock:
            stale = self._pool
            if (stale is not None and self._pool_generation == generation
                    and self._workers_alive(stale)):
                return stale
            # the pool forks its workers lazily, at the first submit
            pool = self._pool = self._new_pool()
            self._pool_generation = generation
        if stale is not None:
            self._kill_pool(stale)
        return pool

    def _discard(self, pool) -> None:
        """Kill ``pool`` and stop keeping it (if it is still kept)."""
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        self._kill_pool(pool)

    @staticmethod
    def _workers_alive(pool) -> bool:
        # _broken and _processes are internal, but a worker that died
        # while idle must be noticed before a job is submitted to it,
        # or that job would be reported as a crash
        from multiprocessing.connection import wait

        if getattr(pool, "_broken", False):
            return False
        sentinels = [p.sentinel for p in (pool._processes or {}).values()]
        return not wait(sentinels, timeout=0)

    @staticmethod
    def _kill_pool(pool) -> None:
        """Tear a pool down *now*, busy workers included, and wait
        until its workers are reaped (so no zombie is left and their
        CPU time is accounted to this process)."""
        # _processes and _executor_manager_thread are internal, but
        # they are the only way to reap a worker that is still
        # executing an abandoned (timed-out) job; shutdown() alone
        # would block on it.  SIGKILL, not SIGTERM: a forked worker
        # inherits the parent's SIGTERM handler.
        workers = list((getattr(pool, "_processes", None) or {}).values())
        manager = getattr(pool, "_executor_manager_thread", None)
        for process in workers:
            try:
                process.kill()
            except (OSError, ValueError):  # already gone / closed
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        if manager is not None:
            # the manager thread joins the dead workers and exits;
            # joining it, not them, keeps two threads from racing to
            # reap one child (the loser would see it as still alive)
            manager.join(timeout=5.0)

    def terminate(self) -> None:
        """Kill the kept pool *now* and reap its workers.

        Safe to call from a signal handler's aftermath or another
        thread; a run interrupted this way raises out of ``run`` as
        usual, but no worker process is left behind.  The executor
        stays usable: the next run forks a fresh pool."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            self._kill_pool(pool)

    # -- execution -----------------------------------------------------------

    def run(
        self,
        items: Sequence[Item],
        timeout: Optional[float] = None,
        cancel: Optional[threading.Event] = None,
    ) -> List[Outcome]:
        effective = timeout if timeout is not None else self.timeout
        outcomes: Dict[int, Outcome] = {}
        pending = list(range(len(items)))
        while pending:
            if cancel is not None and cancel.is_set():
                for i in pending:
                    outcomes[i] = _cancelled_outcome()
                break
            pending = self._run_wave(items, pending, outcomes, effective, cancel)
        return [outcomes[i] for i in range(len(items))]

    def _run_wave(
        self,
        items: Sequence[Item],
        pending: List[int],
        outcomes: Dict[int, Outcome],
        timeout: Optional[float],
        cancel: Optional[threading.Event] = None,
    ) -> List[int]:
        """Submit every pending job to the kept pool, collect in order;
        returns the indices that must be resubmitted (after a timeout
        replaced the pool)."""
        from concurrent.futures import BrokenExecutor
        from concurrent.futures import TimeoutError as FutureTimeout

        pool = self._acquire_pool()
        pool_dead = False
        try:
            futures = [
                (pool.submit(_execute_one, *items[i]), i) for i in pending
            ]
            requeue: List[int] = []
            crashed: List[int] = []
            for future, i in futures:
                if pool_dead:
                    # pool already recycled: salvage finished jobs, requeue the rest
                    if future.done() and not future.cancelled():
                        try:
                            outcomes[i] = future.result(0)
                            continue
                        except Exception:
                            pass
                    requeue.append(i)
                    continue
                try:
                    outcomes[i] = future.result(timeout)
                except FutureTimeout:
                    self.timeouts += 1
                    outcomes[i] = {
                        "error": _structured_error(
                            "timeout",
                            None,
                            f"job exceeded its {timeout}s budget",
                        ),
                        "seconds": timeout,
                    }
                    # the worker is still grinding on the abandoned job —
                    # replace the pool so the rest get clean workers
                    self._discard(pool)
                    self.restarts += 1
                    pool_dead = True
                except (BrokenExecutor, EnvironmentError) as exc:
                    crashed.append(i)
                    self._discard(pool)
                    pool_dead = True
                    if not self.serial_fallback:
                        outcomes[i] = {
                            "error": _structured_error("crash", exc),
                            "seconds": 0.0,
                        }
        except BaseException:
            # interrupted (KeyboardInterrupt/SIGTERM): never leave
            # worker processes grinding behind the raise
            self._discard(pool)
            raise
        if crashed and self.serial_fallback:
            # graceful degradation: a worker died mid-job; recompute the
            # in-flight job and everything still queued in-process
            self.degraded += 1
            for i in crashed + requeue:
                if cancel is not None and cancel.is_set():
                    outcomes[i] = _cancelled_outcome()
                    continue
                self.retries += 1
                outcomes[i] = _execute_one(*items[i])
            return []
        return requeue


def _available_cpus() -> int:
    try:
        import os

        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        import os

        return max(1, os.cpu_count() or 1)


def resolve_executor(name: str, **options):
    """``"serial"`` / ``"process"`` (or an executor instance) to an
    executor object; keyword options feed the constructor."""
    if hasattr(name, "run"):
        return name
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessExecutor(**options)
    raise ValueError(f"unknown executor {name!r}; choose serial or process")
