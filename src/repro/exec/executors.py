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
    ran it is poisoned (it may still be computing), so that worker
    alone is killed and replaced; the other jobs carry on.
``crash``
    A worker process died mid-job (killed, segfaulted, OOMed).  The
    process executor *degrades gracefully*: the crashed job and the
    still-queued ones are recomputed serially in the parent process,
    so a flaky worker can slow a campaign down but never lose results.
``cancelled``
    A caller-supplied cancellation event was set before the job
    started; jobs already running finish normally.

Both executors accept per-call overrides — ``run(items, timeout=...,
cancel=...)`` — which is how the serving layer (:mod:`repro.serve`)
propagates one request's deadline into exactly that request's jobs
without touching the executor's configured default.

:class:`ProcessExecutor` owns its workers: each is a forked
:class:`multiprocessing.Process` that receives ``(task, params)`` and
returns the outcome over its own duplex pipe, so a job costs one pipe
round-trip rather than a fork or a trip through a pool's manager and
feeder threads.  A worker is forked on first use and kept for later
runs.  It is replaced only when its job times out (it is poisoned),
when it dies mid-job, when it died while idle (found when a job is
sent to it, so no job is charged with it), or when a task was
registered after it forked (it would not know the task).
:meth:`ProcessExecutor.terminate` kills and reaps every worker; every
owner calls it when done (the campaign CLIs also on SIGINT/SIGTERM,
the serve daemon on close).
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
import traceback
import weakref
from collections import deque
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


#: The parent's end of every live worker's pipe, in every executor of
#: this process.  A forked worker closes its copies of them all: a pipe
#: only reaches EOF once every copy of the parent's end is closed, and a
#: worker must see EOF (and exit) when its executor is collected.
_PARENT_ENDS: "weakref.WeakSet" = weakref.WeakSet()
#: Held across pipe creation and fork, so that no fork copies an end
#: that is not yet in ``_PARENT_ENDS``.
_FORK_LOCK = threading.Lock()


def _worker_main(conn) -> None:
    """A kept worker: run each ``(task, params)`` received on ``conn``
    and send back its outcome, until the parent's end closes."""
    global _FORK_LOCK
    _FORK_LOCK = threading.Lock()  # the fork copied it held
    for end in list(_PARENT_ENDS):
        end.close()
    # the parent owns interruption (it kills its workers on SIGINT),
    # and a fork inherits its SIGTERM handler, which must not run here
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except ValueError:  # not the main thread (a non-fork start method)
        pass
    try:
        while True:
            task, params = conn.recv()
            conn.send(_execute_one(task, params))
    except (EOFError, OSError):  # the parent's end closed
        return


class _Worker:
    """One kept worker process and the parent's end of its pipe."""

    __slots__ = ("process", "conn", "generation")

    def __init__(self, process, conn, generation: int):
        self.process = process
        self.conn = conn
        self.generation = generation


class ProcessExecutor:
    """Kept worker processes with per-job timeouts and degradation.

    ``workers``
        Number of worker processes (default: all schedulable CPUs,
        capped at 4 so the default matches the benchmark gate's
        configuration).
    ``timeout``
        Per-job wall-clock budget in seconds (``None``: unlimited).
    ``serial_fallback``
        On a worker crash, recompute the unfinished jobs serially in
        the parent instead of raising (default on).

    Each worker is forked on first use and kept across runs (see the
    module docstring for what replaces one); call :meth:`terminate` to
    release them.  ``degraded``/``retries``/``restarts`` accumulate
    over runs for the engine's metrics (the engine counts timeouts
    itself, from the outcomes).
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        serial_fallback: bool = True,
    ):
        if workers is None:
            workers = min(4, _available_cpus())
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.timeout = timeout
        self.serial_fallback = serial_fallback
        self.degraded = 0
        self.retries = 0
        self.restarts = 0
        #: one kept worker (or None) per slot, guarded by the lock,
        #: which also serialises reaping: terminate() may come from
        #: another thread
        self._slots: List[Optional[_Worker]] = [None] * workers
        self._lock = threading.Lock()

    # -- worker lifecycle ------------------------------------------------------

    def _context(self):
        try:
            # fork keeps worker start-up to milliseconds and inherits
            # the task registry as it stands at the fork (tests
            # register ad-hoc tasks; a later one re-forks the worker)
            return multiprocessing.get_context("fork")
        except ValueError:
            return multiprocessing.get_context()

    def _worker(self, slot: int, generation: int) -> _Worker:
        """The slot's kept worker, forked first if there is none or it
        predates a task registration."""
        with self._lock:
            worker = self._slots[slot]
            if worker is not None and worker.generation == generation:
                return worker
            self._slots[slot] = None
        if worker is not None:
            self._retire(worker)
        context = self._context()
        with _FORK_LOCK:
            parent_end, child_end = context.Pipe()
            _PARENT_ENDS.add(parent_end)
            process = context.Process(
                target=_worker_main, args=(child_end,), daemon=True
            )
            process.start()
            child_end.close()
        worker = _Worker(process, parent_end, generation)
        with self._lock:
            self._slots[slot] = worker
        return worker

    def _retire(self, worker: _Worker) -> None:
        """Stop keeping ``worker``: SIGKILL it if it still runs (not
        SIGTERM: it may be stuck in a job), reap it, close its pipe."""
        with self._lock:
            for slot, kept in enumerate(self._slots):
                if kept is worker:
                    self._slots[slot] = None
            _kill_and_reap(worker.process)
        worker.conn.close()

    def terminate(self) -> None:
        """Kill every worker *now* and reap it.

        Safe to call from another thread: a run waiting on a killed
        worker wakes up and reports its job as crashed, and no worker
        process is left behind.  The executor stays usable: the next
        run forks fresh workers."""
        with self._lock:
            workers = [w for w in self._slots if w is not None]
            self._slots = [None] * self.workers
            for worker in workers:
                _kill_and_reap(worker.process)
        # a run still holding one of these closes its pipe; otherwise
        # dropping the last reference closes it

    # -- execution -----------------------------------------------------------

    def run(
        self,
        items: Sequence[Item],
        timeout: Optional[float] = None,
        cancel: Optional[threading.Event] = None,
    ) -> List[Outcome]:
        from repro.exec.campaigns import registry_generation

        effective = timeout if timeout is not None else self.timeout
        outcomes: Dict[int, Outcome] = {}
        queue = deque(range(len(items)))
        #: slot -> (its worker, the job index it runs, the job's deadline)
        busy: Dict[int, Tuple[_Worker, int, Optional[float]]] = {}
        crashed: List[int] = []
        try:
            while queue or busy:
                if not crashed or not self.serial_fallback:
                    self._dispatch(items, queue, busy, outcomes, effective,
                                   cancel, registry_generation())
                if busy:
                    self._collect(busy, outcomes, crashed, effective)
                elif crashed and self.serial_fallback:
                    break
        except BaseException:
            # interrupted (KeyboardInterrupt/SIGTERM): a busy worker's
            # late outcome would answer the next run's job, and it must
            # not grind on behind the raise
            for worker, _, _ in busy.values():
                self._retire(worker)
            raise
        if crashed and self.serial_fallback:
            # graceful degradation: a worker died mid-job; recompute the
            # in-flight job and everything still queued in-process
            self.degraded += 1
            for i in crashed + list(queue):
                if cancel is not None and cancel.is_set():
                    outcomes[i] = _cancelled_outcome()
                    continue
                self.retries += 1
                outcomes[i] = _execute_one(*items[i])
        return [outcomes[i] for i in range(len(items))]

    def _dispatch(self, items, queue, busy, outcomes, timeout, cancel,
                  generation) -> None:
        """Hand queued jobs to the idle slots."""
        for slot in range(self.workers):
            if not queue:
                return
            if slot in busy:
                continue
            if cancel is not None and cancel.is_set():
                while queue:
                    outcomes[queue.popleft()] = _cancelled_outcome()
                return
            index = queue.popleft()
            worker = self._worker(slot, generation)
            try:
                worker.conn.send(items[index])
            except OSError:
                # the worker died while idle: replace it, charge no job
                self._retire(worker)
                worker = self._worker(slot, generation)
                worker.conn.send(items[index])
            deadline = None if timeout is None else time.monotonic() + timeout
            busy[slot] = (worker, index, deadline)

    def _collect(self, busy, outcomes, crashed, timeout) -> None:
        """Wait until a busy worker answers, dies or overruns; settle
        each that did."""
        # imported here: serial-only programs never load the module
        from multiprocessing.connection import wait

        deadlines = [d for _, _, d in busy.values() if d is not None]
        wait_for = None
        if deadlines:
            wait_for = max(0.0, min(deadlines) - time.monotonic())
        handles = []
        for worker, _, _ in busy.values():
            handles.append(worker.conn)
            handles.append(worker.process.sentinel)
        ready = set(wait(handles, wait_for))
        now = time.monotonic()
        for slot, (worker, index, deadline) in list(busy.items()):
            if worker.conn in ready:
                try:
                    outcomes[index] = worker.conn.recv()
                    del busy[slot]
                    continue
                except (EOFError, OSError):
                    pass  # died mid-job: a crash
            elif worker.process.sentinel not in ready:
                if deadline is None or now < deadline:
                    continue
                outcomes[index] = {
                    "error": _structured_error(
                        "timeout", None, f"job exceeded its {timeout}s budget"
                    ),
                    "seconds": timeout,
                }
                # the worker is still grinding on the abandoned job
                self._retire(worker)
                self.restarts += 1
                del busy[slot]
                continue
            del busy[slot]
            self._retire(worker)
            if self.serial_fallback:
                crashed.append(index)
            else:
                outcomes[index] = {
                    "error": _structured_error(
                        "crash", None,
                        f"worker process died mid-job (exit code "
                        f"{worker.process.exitcode})",
                    ),
                    "seconds": 0.0,
                }


def _kill_and_reap(process) -> None:
    """SIGKILL ``process`` unless it already exited, then wait for it,
    so no zombie is left and its CPU time is accounted to this process."""
    if process.exitcode is None:
        try:
            process.kill()
        except (OSError, ValueError):  # already gone / closed
            pass
    process.join()


def _available_cpus() -> int:
    try:
        import os

        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        import os

        return max(1, os.cpu_count() or 1)


def resolve_executor(name: str, **options):
    """``"serial"`` / ``"process"`` to an executor object; keyword
    options feed the constructor."""
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessExecutor(**options)
    raise ValueError(f"unknown executor {name!r}; choose serial or process")
