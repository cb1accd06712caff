"""Discrete-event simulation kernel with VHDL-style delta cycles.

The kernel knows nothing about the IR; it schedules *processes*
(Python generators) that yield :class:`WaitCondition`,
:class:`WaitDelay` or :class:`Join` requests, and it owns the *signal*
store: signal assignments are deferred and take effect between process
activations (a delta cycle), so concurrently executing behaviors see a
consistent snapshot — the property the refined handshake protocols rely
on.

Scheduling loop:

1. run every ready process until it suspends or finishes;
2. apply pending signal updates; signals that changed wake the
   processes indexed under them in the *sensitivity index* (a *delta
   cycle* — time does not advance);
3. when no delta activity remains, advance time to the earliest entry
   of the timed queue — a process's ``wait for`` (or fault stall) wake-up
   or a fault-delayed signal update — and release every entry due then;
4. when neither delta nor timed work remains, the simulation is
   *quiescent* and :meth:`Kernel.run` returns.  Refined designs contain
   endless server behaviors (memories, arbiters, bus interfaces), so
   quiescence with the application processes finished is the normal
   termination; the caller decides which processes were required to
   finish (pass them as ``required`` to get a structured
   :class:`DeadlockError` instead of a silent incomplete run).

The sensitivity index (``signal name -> processes waiting on it``) is
maintained incrementally as processes suspend and wake, so a delta
cycle touches only the waiters of the signals that actually changed —
the kernel never rescans the whole suspended set.  Wake order is the
order the processes suspended in (each waiter carries a monotonically
increasing sequence number), which keeps scheduling deterministic and
identical to the historical scan-based behavior.

Observability and robustness machinery (all opt-in, zero-cost when
unused):

* :class:`repro.sim.metrics.SimMetrics` — inline counters (process
  activations, delta cycles, signal updates, bus transactions, ...)
  attached via ``Kernel(metrics=...)``;
* :class:`KernelLimits` — configurable budgets (total activations,
  delta cycles per timestep, wall-clock seconds); a breach raises
  :class:`SimulationLimitExceeded` naming the limit that tripped;
* a ring buffer of the last :data:`DEFAULT_TRACE_DEPTH` scheduler
  events (``run``/``delta``/``advance``/``fault``/``kill``), rendered
  by :meth:`Kernel.format_trace`; it is the kernel's one scheduler-event
  record, attached to limit and deadlock errors so a wedged protocol
  can be diagnosed post mortem;
* a narrow fault-injection interface: an *injector* (see
  :mod:`repro.sim.faults`) may intercept every signal write
  (drop/delay/corrupt) and every process activation (stall/kill).  The
  scheduler loop is the one place a process is activated: with an
  injector attached it asks the injector first, handles a kill or a
  stall in place, and otherwise runs the same activation sequence as a
  fault-free run.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import time as _time
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Container,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import (
    BlockedProcessInfo,
    DeadlockError,
    SimulationError,
    SimulationLimitExceeded,
)

__all__ = [
    "WaitCondition",
    "WaitDelay",
    "Join",
    "Process",
    "KernelLimits",
    "Kernel",
]

#: Default bound on total process activations (the historical constant).
DEFAULT_MAX_STEPS = 2_000_000

#: How many scheduler events the diagnostic ring buffer keeps.
DEFAULT_TRACE_DEPTH = 32


#: sort key for deterministic (suspension-order) candidate wakeup
_wait_seq_of = operator.attrgetter("_wait_seq")


def _format_detail(detail) -> str:
    """Render a trace-record detail.

    The hot recording sites (delta cycles, time advances) store raw
    values — a name collection, the new time — and formatting happens
    only when a human-facing trace is actually produced."""
    if isinstance(detail, str):
        return detail
    if isinstance(detail, (int, float)):
        return f"{detail:g}"
    return ",".join(sorted(detail))


class WaitCondition:
    """Suspend until ``predicate()`` is true; re-evaluated whenever one
    of the named signals changes.  The predicate is checked immediately
    on suspension (level-sensitive), so a condition that already holds
    does not deadlock the process.  ``label`` is a human-readable
    rendering of the condition used in deadlock reports.
    """

    __slots__ = (
        "predicate",
        "sensitivity",
        "label",
        "_index_sets",
        "_index_kernel",
    )

    def __init__(
        self,
        predicate: Callable[[], bool],
        sensitivity: Iterable[str],
        label: str = "",
    ):
        self.predicate = predicate
        self.sensitivity = frozenset(sensitivity)
        self.label = label
        #: cached sensitivity-index buckets of ``_index_kernel``
        #: (filled on first suspension; buckets are never replaced, so
        #: they stay valid for that kernel's whole run; a condition
        #: suspended under another kernel re-resolves them)
        self._index_sets: Optional[Tuple[Set["Process"], ...]] = None
        self._index_kernel: Optional["Kernel"] = None


class WaitDelay:
    """Suspend for ``delay`` time units (>= 0; zero yields one delta)."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.delay = delay


class Join:
    """Suspend until every process in ``processes`` has finished."""

    __slots__ = ("processes",)

    def __init__(self, processes: Iterable["Process"]):
        self.processes = tuple(processes)


class Process:
    """One schedulable coroutine.

    ``finished`` is set when the generator completed (or the process
    was killed); ``failed`` carries the exception of a crashed process;
    ``killed`` marks termination through :meth:`Kernel.kill` (directly
    or via a fault injector's ``kill`` action).
    """

    __slots__ = (
        "name",
        "generator",
        "finished",
        "failed",
        "killed",
        "_waiting_on",
        "_wait_seq",
        "_step",
    )

    def __init__(self, name: str, generator: Iterator):
        self.name = name
        self.generator = generator
        #: bound ``__next__`` — the activation fast path
        self._step = generator.__next__
        self.finished = False
        self.failed: Optional[BaseException] = None
        #: set when the process was terminated via :meth:`Kernel.kill`
        self.killed = False
        self._waiting_on: Optional[object] = None
        #: suspension sequence number (orders condition wakeups)
        self._wait_seq: int = 0

    def __repr__(self) -> str:
        state = "finished" if self.finished else (
            "blocked" if self._waiting_on is not None else "ready"
        )
        if self.killed:
            state = "killed"
        return f"<Process {self.name} {state}>"


@dataclass(frozen=True)
class KernelLimits:
    """Configurable simulation budgets.

    ``max_steps`` bounds total process activations; ``max_delta`` bounds
    consecutive delta cycles without time advancing (a delta-cycle storm
    — two processes toggling a signal forever); ``wall_clock`` bounds
    real elapsed seconds of :meth:`Kernel.run`.  ``None`` disables a
    limit.
    """

    max_steps: Optional[int] = DEFAULT_MAX_STEPS
    max_delta: Optional[int] = None
    wall_clock: Optional[float] = None


class Kernel:
    """The event-driven scheduler and signal store.

    ``injector`` is an optional fault injector implementing the narrow
    interface of :class:`repro.sim.faults.FaultInjector`
    (``on_signal_write`` / ``on_activation``); ``metrics`` attaches a
    :class:`repro.sim.metrics.SimMetrics` counter bag, which costs one
    ``is not None`` check per scheduler event when absent.

    ``observer`` taps the signal-change stream: it must provide
    ``on_register(name, initial)`` (called as signals are declared) and
    ``on_change(time, name, value)`` (called for every applied update
    that changed a signal's value).  :class:`repro.obs.vcd.VCDWriter`
    is one such observer; like metrics, a detached observer costs one
    ``is not None`` check per delta cycle.
    """

    def __init__(
        self,
        injector=None,
        metrics=None,
        observer=None,
    ):
        self.now: float = 0.0
        self._signals: Dict[str, object] = {}
        self._pending: Dict[str, object] = {}
        self._processes: List[Process] = []
        self._ready: List[Process] = []
        #: processes blocked on a WaitCondition, by process
        self._cond_waiters: Dict[Process, WaitCondition] = {}
        #: the sensitivity index: signal name -> processes whose wait
        #: condition lists it (maintained incrementally on suspend/wake)
        self._sensitivity: Dict[str, Set[Process]] = {}
        #: processes blocked on a Join
        self._join_waiters: Dict[Process, Join] = {}
        #: timed queue of (time, seq, entry): an entry is a process to
        #: wake or a fault-delayed signal update ``(name, value)``
        self._timed: List[Tuple[float, int, object]] = []
        self._seq = itertools.count()
        self.steps: int = 0
        self.injector = injector
        self.metrics = metrics
        self.observer = observer
        #: ring buffer of (kind, detail, time) scheduler events
        self._trace: deque = deque(maxlen=DEFAULT_TRACE_DEPTH)
        #: delta cycles since time last advanced (storm detection)
        self._delta_streak: int = 0

    # -- signals ------------------------------------------------------------

    def register_signal(self, name: str, initial) -> None:
        """Declare a signal; duplicate names are an error (refinement
        generates globally unique signal names)."""
        if name in self._signals:
            raise SimulationError(f"signal {name!r} registered twice")
        self._signals[name] = initial
        if self.observer is not None:
            self.observer.on_register(name, initial)

    def has_signal(self, name: str) -> bool:
        return name in self._signals

    def read_signal(self, name: str):
        try:
            return self._signals[name]
        except KeyError:
            raise SimulationError(f"unknown signal {name!r}") from None

    def write_signal(self, name: str, value) -> None:
        """Schedule a signal update for the next delta cycle.

        An attached fault injector may drop the update, corrupt the
        value, or defer it by some simulated time."""
        if name not in self._signals:
            raise SimulationError(f"unknown signal {name!r}")
        if self.injector is not None:
            action, value = self.injector.on_signal_write(self.now, name, value)
            if action == "drop":
                self._fault(f"dropped write {name}")
                return
            if action == "delay":
                value, delay = value
                self._fault(f"delayed write {name} by {delay}")
                heapq.heappush(
                    self._timed, (self.now + delay, next(self._seq), (name, value))
                )
                return
            if action == "corrupt":
                self._fault(f"corrupted write {name} -> {value!r}")
        if self.metrics is not None:
            self.metrics.signal_writes += 1
        self._pending[name] = value

    def signal_names(self) -> Set[str]:
        return set(self._signals)

    # -- processes -------------------------------------------------------------

    def spawn(self, name: str, generator: Iterator) -> Process:
        """Create a process and mark it ready."""
        process = Process(name, generator)
        self._processes.append(process)
        self._ready.append(process)
        if self.metrics is not None:
            self.metrics.processes_spawned += 1
        return process

    def kill(self, process: Process, reason: str = "killed") -> None:
        """Terminate ``process`` immediately, whatever it is doing.

        The process is marked finished+killed, its generator is closed,
        and it is removed from every wait structure it occupies — the
        ready queue, the condition-waiter map *and the sensitivity
        index*, the join-waiter map; entries already queued in the
        timed heap are skipped lazily when they surface.  Joiners
        waiting on the process are notified (a killed process counts as
        finished, matching the fault injector's historical behavior).
        Killing an already-finished process is a no-op.
        """
        if process.finished:
            return
        process.finished = True
        process.killed = True
        process.generator.close()
        condition = self._cond_waiters.pop(process, None)
        if condition is not None:
            self._unindex(process, condition)
        self._join_waiters.pop(process, None)
        process._waiting_on = None
        if process in self._ready:
            self._ready.remove(process)
        self._record("kill", f"{process.name} ({reason})")
        if self.metrics is not None:
            self.metrics.processes_killed += 1
        self._notify_joiners(process)

    @property
    def processes(self) -> List[Process]:
        return list(self._processes)

    def blocked_processes(self) -> List[Process]:
        """Processes still suspended when the simulation went quiescent."""
        return [
            p
            for p in self._processes
            if not p.finished and p.failed is None
        ]

    def blocked_report(self) -> List[BlockedProcessInfo]:
        """Structured wait-state snapshot of every blocked process."""
        out: List[BlockedProcessInfo] = []
        for process in self.blocked_processes():
            request = process._waiting_on
            if isinstance(request, WaitCondition):
                out.append(
                    BlockedProcessInfo(
                        process.name,
                        "condition",
                        sensitivity=request.sensitivity,
                        detail=request.label,
                    )
                )
            elif isinstance(request, WaitDelay):
                out.append(
                    BlockedProcessInfo(
                        process.name, "delay", detail=f"for {request.delay}"
                    )
                )
            elif isinstance(request, Join):
                pending = [p.name for p in request.processes if not p.finished]
                out.append(
                    BlockedProcessInfo(
                        process.name, "join", detail=f"on {pending}"
                    )
                )
            else:
                out.append(BlockedProcessInfo(process.name, "ready"))
        return out

    # -- diagnostics ---------------------------------------------------------

    def _record(self, kind: str, detail) -> None:
        self._trace.append((kind, detail, self.now))

    def _fault(self, detail: str) -> None:
        """Tally one injected fault: a ring event and ``metrics.faults``."""
        self._record("fault", detail)
        if self.metrics is not None:
            self.metrics.faults += 1

    def format_trace(self) -> List[str]:
        """The ring buffer rendered as short human-readable lines."""
        return [
            f"t={when:g} {kind}: {_format_detail(detail)}"
            for kind, detail, when in self._trace
        ]

    # -- the event loop -----------------------------------------------------------

    def run(
        self,
        limits: Optional[KernelLimits] = None,
        required: Iterable[Process] = (),
    ) -> None:
        """Run to quiescence.

        ``limits`` bounds the run (see :class:`KernelLimits`; ``None``
        means the default budgets).  Breaching a budget raises
        :class:`SimulationLimitExceeded` naming the limit that tripped.

        ``required`` lists processes that must have finished by
        quiescence; when any is still blocked, the kernel raises a
        :class:`DeadlockError` carrying every blocked process, its wait
        condition and sensitivity list, and the most recent scheduler
        events.
        """
        if limits is None:
            limits = KernelLimits()
        required = tuple(required)
        metrics = self.metrics
        wall_started = _time.perf_counter() if metrics is not None else 0.0
        try:
            self._run_loop(limits)
        finally:
            if metrics is not None:
                metrics.wall_seconds += _time.perf_counter() - wall_started
                metrics.note_streak(self._delta_streak)
            # a condition still waiting would otherwise point back at
            # this kernel (``_index_kernel``) from the kernel's own
            # waiter map — a reference cycle; a later suspension simply
            # re-resolves the buckets
            for condition in self._cond_waiters.values():
                condition._index_sets = None
                condition._index_kernel = None
        unfinished = [
            p.name for p in required if not p.finished and p.failed is None
        ]
        if unfinished:
            raise DeadlockError(
                blocked=self.blocked_report(),
                required=unfinished,
                time=self.now,
                trace=self.format_trace(),
            )

    def _run_loop(self, limits: KernelLimits) -> None:
        # The scheduler's innermost loop, and the one place a process is
        # activated.  Limits, collaborators and the activation sequence
        # are all hoisted into locals: with no injector attached, a
        # process resume costs one trace append and one generator
        # ``send`` — no method dispatch.
        max_steps = limits.max_steps
        wall_clock = limits.wall_clock
        max_delta = limits.max_delta
        started = _time.monotonic() if wall_clock is not None else 0.0
        metrics = self.metrics
        injector = self.injector
        observer = self.observer
        ready = self._ready
        trace_append = self._trace.append
        suspend = self._suspend
        pending = self._pending
        signals = self._signals
        sensitivity = self._sensitivity
        cond_waiters = self._cond_waiters
        seq = self._seq
        steps = self.steps
        delta_streak = self._delta_streak
        # all signals are registered before the loop starts, so the bus
        # strobe subset can be resolved once instead of per delta cycle
        strobes: Container[str] = (
            {name for name in signals if metrics.is_bus_strobe(name)}
            if metrics is not None
            else ()
        )
        # metrics accumulate in plain locals and flush once in the
        # ``finally`` — attribute increments per scheduler event would
        # roughly double the cost of having metrics attached
        m_activations = 0
        m_delta_cycles = 0
        m_signal_updates = 0
        m_signal_changes = 0
        m_wakeups = 0
        m_bus = 0
        try:
            while True:
                while ready:
                    process = ready.pop()
                    if process.finished:
                        continue  # killed while queued as ready
                    steps += 1
                    if max_steps is not None and steps > max_steps:
                        raise SimulationLimitExceeded(
                            f"simulation exceeded max_steps={max_steps} "
                            f"at t={self.now}",
                            limit="max_steps",
                            trace=self.format_trace(),
                        )
                    if (
                        wall_clock is not None
                        and steps % 1024 == 0
                        and _time.monotonic() - started > wall_clock
                    ):
                        raise SimulationLimitExceeded(
                            f"simulation exceeded wall_clock={wall_clock}s "
                            f"after {steps} steps at t={self.now}",
                            limit="wall_clock",
                            trace=self.format_trace(),
                        )
                    if injector is not None:
                        action, arg = injector.on_activation(
                            self.now, process.name
                        )
                        if action == "kill":
                            self._fault(f"killed process {process.name}")
                            self.kill(process, reason="fault injection")
                            continue
                        if action == "stall":
                            self._fault(
                                f"stalled process {process.name} for {arg}"
                            )
                            heapq.heappush(
                                self._timed, (self.now + arg, next(seq), process)
                            )
                            continue
                    m_activations += 1
                    trace_append(("run", process.name, self.now))
                    try:
                        request = process._step()
                    except StopIteration:
                        process.finished = True
                        self._notify_joiners(process)
                        continue
                    except SimulationError:
                        raise
                    except Exception as exc:  # surface interpreter bugs
                        process.failed = exc
                        raise SimulationError(
                            f"process {process.name!r} failed "
                            f"at t={self.now}: {exc}"
                        ) from exc
                    if type(request) is WaitCondition:
                        # level-sensitive: continue if already true
                        if request.predicate():
                            ready.append(process)
                            continue
                        process._waiting_on = request
                        process._wait_seq = next(seq)
                        cond_waiters[process] = request
                        buckets = request._index_sets
                        if (
                            buckets is None
                            or request._index_kernel is not self
                        ):
                            resolved = []
                            for name in request.sensitivity:
                                waiters = sensitivity.get(name)
                                if waiters is None:
                                    waiters = sensitivity[name] = set()
                                resolved.append(waiters)
                            buckets = request._index_sets = tuple(resolved)
                            request._index_kernel = self
                        for waiters in buckets:
                            waiters.add(process)
                    else:
                        suspend(process, request)

                # -- delta cycle (the historical _apply_delta, inlined).
                # Apply pending signal updates; only processes indexed
                # under a signal that actually *changed value* have
                # their predicate re-checked (a write of the current
                # value wakes nobody); candidates are examined in
                # suspension order so scheduling matches the historical
                # full-scan kernel.
                changed: Optional[Iterable[str]] = None
                candidates: Iterable[Process] = ()
                if pending:
                    m_signal_updates += len(pending)
                    if len(pending) == 1:
                        # the overwhelmingly common shape: one update
                        name, value = pending.popitem()
                        if signals[name] != value:
                            signals[name] = value
                            changed = (name,)
                            candidates = sensitivity.get(name, ())
                            m_signal_changes += 1
                            # a bus transaction is a strobe's rising
                            # edge (no strobes without metrics)
                            if value and name in strobes:
                                m_bus += 1
                    else:
                        changed_set: Set[str] = set()
                        for name, value in pending.items():
                            if signals[name] != value:
                                signals[name] = value
                                changed_set.add(name)
                                if value and name in strobes:
                                    m_bus += 1
                        pending.clear()
                        m_signal_changes += len(changed_set)
                        if changed_set:
                            changed = changed_set
                            candidate_set: Set[Process] = set()
                            for name in changed_set:
                                waiters = sensitivity.get(name)
                                if waiters:
                                    candidate_set.update(waiters)
                            candidates = candidate_set
                if changed is not None:
                    trace_append(("delta", changed, self.now))
                    if observer is not None:
                        for name in changed:
                            observer.on_change(self.now, name, signals[name])
                    if not candidates:
                        woken: Sequence[Process] = ()
                    elif len(candidates) == 1:
                        # ordering is moot for a single waiter
                        (process,) = candidates
                        woken = (
                            (process,)
                            if cond_waiters[process].predicate()
                            else ()
                        )
                    else:
                        woken = [
                            process
                            for process in sorted(
                                candidates, key=_wait_seq_of
                            )
                            if cond_waiters[process].predicate()
                        ]
                    for process in woken:
                        condition = cond_waiters.pop(process)
                        buckets = condition._index_sets
                        if condition._index_kernel is self:
                            # inlined _unindex (the bucket cache is set)
                            for waiters in buckets:
                                waiters.discard(process)
                        else:
                            self._unindex(process, condition)
                        process._waiting_on = None
                        ready.append(process)
                    if metrics is not None:
                        m_delta_cycles += 1
                        m_wakeups += len(woken)
                    delta_streak += 1
                    if max_delta is not None and delta_streak > max_delta:
                        raise SimulationLimitExceeded(
                            f"delta-cycle storm: more than "
                            f"max_delta={max_delta} delta cycles without "
                            f"time advancing at t={self.now}",
                            limit="max_delta",
                            trace=self.format_trace(),
                        )
                    continue
                if self._advance_time():
                    if metrics is not None:
                        metrics.note_streak(delta_streak)
                    delta_streak = 0
                    continue
                break  # quiescent
        finally:
            self.steps = steps
            self._delta_streak = delta_streak
            if metrics is not None:
                metrics.activations += m_activations
                metrics.delta_cycles += m_delta_cycles
                metrics.signal_updates += m_signal_updates
                metrics.signal_changes += m_signal_changes
                metrics.wakeups += m_wakeups
                metrics.bus_transactions += m_bus

    def _suspend(self, process: Process, request) -> None:
        """Park ``process`` on a request other than a
        :class:`WaitCondition` (the loop parks those itself)."""
        if isinstance(request, WaitDelay):
            process._waiting_on = request
            heapq.heappush(
                self._timed, (self.now + request.delay, next(self._seq), process)
            )
        elif isinstance(request, Join):
            if all(p.finished for p in request.processes):
                self._ready.append(process)
                return
            process._waiting_on = request
            self._join_waiters[process] = request
        else:
            raise SimulationError(
                f"process {process.name!r} yielded unknown request {request!r}"
            )

    def _notify_joiners(self, finished: Process) -> None:
        woken = [
            waiter
            for waiter, join in self._join_waiters.items()
            if finished in join.processes
            and all(p.finished for p in join.processes)
        ]
        for waiter in woken:
            del self._join_waiters[waiter]
            waiter._waiting_on = None
            self._ready.append(waiter)

    def _unindex(self, process: Process, condition: WaitCondition) -> None:
        """Drop one waiter's sensitivity-index entries.

        Empty buckets are kept: conditions cache their resolved bucket
        sets (``WaitCondition._index_sets``), so deleting a bucket would
        orphan those cached references.  The index is bounded by the
        number of distinct signal names, so the empties cost nothing.
        """
        buckets = condition._index_sets
        if buckets is not None and condition._index_kernel is self:
            for waiters in buckets:
                waiters.discard(process)
            return
        index = self._sensitivity
        for name in condition.sensitivity:
            waiters = index.get(name)
            if waiters is not None:
                waiters.discard(process)

    def _advance_time(self) -> bool:
        """Jump to the earliest entry of the timed queue and release
        every entry due then, in ``(time, seq)`` order: a delayed signal
        update becomes pending, a process not killed meanwhile becomes
        ready.  Returns False when the queue is empty."""
        timed = self._timed
        if not timed:
            return False
        self.now = max(self.now, timed[0][0])
        self._record("advance", self.now)
        if self.metrics is not None:
            self.metrics.timesteps += 1
        while timed and timed[0][0] <= self.now:
            _, _, entry = heapq.heappop(timed)
            if type(entry) is tuple:
                name, value = entry
                self._pending[name] = value
            elif not entry.finished:
                entry._waiting_on = None
                self._ready.append(entry)
        return True
