"""IR interpreter: executes a :class:`Specification` on the DES kernel.

One :class:`Simulator` runs both shapes of specification:

* the *original* functional model — typically one sequential process,
  no signals, so the run is a plain depth-first execution; and
* a *refined* implementation model — a concurrent composition of
  component behaviors, memory slaves, arbiters and bus interfaces
  communicating through signals, where the kernel's delta cycles
  provide the VHDL signal semantics the protocols assume.

Behavior semantics (paper §2):

* a **leaf** executes its statement body;
* a **sequential composite** starts at its initial child; when the
  active child completes, the first transition (declaration order)
  leaving it whose condition holds is taken — to another child, or to
  completion when the arc's target is ``complete``; with no matching
  arc the composite completes;
* a **concurrent composite** spawns every child as a kernel process and
  completes when all non-daemon children complete (daemon children are
  refinement-inserted endless servers).

An optional ``cost_fn(behavior_name, stmt) -> seconds`` charges
execution time per statement (the estimation timing model); an optional
:class:`Probe` receives every variable access and statement execution
for profiling.

Execution strategies
--------------------

The interpreter has two paths over the same IR:

* the **compiled fast path** (default, ``compile_cache=True``): each
  statement body, transition condition and wait predicate is generated
  *once* as one Python function (:mod:`repro.sim.codegen`), with
  control flow as Python control flow and every expression and store
  inline.  A body's scope is static, so every name is bound when the
  code is generated: a variable to its frame (the slot is hoisted when
  the function starts), a signal to the signal store.  A ``wait
  until`` that reads only signals is one :class:`WaitCondition` for the
  simulator's life, ``wait for N`` one :class:`WaitDelay`; the coerced
  value of a constant signal assignment or call argument is computed
  once (a constant that does not fit raises when the statement
  executes, as on the walker).  Functions are cached for the life of
  the simulator; their code objects are shared across simulators and
  structurally identical bodies.
* the **reference tree walker** (``compile_cache=False``): the
  historical re-dispatching interpreter, kept as the semantic oracle —
  the equivalence suite runs both paths and compares traces.  It
  resolves every name on every access.

When a ``cost_fn`` or ``probe`` is attached, the generated bodies
charge time and fire the probe before every statement, and the probe's
read/write hooks on every variable access, in the walker's order.  On
both paths an access is reported under the behavior whose activation
made it — a generated function is passed its activation's behavior, and
the walker binds an env's hooks to the behavior that entered it — even
when a ``wait until`` is re-evaluated while another process runs.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import SimulationError
from repro.sim.codegen import DEFAULT_TIME_UNIT, BodyCompiler, Scope
from repro.sim.eval import Env, Frame, evaluate, truthy
from repro.sim.kernel import (
    Join,
    Kernel,
    KernelLimits,
    Process,
    WaitCondition,
    WaitDelay,
)
from repro.spec.behavior import Behavior, CompositeBehavior, LeafBehavior
from repro.spec.expr import Expr, Index, VarRef, free_variables
from repro.spec.specification import Specification
from repro.spec.stmt import (
    Assign,
    Body,
    CallStmt,
    For,
    If,
    Null,
    SignalAssign,
    Stmt,
    Wait,
    While,
)
from repro.spec.subprogram import Direction
from repro.spec.variable import Role, StorageClass

__all__ = [
    "DEFAULT_TIME_UNIT",
    "Probe",
    "TraceEvent",
    "SimulationResult",
    "Simulator",
]

class Probe:
    """Observer interface for profiling; all callbacks optional."""

    def on_statement(self, behavior: str, stmt: Stmt, cost: float) -> None:
        """A statement of ``behavior`` executed, costing ``cost`` seconds."""

    def on_read(self, behavior: str, variable: str) -> None:
        """``behavior`` read ``variable`` (resolved frame variable)."""

    def on_write(self, behavior: str, variable: str) -> None:
        """``behavior`` wrote ``variable``."""

    def on_behavior_start(self, behavior: str, time: float) -> None:
        """``behavior`` became active."""

    def on_behavior_end(self, behavior: str, time: float) -> None:
        """``behavior`` completed."""


class TraceEvent:
    """One observable write: (step index, variable, value)."""

    __slots__ = ("step", "variable", "value")

    def __init__(self, step: int, variable: str, value):
        self.step = step
        self.variable = variable
        self.value = value

    def __repr__(self) -> str:
        return f"TraceEvent({self.step}, {self.variable}={self.value!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TraceEvent)
            and self.variable == other.variable
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.variable, self.value))


class SimulationResult:
    """Outcome of one run: final state, output trace, completion status."""

    def __init__(
        self,
        spec: Specification,
        kernel: Kernel,
        frames: Dict[str, Frame],
        trace: List[TraceEvent],
        completed: bool,
    ):
        self.spec = spec
        self.kernel = kernel
        self._frames = frames
        self.trace = trace
        self.completed = completed

    @property
    def time(self) -> float:
        """Final simulation time (seconds of modelled time)."""
        return self.kernel.now

    @property
    def steps(self) -> int:
        return self.kernel.steps

    def value_of(self, name: str, behavior: Optional[str] = None):
        """Final value of a variable.

        With ``behavior`` given, looks at that behavior's local frame
        first; otherwise (or when absent there) falls back to the
        global frame, then to signals.
        """
        if behavior is not None:
            frame = self._frames.get(behavior)
            if frame is not None and frame.has(name):
                return frame.read(name)
        global_frame = self._frames.get("")
        if global_frame is not None and global_frame.has(name):
            return global_frame.read(name)
        if self.kernel.has_signal(name):
            return self.kernel.read_signal(name)
        raise SimulationError(f"no final value recorded for {name!r}")

    def output_values(self) -> Dict[str, object]:
        """Final values of all role-OUTPUT globals."""
        return {v.name: self.value_of(v.name) for v in self.spec.outputs()}

    def output_trace(self, variable: Optional[str] = None) -> List[TraceEvent]:
        """The observable write sequence (optionally for one variable)."""
        if variable is None:
            return list(self.trace)
        return [e for e in self.trace if e.variable == variable]

    def frame_snapshot(self, behavior: str) -> Dict[str, object]:
        """All locals of one behavior's frame."""
        frame = self._frames.get(behavior)
        if frame is None:
            raise SimulationError(f"behavior {behavior!r} has no frame")
        return frame.snapshot()

    def blocked(self) -> List[str]:
        """Names of processes still suspended at quiescence."""
        return [p.name for p in self.kernel.blocked_processes() if not p.finished]


class _RunState:
    """What each :meth:`Simulator.run` rebuilds, as the generated
    functions see it.

    They bind this object instead of the simulator, so a simulator is
    not part of a reference cycle through its own generated code, and
    :meth:`Simulator.run` clears the run's references when the run ends.
    ``probe`` is the walker's probe: :meth:`enter` binds the read/write
    hooks of each env it makes to the behavior entered (generated code
    calls the probe itself).
    """

    __slots__ = (
        "kernel",
        "signals",
        "global_frame",
        "frames",
        "trace",
        "trace_step",
        "probe",
    )

    def __init__(self, probe: Optional[Probe] = None):
        self.clear()
        self.trace: List[TraceEvent] = []
        self.trace_step = 0
        self.probe = probe

    def clear(self) -> None:
        self.kernel: Optional[Kernel] = None
        #: the kernel's signal store (generated functions read it)
        self.signals: Optional[Dict[str, object]] = None
        self.global_frame: Optional[Frame] = None
        #: behavior name -> its latest frame (the run's result frames)
        self.frames: Dict[str, Frame] = {}

    def enter(self, behavior: Behavior, env: Env) -> Env:
        """The env of one activation of ``behavior``: a fresh frame of
        its variables (signals excepted), registered as its latest."""
        frame = Frame(behavior.name)
        for decl in behavior.decls:
            if decl.kind is not StorageClass.SIGNAL:
                frame.declare(decl)
        self.frames[behavior.name] = frame
        probe = self.probe
        if probe is None:
            return env.child(frame)
        return Env(
            env.kernel,
            (frame,) + env.frames,
            on_read=partial(probe.on_read, behavior.name),
            on_write=partial(probe.on_write, behavior.name),
        )

    def record(self, name: str, value) -> None:
        """Record the write of ``value`` to output ``name`` in the
        run's trace."""
        self.trace_step += 1
        self.trace.append(TraceEvent(self.trace_step, name, value))


class Simulator:
    """Executes a specification.

    Parameters
    ----------
    spec:
        The (validated) specification to run.
    cost_fn:
        Optional ``(behavior_name, stmt) -> seconds``; when given, every
        statement charges modelled time.
    probe:
        Optional :class:`Probe` receiving profiling callbacks.
    compile_cache:
        Use the compiled fast path (each statement body generated once
        as one Python function, every name bound at generation).
        ``False`` selects the reference tree walker; results are
        identical — the flag exists for benchmarking and differential
        testing.
    """

    def __init__(
        self,
        spec: Specification,
        cost_fn: Optional[Callable[[str, Stmt], float]] = None,
        probe: Optional[Probe] = None,
        compile_cache: bool = True,
    ):
        self.spec = spec
        self.cost_fn = cost_fn
        self.probe = probe
        self.compile_cache = compile_cache
        self._kernel: Optional[Kernel] = None
        self._frames: Dict[str, Frame] = {}
        self._state = _RunState(None if compile_cache else probe)
        self._output_names = {v.name for v in spec.outputs()}
        #: signal name -> dtype, for every global and behavior signal
        self._signal_types: Dict[str, object] = {
            decl.name: decl.dtype
            for _, decl in spec.all_declared_variables()
            if decl.kind is StorageClass.SIGNAL
        }
        #: generated functions (see repro.sim.codegen)
        self._bodies = BodyCompiler(
            spec,
            self._state,
            self._signal_types,
            frozenset(self._output_names),
            cost_fn=cost_fn,
            probe=probe,
        )

    # -- public API -----------------------------------------------------------

    def run(
        self,
        inputs: Optional[Dict[str, object]] = None,
        limits: Optional[KernelLimits] = None,
        injector=None,
        require_completion: bool = False,
        metrics=None,
        observer=None,
    ) -> SimulationResult:
        """Execute the specification to quiescence.

        ``inputs`` overrides initial values of role-INPUT globals.
        The run *completes* when the root behavior's process finishes;
        daemon/server processes may remain blocked.

        ``limits`` bounds the run (see :class:`KernelLimits`);
        ``injector`` attaches a :class:`repro.sim.faults.FaultInjector`;
        ``metrics`` attaches a :class:`repro.sim.metrics.SimMetrics`
        counter bag to the run's kernel; ``observer`` attaches a
        signal-change observer such as :class:`repro.obs.vcd.VCDWriter`
        (waveform export); with ``require_completion=True`` a quiescent
        run whose root process never finished raises a structured
        :class:`repro.errors.DeadlockError` instead of returning an
        incomplete result.
        """
        kernel = Kernel(injector=injector, metrics=metrics, observer=observer)
        self._kernel = kernel
        self._frames = {}
        global_frame = Frame("")
        self._frames[""] = global_frame
        inputs = dict(inputs or {})
        for decl in self.spec.variables:
            if decl.kind is StorageClass.SIGNAL:
                kernel.register_signal(decl.name, decl.initial_value)
            else:
                global_frame.declare(decl)
                if decl.name in inputs:
                    if decl.role is not Role.INPUT:
                        raise SimulationError(
                            f"{decl.name!r} is not an input variable"
                        )
                    global_frame.write(decl.name, inputs.pop(decl.name))
        if inputs:
            raise SimulationError(f"unknown inputs: {sorted(inputs)}")

        # behavior-declared signals are registered once here: a behavior
        # re-entered through a transition re-initialises its *variables*
        # but signals persist (they synchronise across processes)
        for behavior in self.spec.behaviors():
            for decl in behavior.decls:
                if decl.kind is StorageClass.SIGNAL:
                    kernel.register_signal(decl.name, decl.initial_value)

        state = self._state
        state.kernel = kernel
        state.signals = kernel._signals
        state.global_frame = global_frame
        state.frames = self._frames
        state.trace = []
        state.trace_step = 0
        root_env = Env(kernel, (global_frame,))
        root = kernel.spawn(
            self.spec.top.name,
            self._run_behavior(self.spec.top, root_env, self._bodies.scope),
        )
        try:
            kernel.run(
                limits=limits,
                required=(root,) if require_completion else (),
            )
        finally:
            # Nothing resumes a process after the run: close the
            # generators still suspended (daemon servers, deadlocked
            # processes) so their frames — envs, this simulator — are
            # released now, and drop the run from the simulator, so
            # that a finished simulator and its kernel are freed by
            # reference counting rather than the cyclic collector.
            # blocked()/blocked_report() read only Process fields.
            # A request built per execution is never reused: drop its
            # predicate, which may hold its env — and the kernel through
            # it — in a cycle with the process still blocked on it (a
            # walker wait).  Static requests live as long as the
            # simulator.
            static = self._bodies.static_requests
            for process in kernel._processes:
                process.generator.close()
                request = process._waiting_on
                if type(request) is WaitCondition and request not in static:
                    request.predicate = None
            self._kernel = None
            state.clear()
        return SimulationResult(
            self.spec, kernel, self._frames, state.trace, root.finished
        )

    # -- behaviors ---------------------------------------------------------------

    def _run_behavior(self, behavior: Behavior, env: Env, scope: Scope) -> Iterator:
        """The process steps of one activation of ``behavior`` under
        ``env``, whose frames ``scope`` describes.

        Each step sequence enters the behavior (creates and registers its
        frame) when it first runs, not when it is built: a process killed
        before its first activation leaves no frame.  On the compiled path
        without a probe (nothing to report when the activation starts and
        ends), a composite's sequencer and a leaf's suspending function
        are the activation itself, so a resumed process passes no wrapper
        generator per behavior level."""
        if not self.compile_cache or self.probe is not None:
            return self._activation(behavior, env, scope)
        if isinstance(behavior, CompositeBehavior):
            if behavior.is_sequential:
                return self._run_sequential(behavior, env, scope)
            return self._run_concurrent(behavior, env, scope)
        if isinstance(behavior, LeafBehavior):
            suspends, leaf = self._bodies.leaf(behavior, scope)
            if suspends:
                return leaf(behavior.name, env)
        return self._activation(behavior, env, scope)

    def _activation(self, behavior: Behavior, env: Env, scope: Scope) -> Iterator:
        kernel = self._kernel
        if self.probe is not None:
            self.probe.on_behavior_start(behavior.name, kernel.now)
        if isinstance(behavior, LeafBehavior):
            if self.compile_cache:
                suspends, leaf = self._bodies.leaf(behavior, scope)
                if suspends:
                    yield from leaf(behavior.name, env)
                else:
                    leaf(behavior.name, env)
            else:
                yield from self._exec_body(
                    behavior.stmt_body,
                    behavior.name,
                    self._state.enter(behavior, env),
                )
        elif isinstance(behavior, CompositeBehavior):
            if behavior.is_sequential:
                yield from self._run_sequential(behavior, env, scope)
            else:
                yield from self._run_concurrent(behavior, env, scope)
        else:
            raise SimulationError(f"unknown behavior type {behavior!r}")
        if self.probe is not None:
            self.probe.on_behavior_end(behavior.name, kernel.now)

    def _run_sequential(
        self, behavior: CompositeBehavior, env: Env, scope: Scope
    ) -> Iterator:
        env = self._state.enter(behavior, env)
        scope = scope.enter(behavior)
        current = behavior.initial
        while True:
            child = behavior.child(current)
            yield from self._run_behavior(child, env, scope)
            arcs = behavior.transitions_from(current)
            if not arcs:
                return
            chosen = None
            # condition reads belong to the composite whose sequencer
            # evaluates them (matches the access graph's attribution)
            for arc in arcs:
                if arc.condition is None or self._holds(
                    arc.condition, behavior.name, env, scope
                ):
                    chosen = arc
                    break
            if chosen is None or chosen.target is None:
                return
            current = chosen.target

    def _run_concurrent(
        self, behavior: CompositeBehavior, env: Env, scope: Scope
    ) -> Iterator:
        env = self._state.enter(behavior, env)
        scope = scope.enter(behavior)
        kernel = self._kernel
        waited: List[Process] = []
        for child in behavior.subs:
            process = kernel.spawn(child.name, self._run_behavior(child, env, scope))
            if not child.daemon:
                waited.append(process)
        if waited:
            yield Join(waited)

    # -- statements -----------------------------------------------------------------

    def _holds(self, cond: Expr, behavior: str, env: Env, scope: Scope) -> bool:
        """Whether a transition condition of composite ``behavior``
        holds: its generated predicate (or the reference walker)."""
        if self.compile_cache:
            return self._bodies.condition(cond, scope)(behavior, env.frames)
        return truthy(evaluate(cond, env))

    def _exec_body(self, stmts: Body, behavior: str, env: Env) -> Iterator:
        for stmt in stmts:
            yield from self._exec_stmt(stmt, behavior, env)

    def _charge(self, stmt: Stmt, behavior: str) -> Iterator:
        cost = 0.0
        if self.cost_fn is not None:
            cost = self.cost_fn(behavior, stmt)
        if self.probe is not None:
            self.probe.on_statement(behavior, stmt, cost)
        if cost > 0:
            yield WaitDelay(cost)

    def _exec_stmt(self, stmt: Stmt, behavior: str, env: Env) -> Iterator:
        yield from self._charge(stmt, behavior)

        if isinstance(stmt, Assign):
            self._do_assign(stmt.target, evaluate(stmt.value, env), behavior, env)
        elif isinstance(stmt, SignalAssign):
            self._do_signal_assign(stmt.target, evaluate(stmt.value, env), env)
        elif isinstance(stmt, If):
            if truthy(evaluate(stmt.cond, env)):
                yield from self._exec_body(stmt.then_body, behavior, env)
            else:
                for cond, arm in stmt.elifs:
                    if truthy(evaluate(cond, env)):
                        yield from self._exec_body(arm, behavior, env)
                        return
                yield from self._exec_body(stmt.else_body, behavior, env)
        elif isinstance(stmt, While):
            while truthy(evaluate(stmt.cond, env)):
                yield from self._exec_body(stmt.loop_body, behavior, env)
        elif isinstance(stmt, For):
            start = evaluate(stmt.start, env)
            stop = evaluate(stmt.stop, env)
            loop_frame = Frame(f"{behavior}.{stmt.variable}")
            loop_frame.declare_raw(stmt.variable, start)
            loop_env = env.child(loop_frame)
            for value in range(start, stop + 1):
                loop_frame.declare_raw(stmt.variable, value)
                yield from self._exec_body(stmt.loop_body, behavior, loop_env)
        elif isinstance(stmt, Wait):
            yield self._make_wait(stmt, env)
        elif isinstance(stmt, CallStmt):
            yield from self._exec_call(stmt, behavior, env)
        elif isinstance(stmt, Null):
            pass
        else:
            raise SimulationError(f"unknown statement {stmt!r}")

    def _do_assign(self, target: Expr, value, behavior: str, env: Env) -> None:
        if isinstance(target, VarRef):
            env.write(target.name, value)
            self._observe_write(target.name, env)
        elif isinstance(target, Index) and isinstance(target.base, VarRef):
            index = evaluate(target.index_expr, env)
            env.write_array_element(target.base.name, index, value)
            self._observe_write(target.base.name, env)
        else:
            raise SimulationError(f"invalid assignment target {target}")

    def _do_signal_assign(self, target: Expr, value, env: Env) -> None:
        if not isinstance(target, VarRef):
            raise SimulationError(
                f"signal assignment target must be a signal name, got {target}"
            )
        dtype = self._signal_types.get(target.name)
        env.write_signal(target.name, value, dtype)

    def _observe_write(self, name: str, env: Env) -> None:
        if name in self._output_names:
            self._state.record(name, env.peek(name))

    def _make_wait(self, stmt: Wait, env: Env):
        kernel = self._kernel
        if stmt.delay is not None:
            return WaitDelay(stmt.delay * DEFAULT_TIME_UNIT)
        if stmt.until is not None:
            cond = stmt.until
            sensitivity = {
                name for name in free_variables(cond) if env.is_signal(name)
            }
            return WaitCondition(
                lambda: truthy(evaluate(cond, env)),
                sensitivity,
                label=f"until {cond}",
            )
        # wait on s1, s2: edge-sensitive — wake on any change
        snapshot = {name: kernel.read_signal(name) for name in stmt.on}
        return WaitCondition(
            lambda: any(
                kernel.read_signal(name) != old for name, old in snapshot.items()
            ),
            set(stmt.on),
            label="on " + ", ".join(stmt.on),
        )

    # -- subprogram calls ----------------------------------------------------------------

    def _exec_call(self, stmt: CallStmt, behavior: str, env: Env) -> Iterator:
        callee = self.spec.subprograms.get(stmt.callee)
        if callee is None:
            raise SimulationError(f"call to unknown subprogram {stmt.callee!r}")
        if len(stmt.args) != callee.arity:
            raise SimulationError(
                f"{stmt.callee!r} expects {callee.arity} args, got {len(stmt.args)}"
            )
        frame = Frame(f"call:{callee.name}")
        # copy-in
        for param, arg in zip(callee.params, stmt.args):
            if param.direction is Direction.OUT:
                frame.slots[param.name] = [param.dtype, param.dtype.default_value()]
            else:
                value = evaluate(arg, env)
                frame.slots[param.name] = [param.dtype, param.dtype.coerce(value)]
        for decl in callee.decls:
            if decl.kind is StorageClass.SIGNAL:
                raise SimulationError(
                    f"subprogram {callee.name!r} declares a signal; unsupported"
                )
            frame.declare(decl)
        # subprogram bodies see globals + their own frame, not the caller's
        # locals (mirrors the validator's scope rule)
        global_frame = self._frames[""]
        call_env = Env(
            self._kernel,
            (frame, global_frame),
            on_read=env.on_read,
            on_write=env.on_write,
        )
        yield from self._exec_body(callee.stmt_body, behavior, call_env)
        # copy-out
        for param, arg in zip(callee.params, stmt.args):
            if param.direction in (Direction.OUT, Direction.INOUT):
                self._do_assign(arg, frame.read(param.name), behavior, env)

