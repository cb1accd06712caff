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

* the **compiled fast path** (default, ``compile_cache=True``): every
  statement and expression node is compiled *once* into a Python
  closure, cached by node identity for the life of the simulator.
  Statement subtrees that cannot suspend (no ``wait``, no subprogram
  call) and carry no instrumentation collapse into plain function
  calls — no generator frame per statement.
* the **reference tree walker** (``compile_cache=False``): the
  historical re-dispatching interpreter, kept as the semantic oracle —
  the equivalence suite runs both paths and compares traces.  It
  resolves every name on every access and is unchanged by the
  compile-time resolution below.

What the compiled path resolves at compile time, once per simulator:

* **pure signals** — names declared only as signals and shared by no
  variable, parameter, subprogram local or loop variable anywhere in
  the spec; they resolve to the kernel's signal store in every scope,
  so reads of them are direct store reads;
* **static waits** — a ``wait until`` over pure signals only is one
  :class:`WaitCondition` per statement (fixed sensitivity, predicate
  over the current run's signal store), and ``wait for N`` one
  :class:`WaitDelay`; bodies yield these requests inline;
* **signal dtypes**, and the coerced value of a constant signal
  assignment (a constant that does not fit raises when the statement
  executes, as on the walker).

What stays per env: a ``wait until`` naming a shadowed name (its
sensitivity depends on the scope), ``wait on`` snapshots, and the
binding frame of each variable (memoised per :class:`Env`, shared by
reads, writes and subprogram copy-out).

When a ``cost_fn`` or ``probe`` is attached, compiled statements are
wrapped so every execution still charges time and fires the probe; the
closure cache then saves dispatch, not instrumentation.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import SimulationError, TypeMismatchError
from repro.sim.eval import (
    Env,
    ExprCompiler,
    Frame,
    SignalExprCompiler,
    _static_bool,
    evaluate,
    truthy,
)
from repro.sim.kernel import (
    Join,
    Kernel,
    KernelLimits,
    Process,
    WaitCondition,
    WaitDelay,
)
from repro.spec.behavior import Behavior, CompositeBehavior, LeafBehavior
from repro.spec.expr import Const, Expr, Index, VarRef, free_variables
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
from repro.spec.types import BitVectorType, DataType, IntType
from repro.spec.variable import Role, StorageClass
from repro.spec.visitor import walk_statements

__all__ = [
    "DEFAULT_TIME_UNIT",
    "Probe",
    "TraceEvent",
    "SimulationResult",
    "Simulator",
]

#: Seconds represented by one ``wait for 1`` tick — the scale fault
#: scenarios expressed in protocol ticks must be multiplied by
#: (:meth:`repro.sim.faults.FaultScenario.scaled`).
DEFAULT_TIME_UNIT = 1e-9

#: Kinds of compiled statement (see the compiled fast path below).
_PLAIN, _GEN, _REQUEST = range(3)


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
    """What each :meth:`Simulator.run` rebuilds, as the compiled
    closures see it.

    Closures bind this object instead of the simulator, so a simulator
    is not part of a reference cycle through its own closure cache, and
    :meth:`Simulator.run` clears the run's references when the run ends.
    """

    __slots__ = (
        "kernel",
        "signals",
        "global_frame",
        "trace",
        "trace_step",
        "behavior",
    )

    def __init__(self):
        self.clear()
        self.trace: List[TraceEvent] = []
        self.trace_step = 0
        self.behavior = ""

    def clear(self) -> None:
        self.kernel: Optional[Kernel] = None
        #: the kernel's signal store (static wait predicates read it)
        self.signals: Optional[Dict[str, object]] = None
        self.global_frame: Optional[Frame] = None

    def observe_write(self, name: str, env: Env) -> None:
        """Record a write of output ``name`` in the run's trace."""
        self.trace_step += 1
        self.trace.append(TraceEvent(self.trace_step, name, env.peek(name)))


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
    time_unit:
        Seconds represented by one ``wait for 1`` delay (refined
        protocol strobes use small integer delays); default 1e-9.
    compile_cache:
        Use the compiled fast path (statements/expressions closed into
        Python closures once, keyed by node identity).  ``False``
        selects the reference tree walker; results are identical —
        the flag exists for benchmarking and differential testing.
    """

    def __init__(
        self,
        spec: Specification,
        cost_fn: Optional[Callable[[str, Stmt], float]] = None,
        probe: Optional[Probe] = None,
        time_unit: float = DEFAULT_TIME_UNIT,
        compile_cache: bool = True,
    ):
        self.spec = spec
        self.cost_fn = cost_fn
        self.probe = probe
        self.time_unit = time_unit
        self.compile_cache = compile_cache
        self._kernel: Optional[Kernel] = None
        self._frames: Dict[str, Frame] = {}
        self._state = _RunState()
        self._output_names = {v.name for v in spec.outputs()}
        #: signal name -> dtype, for every global and behavior signal
        self._signal_types: Dict[str, object] = {
            decl.name: decl.dtype
            for _, decl in spec.all_declared_variables()
            if decl.kind is StorageClass.SIGNAL
        }
        #: signals that resolve to the kernel's store in every scope
        self._pure_signals = _pure_signal_names(spec)
        self._current_behavior = ""
        #: True when every statement must charge time / fire the probe
        self._instrumented = cost_fn is not None or probe is not None
        #: expression compiler (shared by both instrumentation modes)
        self._expr = ExprCompiler(self._pure_signals)
        #: compiler of static wait predicates (over the signal store)
        self._signal_expr = SignalExprCompiler()
        #: id(stmt) -> (stmt, kind, fn) — compiled statements
        self._stmt_cache: Dict[int, Tuple[Stmt, int, object]] = {}
        #: id(body) -> (body, kind, fn) — compiled statement sequences
        self._body_cache: Dict[int, Tuple[tuple, int, object]] = {}
        #: callee name -> [(kind, fn)] of its compiled body; empty while
        #: the body is being compiled (a recursive call)
        self._callee_bodies: Dict[str, list] = {}

    # -- public API -----------------------------------------------------------

    def run(
        self,
        inputs: Optional[Dict[str, object]] = None,
        max_steps: Optional[int] = None,
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

        ``limits`` bounds the run (see :class:`KernelLimits`;
        ``max_steps`` is a shorthand overriding ``limits.max_steps``);
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
        self._current_behavior = ""
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
        state.trace = []
        state.trace_step = 0
        state.behavior = ""
        on_read, on_write = self._probe_hooks()
        root_env = Env(kernel, (global_frame,), on_read=on_read, on_write=on_write)
        root = kernel.spawn(
            self.spec.top.name,
            self._run_behavior(self.spec.top, root_env),
        )
        try:
            kernel.run(
                max_steps=max_steps,
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
            for process in kernel._processes:
                process.generator.close()
            self._kernel = None
            state.clear()
        return SimulationResult(
            self.spec, kernel, self._frames, state.trace, root.finished
        )

    # -- profiling hooks ---------------------------------------------------------

    def _probe_hooks(self) -> Tuple[Optional[Callable], Optional[Callable]]:
        """The env read/write hooks: none without a probe; the compiled
        path names the behavior its instrumented statements record."""
        probe = self.probe
        if probe is None:
            return None, None
        if not self.compile_cache:
            return self._on_env_read, self._on_env_write
        state = self._state
        return (
            lambda name: probe.on_read(state.behavior, name),
            lambda name: probe.on_write(state.behavior, name),
        )

    def _on_env_read(self, name: str) -> None:
        self.probe.on_read(self._current_behavior, name)

    def _on_env_write(self, name: str) -> None:
        self.probe.on_write(self._current_behavior, name)

    # -- behaviors ---------------------------------------------------------------

    def _behavior_frame(self, behavior: Behavior) -> Frame:
        frame = Frame(behavior.name)
        for decl in behavior.decls:
            if decl.kind is not StorageClass.SIGNAL:
                frame.declare(decl)
        self._frames[behavior.name] = frame
        return frame

    def _run_behavior(self, behavior: Behavior, env: Env) -> Iterator:
        kernel = self._kernel
        frame = self._behavior_frame(behavior)
        inner = env.child(frame)
        if self.probe is not None:
            self.probe.on_behavior_start(behavior.name, kernel.now)
        if isinstance(behavior, LeafBehavior):
            if self.compile_cache:
                kind, fn = self._compiled_body(behavior.stmt_body)
                if kind == _PLAIN:
                    fn(behavior.name, inner)
                elif kind == _REQUEST:
                    yield fn
                else:
                    yield from fn(behavior.name, inner)
            else:
                yield from self._exec_body(
                    behavior.stmt_body, behavior.name, inner
                )
        elif isinstance(behavior, CompositeBehavior):
            if behavior.is_sequential:
                yield from self._run_sequential(behavior, inner)
            else:
                yield from self._run_concurrent(behavior, inner)
        else:
            raise SimulationError(f"unknown behavior type {behavior!r}")
        if self.probe is not None:
            self.probe.on_behavior_end(behavior.name, kernel.now)

    def _run_sequential(self, behavior: CompositeBehavior, env: Env) -> Iterator:
        current = behavior.initial
        while True:
            child = behavior.child(current)
            yield from self._run_behavior(child, env)
            arcs = behavior.transitions_from(current)
            if not arcs:
                return
            chosen = None
            # condition reads belong to the composite whose sequencer
            # evaluates them (matches the access graph's attribution)
            self._current_behavior = self._state.behavior = behavior.name
            for arc in arcs:
                if arc.condition is None or truthy(
                    self._eval(arc.condition, env)
                ):
                    chosen = arc
                    break
            if chosen is None or chosen.target is None:
                return
            current = chosen.target

    def _run_concurrent(self, behavior: CompositeBehavior, env: Env) -> Iterator:
        kernel = self._kernel
        waited: List[Process] = []
        for child in behavior.subs:
            process = kernel.spawn(child.name, self._run_behavior(child, env))
            if not child.daemon:
                waited.append(process)
        if waited:
            yield Join(waited)

    # -- statements -----------------------------------------------------------------

    def _eval(self, expr: Expr, env: Env):
        """Evaluate through the closure cache (or the reference walker)."""
        if self.compile_cache:
            return self._expr.compile(expr)(env)
        return evaluate(expr, env)

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
        self._current_behavior = behavior
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
            self._state.observe_write(name, env)

    def _make_wait(self, stmt: Wait, env: Env):
        kernel = self._kernel
        if stmt.delay is not None:
            return WaitDelay(stmt.delay * self.time_unit)
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

    # -- the compiled fast path --------------------------------------------------
    #
    # Each statement compiles once into a ``(kind, fn)`` pair: a *plain*
    # closure ``fn(behavior, env) -> None`` (the subtree cannot
    # suspend: no Wait, no CallStmt, no instrumentation), a *generator*
    # closure ``fn(behavior, env) -> Iterator`` yielding kernel
    # requests, or a constant *request* (a static wait) that the
    # enclosing body yields itself.  Plain spans and requests execute
    # without a generator frame per statement — the bulk of the
    # interpreter's historical dispatch cost.  Caches are keyed by node
    # identity and keep a strong reference to the node, so ids cannot
    # be recycled while the simulator lives.  Closures bind the
    # simulator's :class:`_RunState`, never the simulator itself.

    def _compiled_stmt(self, stmt: Stmt) -> Tuple[int, object]:
        key = id(stmt)
        hit = self._stmt_cache.get(key)
        if hit is not None and hit[0] is stmt:
            return hit[1], hit[2]
        kind, fn = self._build_stmt(stmt)
        if self._instrumented:
            kind, fn = _GEN, self._instrument(stmt, kind, fn)
        self._stmt_cache[key] = (stmt, kind, fn)
        return kind, fn

    def _instrument(self, stmt: Stmt, kind: int, fn) -> Callable:
        """Wrap a compiled statement so each execution charges time and
        fires the probe (mirrors the reference path's ``_charge``)."""
        cost_fn = self.cost_fn
        probe = self.probe
        state = self._state

        def run(behavior: str, env: Env) -> Iterator:
            state.behavior = behavior
            cost = 0.0
            if cost_fn is not None:
                cost = cost_fn(behavior, stmt)
            if probe is not None:
                probe.on_statement(behavior, stmt, cost)
            if cost > 0:
                yield WaitDelay(cost)
            if kind == _PLAIN:
                fn(behavior, env)
            elif kind == _REQUEST:
                yield fn
            else:
                yield from fn(behavior, env)

        return run

    def _compiled_body(self, body: Body) -> Tuple[int, object]:
        key = id(body)
        hit = self._body_cache.get(key)
        if hit is not None and hit[0] is body:
            return hit[1], hit[2]
        steps = tuple(self._compiled_stmt(stmt) for stmt in body)
        if len(steps) == 1:
            # single-statement body: reuse its closure (or request)
            # directly — no wrapper frame per execution
            kind, fn = steps[0]
        elif all(kind == _PLAIN for kind, _ in steps):
            fns = tuple(fn for _, fn in steps)

            def run_plain(behavior: str, env: Env) -> None:
                for step in fns:
                    step(behavior, env)

            kind, fn = _PLAIN, run_plain
        else:

            def run_gen(behavior: str, env: Env) -> Iterator:
                for step_kind, step in steps:
                    if step_kind == _PLAIN:
                        step(behavior, env)
                    elif step_kind == _REQUEST:
                        yield step
                    else:
                        yield from step(behavior, env)

            kind, fn = _GEN, run_gen
        self._body_cache[key] = (body, kind, fn)
        return kind, fn

    @staticmethod
    def _raising(message: str) -> Callable:
        def fail(behavior: str, env: Env) -> None:
            raise SimulationError(message)

        return fail

    def _build_stmt(self, stmt: Stmt) -> Tuple[int, object]:
        if isinstance(stmt, Assign):
            return self._build_assign(stmt)
        if isinstance(stmt, SignalAssign):
            return self._build_signal_assign(stmt)
        if isinstance(stmt, If):
            return self._build_if(stmt)
        if isinstance(stmt, While):
            return self._build_while(stmt)
        if isinstance(stmt, For):
            return self._build_for(stmt)
        if isinstance(stmt, Wait):
            return self._build_wait(stmt)
        if isinstance(stmt, CallStmt):
            return self._build_call(stmt)
        if isinstance(stmt, Null):
            return _PLAIN, lambda behavior, env: None
        return _PLAIN, self._raising(f"unknown statement {stmt!r}")

    def _compile_store(self, target: Expr) -> Callable[[Env, object], None]:
        """``store(env, value)``: the reference path's ``_do_assign``,
        output-trace recording included."""
        store = self._expr.compile_store(target)
        if store is None:
            message = f"invalid assignment target {target}"

            def invalid(env: Env, value) -> None:
                raise SimulationError(message)

            return invalid
        name = target.name if isinstance(target, VarRef) else target.base.name
        if name not in self._output_names:
            return store
        observe = self._state.observe_write

        def store_observed(env: Env, value) -> None:
            store(env, value)
            observe(name, env)

        return store_observed

    def _build_assign(self, stmt: Assign) -> Tuple[int, Callable]:
        store = self._compile_store(stmt.target)
        value_fn = self._expr.compile(stmt.value)

        def run(behavior: str, env: Env) -> None:
            store(env, value_fn(env))

        return _PLAIN, run

    def _build_signal_assign(self, stmt: SignalAssign) -> Tuple[int, Callable]:
        target = stmt.target
        if not isinstance(target, VarRef):
            return _PLAIN, self._raising(
                f"signal assignment target must be a signal name, got {target}"
            )
        name = target.name
        dtype = self._signal_types.get(name)
        if isinstance(stmt.value, Const):
            value = stmt.value.value
            if dtype is not None:
                try:
                    value = dtype.coerce(value)
                except TypeMismatchError as exc:
                    # a constant that does not fit fails when the
                    # statement executes, exactly as on the reference path
                    error_type, args = type(exc), exc.args

                    def misfit(behavior: str, env: Env) -> None:
                        raise error_type(*args)

                    return _PLAIN, misfit

            def run_const(behavior: str, env: Env) -> None:
                env.kernel.write_signal(name, value)

            return _PLAIN, run_const
        value_fn = self._expr.compile(stmt.value)
        if dtype is None:

            def run_untyped(behavior: str, env: Env) -> None:
                env.kernel.write_signal(name, value_fn(env))

            return _PLAIN, run_untyped
        coerce = dtype.coerce
        low, high = _int_range(dtype)

        def run(behavior: str, env: Env) -> None:
            value = value_fn(env)
            if type(value) is not int or not low <= value <= high:
                value = coerce(value)
            env.kernel.write_signal(name, value)

        return _PLAIN, run

    def _condition(self, expr: Expr) -> Callable[[Env], bool]:
        """A compiled condition: ``truthy`` is skipped for structurally
        boolean expressions, where it is the identity."""
        fn = self._expr.compile(expr)
        if _static_bool(expr):
            return fn
        return lambda env: truthy(fn(env))

    def _build_if(self, stmt: If) -> Tuple[int, Callable]:
        cond_fn = self._condition(stmt.cond)
        then = self._compiled_body(stmt.then_body)
        elifs = tuple(
            (self._condition(cond), self._compiled_body(arm))
            for cond, arm in stmt.elifs
        )
        orelse = self._compiled_body(stmt.else_body)
        if then[0] == orelse[0] == _PLAIN and all(
            arm[0] == _PLAIN for _, arm in elifs
        ):
            then_fn = then[1]
            else_fn = orelse[1]
            arms = tuple((arm_cond, arm[1]) for arm_cond, arm in elifs)

            def run(behavior: str, env: Env) -> None:
                if cond_fn(env):
                    then_fn(behavior, env)
                    return
                for arm_cond, arm_fn in arms:
                    if arm_cond(env):
                        arm_fn(behavior, env)
                        return
                else_fn(behavior, env)

            return _PLAIN, run

        def run_gen(behavior: str, env: Env) -> Iterator:
            if cond_fn(env):
                kind, fn = then
            else:
                for arm_cond, arm in elifs:
                    if arm_cond(env):
                        kind, fn = arm
                        break
                else:
                    kind, fn = orelse
            if kind == _PLAIN:
                fn(behavior, env)
            elif kind == _REQUEST:
                yield fn
            else:
                yield from fn(behavior, env)

        return _GEN, run_gen

    def _build_while(self, stmt: While) -> Tuple[int, Callable]:
        cond_fn = self._condition(stmt.cond)
        kind, body_fn = self._compiled_body(stmt.loop_body)
        if isinstance(stmt.cond, Const) and isinstance(
            stmt.cond.value, (bool, int)
        ):
            # ``while 1`` server loops: drop the per-iteration test
            if not truthy(stmt.cond.value):
                return _PLAIN, lambda behavior, env: None
            # a plain infinite loop can never yield: surface the hang
            # as the reference path would (by running it), through the
            # generic closure below
            if kind != _PLAIN:
                body_gen = _as_generator(kind, body_fn)

                def run_forever(behavior: str, env: Env) -> Iterator:
                    while True:
                        yield from body_gen(behavior, env)

                return _GEN, run_forever
        if kind == _PLAIN:

            def run(behavior: str, env: Env) -> None:
                while cond_fn(env):
                    body_fn(behavior, env)

            return _PLAIN, run
        body_gen = _as_generator(kind, body_fn)

        def run_gen(behavior: str, env: Env) -> Iterator:
            while cond_fn(env):
                yield from body_gen(behavior, env)

        return _GEN, run_gen

    def _build_for(self, stmt: For) -> Tuple[int, Callable]:
        start_fn = self._expr.compile(stmt.start)
        stop_fn = self._expr.compile(stmt.stop)
        variable = stmt.variable
        kind, body_fn = self._compiled_body(stmt.loop_body)
        if kind == _PLAIN:

            def run(behavior: str, env: Env) -> None:
                start = start_fn(env)
                stop = stop_fn(env)
                loop_frame = Frame(f"{behavior}.{variable}")
                loop_frame.declare_raw(variable, start)
                loop_env = env.child(loop_frame)
                for value in range(start, stop + 1):
                    loop_frame.declare_raw(variable, value)
                    body_fn(behavior, loop_env)

            return _PLAIN, run
        body_gen = _as_generator(kind, body_fn)

        def run_gen(behavior: str, env: Env) -> Iterator:
            start = start_fn(env)
            stop = stop_fn(env)
            loop_frame = Frame(f"{behavior}.{variable}")
            loop_frame.declare_raw(variable, start)
            loop_env = env.child(loop_frame)
            for value in range(start, stop + 1):
                loop_frame.declare_raw(variable, value)
                yield from body_gen(behavior, loop_env)

        return _GEN, run_gen

    def _build_wait(self, stmt: Wait) -> Tuple[int, object]:
        """Compile a wait.  ``wait for N`` and a *static* ``wait until``
        (every free name a pure signal) are one constant request each,
        reused for the simulator's lifetime: the static condition's
        sensitivity is fixed and its predicate reads the current run's
        signal store.  Any other ``wait until`` resolves its signals per
        env; ``wait on`` snapshots the signals per execution."""
        if stmt.delay is not None:
            return _REQUEST, WaitDelay(stmt.delay * self.time_unit)
        if stmt.until is not None:
            cond = stmt.until
            names = free_variables(cond)
            if not names <= self._pure_signals:
                return _GEN, self._build_scoped_wait(stmt)
            test = self._signal_expr.compile(cond)
            state = self._state
            if _static_bool(cond):
                predicate = lambda: test(state.signals)  # noqa: E731
            else:
                predicate = lambda: truthy(test(state.signals))  # noqa: E731
            request = WaitCondition(predicate, names, label=f"until {cond}")
            return _REQUEST, request
        # wait on s1, s2: edge-sensitive — wake on any change
        names = tuple(stmt.on)
        sensitivity = frozenset(names)
        label = "on " + ", ".join(names)

        def run_on(behavior: str, env: Env) -> Iterator:
            kernel = env.kernel
            signals = kernel._signals
            snapshot = [(name, kernel.read_signal(name)) for name in names]
            yield WaitCondition(
                lambda: any(signals[name] != old for name, old in snapshot),
                sensitivity,
                label=label,
            )

        return _GEN, run_on

    def _build_scoped_wait(self, stmt: Wait) -> Callable:
        """A ``wait until`` naming something a frame may bind: which of
        its names are signals depends on the scope."""
        cond = stmt.until
        cond_fn = self._expr.compile(cond)
        cond_bool = _static_bool(cond)
        names = tuple(free_variables(cond))
        label = f"until {cond}"
        # Which free names are signals depends only on the names bound
        # by each frame in the chain — static per frame *owner* — so
        # the sensitivity set is memoised by the owner chain (stable
        # across e.g. repeated subprogram calls, whose envs are fresh
        # objects each time).  The whole WaitCondition (whose predicate
        # closes over the env) is reused via the env's own resolution
        # map: a long-lived behavior env hits forever, a churning call
        # env rebuilds one request per call and then dies with it.
        sens_cache: Dict[tuple, frozenset] = {}
        # "\x00" keeps the key out of the variable-name namespace
        wait_key = f"\x00wait:{id(stmt)}"

        def run_until(behavior: str, env: Env) -> Iterator:
            request = env._resolve.get(wait_key)
            if request is None:
                chain = tuple(frame.owner for frame in env.frames)
                sensitivity = sens_cache.get(chain)
                if sensitivity is None:
                    sensitivity = frozenset(
                        name for name in names if env.is_signal(name)
                    )
                    sens_cache[chain] = sensitivity
                if cond_bool:
                    predicate = lambda: cond_fn(env)  # noqa: E731
                else:
                    predicate = lambda: truthy(cond_fn(env))  # noqa: E731
                request = WaitCondition(predicate, sensitivity, label=label)
                env._resolve[wait_key] = request
            yield request

        return run_until

    def _build_call(self, stmt: CallStmt) -> Tuple[int, Callable]:
        callee = self.spec.subprograms.get(stmt.callee)
        if callee is None:
            return _GEN, self._raising_gen(
                f"call to unknown subprogram {stmt.callee!r}"
            )
        if len(stmt.args) != callee.arity:
            return _GEN, self._raising_gen(
                f"{stmt.callee!r} expects {callee.arity} args, "
                f"got {len(stmt.args)}"
            )
        if any(decl.kind is StorageClass.SIGNAL for decl in callee.decls):
            return _GEN, self._raising_gen(
                f"subprogram {callee.name!r} declares a signal; unsupported"
            )
        arg_fns = tuple(self._expr.compile(arg) for arg in stmt.args)
        params = callee.params
        frame_name = f"call:{callee.name}"
        # everything shape-dependent is fixed at compile time: the
        # copy-in plan (OUT params get the dtype default — values are
        # immutable, so the default is safe to share), the local decls,
        # and the compiled copy-out stores
        copy_in = tuple(
            (
                param.name,
                param.dtype,
                param.dtype.default_value()
                if param.direction is Direction.OUT
                else None,
                None if param.direction is Direction.OUT else arg_fn,
            )
            + _int_range(param.dtype)
            for param, arg_fn in zip(params, arg_fns)
        )
        decls = tuple(callee.decls)
        copy_out = tuple(
            (param.name, self._compile_store(arg))
            for param, arg in zip(params, stmt.args)
            if param.direction in (Direction.OUT, Direction.INOUT)
        )
        state = self._state
        # the callee body, compiled once per simulator; a recursive
        # call is compiled while its callee's cell is still empty and
        # reads the cell when it executes
        cell = self._callee_bodies.get(callee.name)
        if cell is None:
            cell = self._callee_bodies[callee.name] = []
            try:
                cell.append(self._compiled_body(callee.stmt_body))
            except BaseException:
                del self._callee_bodies[callee.name]
                raise

        def enter(env: Env) -> Tuple[Frame, Env]:
            frame = Frame(frame_name)
            slots = frame.slots
            for name, dtype, default, arg_fn, low, high in copy_in:
                if arg_fn is None:
                    slots[name] = [dtype, default]
                    continue
                value = arg_fn(env)
                if type(value) is not int or not low <= value <= high:
                    value = dtype.coerce(value)
                slots[name] = [dtype, value]
            for decl in decls:
                frame.declare(decl)
            # subprogram bodies see globals + their own frame, not the
            # caller's locals (mirrors the validator's scope rule)
            call_env = Env(
                env.kernel,
                (frame, state.global_frame),
                on_read=env.on_read,
                on_write=env.on_write,
            )
            return frame, call_env

        if cell and cell[0][0] == _PLAIN:
            body_fn = cell[0][1]

            def run_plain(behavior: str, env: Env) -> None:
                frame, call_env = enter(env)
                body_fn(behavior, call_env)
                slots = frame.slots
                for name, store in copy_out:
                    store(env, slots[name][1])

            return _PLAIN, run_plain

        def run(behavior: str, env: Env) -> Iterator:
            frame, call_env = enter(env)
            kind, fn = cell[0]
            if kind == _PLAIN:
                fn(behavior, call_env)
            elif kind == _REQUEST:
                yield fn
            else:
                yield from fn(behavior, call_env)
            slots = frame.slots
            for name, store in copy_out:
                store(env, slots[name][1])

        return _GEN, run

    @staticmethod
    def _raising_gen(message: str) -> Callable:
        def fail(behavior: str, env: Env) -> Iterator:
            raise SimulationError(message)
            yield  # pragma: no cover — generator shape only

        return fail


def _as_generator(kind: int, fn) -> Callable:
    """A compiled statement or body as a generator closure."""
    if kind == _GEN:
        return fn
    if kind == _REQUEST:

        def yield_request(behavior: str, env: Env) -> Iterator:
            yield fn

        return yield_request

    def run_plain(behavior: str, env: Env) -> Iterator:
        fn(behavior, env)
        return
        yield  # pragma: no cover — generator shape only

    return run_plain


def _int_range(dtype: DataType) -> Tuple[float, float]:
    """Bounds within which ``dtype.coerce`` returns a plain int as is
    (the call is skipped there); empty for non-integer types."""
    if isinstance(dtype, IntType):
        return dtype.min_value, dtype.max_value
    if isinstance(dtype, BitVectorType):
        return 0, (1 << dtype.width) - 1
    return math.inf, -math.inf


def _pure_signal_names(spec: Specification) -> frozenset:
    """Signals no frame can bind: declared only as signals, and shared
    by no variable, parameter, subprogram local or loop variable."""
    signals = set()
    bound = set()
    for _, decl in spec.all_declared_variables():
        (signals if decl.kind is StorageClass.SIGNAL else bound).add(decl.name)
    bodies = [leaf.stmt_body for leaf in spec.leaf_behaviors()]
    for sub in spec.subprograms.values():
        bound.update(param.name for param in sub.params)
        bound.update(decl.name for decl in sub.decls)
        bodies.append(sub.stmt_body)
    for body in bodies:
        bound.update(
            stmt.variable for stmt in walk_statements(body)
            if isinstance(stmt, For)
        )
    return frozenset(signals - bound)
