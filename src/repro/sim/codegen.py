"""Statement bodies compiled to generated Python functions.

The compiled fast path of :class:`repro.sim.interpreter.Simulator`
turns each statement body into *one* Python function, generated as
source text and compiled with :func:`compile`:

* a leaf behavior becomes ``leaf(behavior, env)``: one activation —
  it enters the behavior (a fresh frame of its variables) and runs the
  body;
* a subprogram becomes ``subprogram(behavior, env, *in_args)``: it
  takes the coerced in-arguments, builds the call frame and the call
  :class:`Env`, runs its body and returns the frame's slots; the call
  site does copy-in and copy-out inline;
* a static ``wait until`` predicate (every free name a pure signal)
  becomes ``predicate()`` over the current run's signal store.

A body function is a generator exactly when something inside it can
suspend (a wait, a call of a suspending subprogram, or a positive
statement cost); control flow (``if``/``elsif``/``else``, ``while``,
``for``, sequencing) is Python control flow, so a resumed process
passes one generator frame per subprogram level, not one per nested
statement.

Inlined in the generated code: pure-signal reads and constants, ``=``
and ``/=``, ``and``/``or``/``not`` (with ``truthy`` applied to
operands that are not structurally boolean), comparisons and
``+ - *`` against an int constant (the ``_require_number`` check runs
only when the operand is not an ``int``), signal writes with their
in-range-int check, subprogram copy-in/copy-out, and the per-statement
charge of instrumented runs.  Every other expression node — variable
reads, array indexing, division, ``mod``, negation — calls its
:class:`~repro.sim.eval.ExprCompiler` closure (a wait predicate passes
the run state, whose ``kernel`` holds the signal store, as the env),
and every store calls its ``compile_store`` closure, so variable
resolution, probe hooks, index checks and error messages stay those of
the closures.  A scoped ``wait until`` and ``wait on`` keep per-env
helper closures.

Generated source depends only on a body's *structure*: every value
taken from the specification — names, constants, dtypes, frame owners,
requests, closures — is bound in the function's namespace under a
generated identifier (``_k0``, ``_k1``, ...), never written into the
source.  No specification text reaches :func:`compile`, and
structurally identical bodies (one protocol procedure per bus, one
server per memory port) share one code object through a process-wide
LRU memo of :data:`CODE_MEMO_SIZE` entries keyed by source text.

Namespaces hold no function whose globals are that same namespace, so
simulators, kernels and generated functions are freed by reference
counting.
"""

from __future__ import annotations

import builtins
import threading
import weakref
from collections import OrderedDict
from inspect import CO_GENERATOR
from types import CodeType, FunctionType
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError, TypeMismatchError
from repro.sim.eval import (
    Env,
    ExprCompiler,
    Frame,
    _is_number,
    _require_number,
    _static_bool,
    truthy,
)
from repro.sim.kernel import WaitCondition, WaitDelay
from repro.spec.behavior import LeafBehavior
from repro.spec.expr import BinOp, Const, Expr, UnaryOp, VarRef, free_variables
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
from repro.spec.subprogram import Direction, Subprogram
from repro.spec.types import BitVectorType, DataType, IntType
from repro.spec.variable import StorageClass

__all__ = ["CODE_MEMO_SIZE", "BodyCompiler"]

#: Code objects kept by the process-wide memo (least recently used
#: evicted first).  Kept workers of the serve daemon compile many
#: fuzzed specifications, so the memo must stay bounded.
CODE_MEMO_SIZE = 256

#: source text -> code object of the function it defines
_CODE_MEMO: "OrderedDict[str, CodeType]" = OrderedDict()
_MEMO_LOCK = threading.Lock()

#: Statement nesting (indentation levels) above which a nested body is
#: generated as a function of its own — far below Python's limits on
#: nested blocks and indentation.
_MAX_NESTING = 12
#: Expression levels inlined into one source expression; deeper nodes
#: call their closures.
_MAX_INLINE = 16

#: IR operators inlined as the same Python operator
_PY_OPS = {
    "=": "==",
    "/=": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "+": "+",
    "-": "-",
    "*": "*",
}


def _code_for(source: str) -> CodeType:
    """The code object of the one function ``source`` defines."""
    with _MEMO_LOCK:
        code = _CODE_MEMO.get(source)
        if code is not None:
            _CODE_MEMO.move_to_end(source)
            return code
    module = compile(source, "<repro.sim.codegen>", "exec")
    code = next(c for c in module.co_consts if isinstance(c, CodeType))
    with _MEMO_LOCK:
        _CODE_MEMO[source] = code
        while len(_CODE_MEMO) > CODE_MEMO_SIZE:
            _CODE_MEMO.popitem(last=False)
    return code


# -- runtime helpers the generated code calls --------------------------------


def _number(value, node: Expr):
    """``value``, after :func:`_require_number`'s check."""
    _require_number(value, node)
    return value


def _inclusive(start, stop) -> range:
    """The values of ``for i in start to stop``."""
    return range(start, stop + 1)


def _raiser(message: str) -> Callable:
    """A callable raising ``SimulationError(message)`` when the
    statement it stands for executes (its argument, an already
    evaluated value, is ignored)."""

    def fail(*evaluated):
        raise SimulationError(message)

    return fail


#: names every generated namespace starts with (none spec-derived)
_HELPERS = {
    "__builtins__": builtins,
    "_truthy": truthy,
    "_number": _number,
    "_inclusive": _inclusive,
    "_Frame": Frame,
    "_Env": Env,
    "_WaitDelay": WaitDelay,
    "_no_cost": 0.0,
}


def _flatten(expr: Expr, op: str) -> List[Expr]:
    """The operands of a chain of ``op``, left to right."""
    terms: List[Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BinOp) and node.op == op:
            stack.append(node.right)
            stack.append(node.left)
        else:
            terms.append(node)
    return terms


def _int_range(dtype: DataType) -> Optional[Tuple[int, int]]:
    """Bounds within which ``dtype.coerce`` returns a plain int as is
    (the call is skipped there); ``None`` for non-integer types."""
    if isinstance(dtype, IntType):
        return dtype.min_value, dtype.max_value
    if isinstance(dtype, BitVectorType):
        return 0, (1 << dtype.width) - 1
    return None


class _Function:
    """Source lines and namespace of one generated function."""

    def __init__(self, helpers: Dict[str, object]):
        self.lines: List[str] = []
        self.namespace: Dict[str, object] = dict(helpers)
        self._bound = 0
        #: the body reads the signal store / writes signals (hoisted)
        self.reads_signals = False
        self.writes_signals = False

    def bind(self, value) -> str:
        """A fresh identifier bound to ``value`` in the namespace."""
        name = f"_k{self._bound}"
        self._bound += 1
        self.namespace[name] = value
        return name

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def build(self, signature: str, prologue: List[str], store: str) -> FunctionType:
        """Compile ``def signature:`` over prologue, hoists and body.

        ``store`` is the expression of the signal store (read through
        ``signals``)."""
        head = [f"def {signature}:"] + ["    " + text for text in prologue]
        if self.reads_signals:
            head.append(f"    signals = {store}")
        if self.writes_signals:
            head.append("    write_signal = env.kernel.write_signal")
        if len(head) == 1 and not self.lines:
            head.append("    pass")
        source = "\n".join(head + self.lines) + "\n"
        code = _code_for(source)
        return FunctionType(code, self.namespace, code.co_name)


class _Writer:
    """Emits statements and expressions into one :class:`_Function`
    for the owning :class:`BodyCompiler`."""

    def __init__(self, compiler: "BodyCompiler", function: _Function):
        self.compiler = compiler
        self.fn = function

    # -- expressions -----------------------------------------------------------

    def expr(self, expr: Expr, env: str, level: int = 0) -> str:
        fn = self.fn
        if level > _MAX_INLINE:
            return self._closure(expr, env)
        if isinstance(expr, Const):
            return fn.bind(expr.value)
        if isinstance(expr, VarRef):
            if expr.name in self.compiler.pure_signals:
                fn.reads_signals = True
                return f"signals[{fn.bind(expr.name)}]"
            return self._closure(expr, env)
        inner = level + 1
        if isinstance(expr, UnaryOp) and expr.op == "not":
            return f"(not {self.cond(expr.operand, env, inner)})"
        if isinstance(expr, BinOp):
            op = expr.op
            if op in ("and", "or"):
                terms = [self.cond(term, env, inner) for term in _flatten(expr, op)]
                return "(" + f" {op} ".join(terms) + ")"
            if op in ("=", "/="):
                left = self.expr(expr.left, env, inner)
                right = self.expr(expr.right, env, inner)
                return f"({left} {_PY_OPS[op]} {right})"
            if (
                op in _PY_OPS
                and isinstance(expr.right, Const)
                and _is_number(expr.right.value)
            ):
                # the check runs only when the operand is not an int
                temp = f"_t{level}"
                left = self.expr(expr.left, env, inner)
                return (
                    f"(({temp} if type({temp} := {left}) is int "
                    f"else _number({temp}, {fn.bind(expr)})) "
                    f"{_PY_OPS[op]} {fn.bind(expr.right.value)})"
                )
        return self._closure(expr, env)

    def cond(self, expr: Expr, env: str, level: int = 0) -> str:
        """``expr`` as a condition (``truthy`` unless structurally bool)."""
        text = self.expr(expr, env, level)
        return text if _static_bool(expr) else f"_truthy({text})"

    def _closure(self, expr: Expr, env: str) -> str:
        return f"{self.fn.bind(self.compiler.expr.compile(expr))}({env})"

    # -- statements ----------------------------------------------------------------

    def body(self, stmts: Body, depth: int, env: str, loops: int) -> None:
        fn = self.fn
        if not stmts:
            fn.line(depth, "pass")
            return
        if depth > _MAX_NESTING:
            suspends, nested = self.compiler.body(stmts)
            call = f"{fn.bind(nested)}(behavior, {env})"
            fn.line(depth, f"yield from {call}" if suspends else call)
            return
        for stmt in stmts:
            self.stmt(stmt, depth, env, loops)

    def stmt(self, stmt: Stmt, depth: int, env: str, loops: int) -> None:
        fn = self.fn
        compiler = self.compiler
        if compiler.instrumented:
            self._charge(stmt, depth)
        if isinstance(stmt, Assign):
            store = fn.bind(compiler.store(stmt.target))
            fn.line(depth, f"{store}({env}, {self.expr(stmt.value, env)})")
        elif isinstance(stmt, SignalAssign):
            self._signal_assign(stmt, depth, env)
        elif isinstance(stmt, If):
            fn.line(depth, f"if {self.cond(stmt.cond, env)}:")
            self.body(stmt.then_body, depth + 1, env, loops)
            for cond, arm in stmt.elifs:
                fn.line(depth, f"elif {self.cond(cond, env)}:")
                self.body(arm, depth + 1, env, loops)
            if stmt.else_body:
                fn.line(depth, "else:")
                self.body(stmt.else_body, depth + 1, env, loops)
        elif isinstance(stmt, While):
            cond = stmt.cond
            if isinstance(cond, Const) and isinstance(cond.value, (bool, int)):
                if not truthy(cond.value):
                    return
                fn.line(depth, "while True:")
            else:
                fn.line(depth, f"while {self.cond(cond, env)}:")
            self.body(stmt.loop_body, depth + 1, env, loops)
        elif isinstance(stmt, For):
            self._for(stmt, depth, env, loops)
        elif isinstance(stmt, Wait):
            fn.line(depth, f"yield {self._wait_request(stmt, env)}")
        elif isinstance(stmt, CallStmt):
            self._call(stmt, depth, env)
        elif isinstance(stmt, Null):
            fn.line(depth, "pass")
        else:
            fail = fn.bind(_raiser(f"unknown statement {stmt!r}"))
            fn.line(depth, f"{fail}()")

    def _charge(self, stmt: Stmt, depth: int) -> None:
        """The reference path's ``_charge``, inline: name the behavior,
        call ``cost_fn``, fire the probe, then delay by a positive cost."""
        fn = self.fn
        compiler = self.compiler
        node = fn.bind(stmt)
        fn.line(depth, "_state.behavior = behavior")
        cost = "_no_cost"
        if compiler.cost_fn is not None:
            cost = "_cost"
            fn.line(depth, f"_cost = _cost_fn(behavior, {node})")
        if compiler.probe is not None:
            fn.line(depth, f"_on_statement(behavior, {node}, {cost})")
        if compiler.cost_fn is not None:
            fn.line(depth, "if _cost > _no_cost:")
            fn.line(depth + 1, "yield _WaitDelay(_cost)")

    def _coerce(self, name: str, dtype: DataType, depth: int) -> None:
        """Coerce local ``name`` to ``dtype``; an in-range int skips the
        call (``dtype.coerce`` would return it as is)."""
        fn = self.fn
        coerce = fn.bind(dtype.coerce)
        bounds = _int_range(dtype)
        if bounds is None:
            fn.line(depth, f"{name} = {coerce}({name})")
            return
        low, high = fn.bind(bounds[0]), fn.bind(bounds[1])
        fn.line(
            depth,
            f"if type({name}) is not int or not {low} <= {name} <= {high}:",
        )
        fn.line(depth + 1, f"{name} = {coerce}({name})")

    def _signal_assign(self, stmt: SignalAssign, depth: int, env: str) -> None:
        fn = self.fn
        target = stmt.target
        if not isinstance(target, VarRef):
            fail = fn.bind(
                _raiser(
                    f"signal assignment target must be a signal name, got {target}"
                )
            )
            fn.line(depth, f"{fail}({self.expr(stmt.value, env)})")
            return
        dtype = self.compiler.signal_types.get(target.name)
        if isinstance(stmt.value, Const):
            value = stmt.value.value
            if dtype is not None:
                try:
                    value = dtype.coerce(value)
                except TypeMismatchError as exc:
                    # a constant that does not fit fails when the
                    # statement executes, exactly as on the reference path
                    fn.line(depth, f"{fn.bind(_reraise(exc))}()")
                    return
            fn.writes_signals = True
            fn.line(depth, f"write_signal({fn.bind(target.name)}, {fn.bind(value)})")
            return
        fn.writes_signals = True
        value = self.expr(stmt.value, env)
        if dtype is None:
            fn.line(depth, f"write_signal({fn.bind(target.name)}, {value})")
            return
        fn.line(depth, f"_v = {value}")
        self._coerce("_v", dtype, depth)
        fn.line(depth, f"write_signal({fn.bind(target.name)}, _v)")

    def _for(self, stmt: For, depth: int, env: str, loops: int) -> None:
        fn = self.fn
        start, stop = f"_start{loops}", f"_stop{loops}"
        slots, loop_env, value = f"_slots{loops}", f"_env{loops}", f"_i{loops}"
        fn.line(depth, f"{start} = {self.expr(stmt.start, env)}")
        fn.line(depth, f"{stop} = {self.expr(stmt.stop, env)}")
        owner = fn.bind("." + stmt.variable)
        fn.line(depth, f"_frame{loops} = _Frame(behavior + {owner})")
        fn.line(depth, f"{slots} = _frame{loops}.slots")
        name = fn.bind(stmt.variable)
        fn.line(depth, f"{slots}[{name}] = [None, {start}]")
        fn.line(depth, f"{loop_env} = {env}.child(_frame{loops})")
        fn.line(depth, f"for {value} in _inclusive({start}, {stop}):")
        fn.line(depth + 1, f"{slots}[{name}] = [None, {value}]")
        self.body(stmt.loop_body, depth + 1, loop_env, loops + 1)

    def _wait_request(self, stmt: Wait, env: str) -> str:
        """The expression of the request a wait yields: a constant
        request, or a per-env helper's result."""
        fn = self.fn
        compiler = self.compiler
        if stmt.delay is not None:
            return fn.bind(WaitDelay(stmt.delay * compiler.time_unit))
        if stmt.until is not None:
            request = compiler.static_wait(stmt.until)
            if request is not None:
                return fn.bind(request)
            return f"{fn.bind(compiler.scoped_wait(stmt))}({env})"
        return f"{fn.bind(_wait_on(stmt.on))}({env})"

    def _call(self, stmt: CallStmt, depth: int, env: str) -> None:
        fn = self.fn
        compiler = self.compiler
        callee = compiler.spec.subprograms.get(stmt.callee)
        if callee is None:
            message = f"call to unknown subprogram {stmt.callee!r}"
        elif len(stmt.args) != callee.arity:
            message = (
                f"{stmt.callee!r} expects {callee.arity} args, "
                f"got {len(stmt.args)}"
            )
        else:
            message = None
        if message is not None:
            fn.line(depth, f"{fn.bind(_raiser(message))}()")
            return
        # copy-in, in parameter order (an OUT parameter takes its
        # dtype's default inside the callee)
        args = []
        for position, (param, arg) in enumerate(zip(callee.params, stmt.args)):
            if param.direction is Direction.OUT:
                continue
            if isinstance(arg, Const):
                # a constant is coerced once; one that does not fit
                # fails when the call executes, as on the reference path
                try:
                    args.append(fn.bind(param.dtype.coerce(arg.value)))
                except TypeMismatchError as exc:
                    fn.line(depth, f"{fn.bind(_reraise(exc))}()")
                    return
                continue
            name = f"_a{position}"
            fn.line(depth, f"{name} = {self.expr(arg, env)}")
            self._coerce(name, param.dtype, depth)
            args.append(name)
        if any(decl.kind is StorageClass.SIGNAL for decl in callee.decls):
            fail = _raiser(f"subprogram {callee.name!r} declares a signal; unsupported")
            fn.line(depth, f"{fn.bind(fail)}()")
            return
        suspends, sub = compiler.subprogram(callee)
        call = f"{fn.bind(sub)}(behavior, {env}{''.join(', ' + a for a in args)})"
        if suspends:
            call = "yield from " + call
        copy_out = [
            (param, arg)
            for param, arg in zip(callee.params, stmt.args)
            if param.direction in (Direction.OUT, Direction.INOUT)
        ]
        if not copy_out:
            fn.line(depth, call)
            return
        fn.line(depth, f"_r = {call}")
        for param, arg in copy_out:
            fn.line(depth, f"_u, _w = _r[{fn.bind(param.name)}]")
            fn.line(depth, f"{fn.bind(compiler.store(arg))}({env}, _w)")


def _reraise(exc: Exception) -> Callable[[], None]:
    error_type, args = type(exc), exc.args

    def misfit():
        raise error_type(*args)

    return misfit


def _wait_on(names: Tuple[str, ...]) -> Callable[[Env], WaitCondition]:
    """``wait on s1, s2``: edge-sensitive, so each execution snapshots
    the signals and waits for any of them to change."""
    names = tuple(names)
    sensitivity = frozenset(names)
    label = "on " + ", ".join(names)

    def request(env: Env) -> WaitCondition:
        kernel = env.kernel
        signals = kernel._signals
        snapshot = [(name, kernel.read_signal(name)) for name in names]
        return WaitCondition(
            lambda: any(signals[name] != old for name, old in snapshot),
            sensitivity,
            label=label,
        )

    return request


class BodyCompiler:
    """Generates and caches the statement-body functions of one
    simulator.

    ``state`` is the simulator's per-run state (``kernel``,
    ``signals``, ``global_frame``, ``scoped_waits``, ``behavior``,
    ``observe_write``); generated functions bind it, never the
    simulator.  Leaf bodies are cached by
    node identity (each entry keeps its node, so an id cannot be
    recycled), subprograms by name, for the compiler's lifetime.
    """

    def __init__(
        self,
        spec: Specification,
        expr: ExprCompiler,
        state,
        pure_signals: frozenset,
        signal_types: Dict[str, DataType],
        output_names: frozenset,
        time_unit: float,
        cost_fn=None,
        probe=None,
    ):
        self.spec = spec
        self.expr = expr
        self.state = state
        self.pure_signals = pure_signals
        self.signal_types = signal_types
        self.output_names = output_names
        self.time_unit = time_unit
        self.cost_fn = cost_fn
        self.probe = probe
        self.instrumented = cost_fn is not None or probe is not None
        self._helpers = dict(
            _HELPERS,
            _state=state,
            _cost_fn=cost_fn,
            _on_statement=probe.on_statement if probe is not None else None,
        )
        #: id(behavior) -> (behavior, suspends, fn) — leaf activations
        self._leaves: Dict[int, Tuple[LeafBehavior, bool, FunctionType]] = {}
        #: id(body) -> (body, suspends, fn) — bodies nested too deep
        self._bodies: Dict[int, Tuple[Body, bool, FunctionType]] = {}
        #: subprogram name -> (suspends, fn)
        self._callees: Dict[str, Tuple[bool, FunctionType]] = {}
        #: subprograms whose function is being generated (recursion)
        self._generating: set = set()
        #: the simulator-lifetime static wait requests
        self.static_requests: set = set()

    def functions(self) -> List[FunctionType]:
        """Every function generated so far (leaves, nested bodies, then
        subprograms)."""
        return (
            [fn for _, _, fn in self._leaves.values()]
            + [fn for _, _, fn in self._bodies.values()]
            + [fn for _, fn in self._callees.values()]
        )

    def leaf(self, behavior: LeafBehavior) -> Tuple[bool, FunctionType]:
        """``(suspends, fn)``: ``fn(behavior_name, env)`` is one
        activation of the leaf — it enters the behavior (a fresh frame
        under ``env``) and runs its body — and is a generator function
        exactly when ``suspends``."""
        key = id(behavior)
        hit = self._leaves.get(key)
        if hit is not None and hit[0] is behavior:
            return hit[1], hit[2]
        function = _Function(self._helpers)
        prologue = [f"env = _state.enter({function.bind(behavior)}, env)"]
        entry = self._generate(function, behavior.stmt_body, "leaf", prologue)
        self._leaves[key] = (behavior,) + entry
        return entry

    def body(self, stmts: Body) -> Tuple[bool, FunctionType]:
        """``(suspends, fn)``: ``fn(behavior, env)`` runs ``stmts`` and is
        a generator function exactly when ``suspends``."""
        key = id(stmts)
        hit = self._bodies.get(key)
        if hit is not None and hit[0] is stmts:
            return hit[1], hit[2]
        entry = self._generate(_Function(self._helpers), stmts, "body", [])
        self._bodies[key] = (stmts,) + entry
        return entry

    def _generate(
        self, function: _Function, stmts: Body, name: str, prologue: List[str]
    ) -> Tuple[bool, FunctionType]:
        _Writer(self, function).body(stmts, 1, "env", 0)
        fn = function.build(f"{name}(behavior, env)", prologue, "env.kernel._signals")
        return bool(fn.__code__.co_flags & CO_GENERATOR), fn

    def subprogram(self, callee: Subprogram) -> Tuple[bool, Callable]:
        """``(suspends, fn)``: ``fn(behavior, env, *in_args)`` builds the
        call frame from the coerced in-arguments, runs the body in the
        call env (the callee frame, then globals) and returns the frame's
        slots.  A call made while the callee is being generated (a
        recursive call) goes through a generator that looks the callee
        up when it executes."""
        entry = self._callees.get(callee.name)
        if entry is not None:
            return entry
        if callee.name in self._generating:
            return True, self._recursive(callee.name)
        self._generating.add(callee.name)
        try:
            function = _Function(self._helpers)
            bind = function.bind
            prologue = [
                f"frame = _Frame({bind('call:' + callee.name)})",
                "slots = frame.slots",
            ]
            params = []
            for position, param in enumerate(callee.params):
                slot = f"slots[{bind(param.name)}] = [{bind(param.dtype)}, "
                if param.direction is Direction.OUT:
                    # values are immutable, so the default is safe to share
                    prologue.append(slot + f"{bind(param.dtype.default_value())}]")
                else:
                    prologue.append(slot + f"_p{position}]")
                    params.append(f"_p{position}")
            for decl in callee.decls:
                prologue.append(
                    f"slots[{bind(decl.name)}] = "
                    f"[{bind(decl.dtype)}, {bind(decl.initial_value)}]"
                )
            # subprogram bodies see globals + their own frame, not the
            # caller's locals (mirrors the validator's scope rule)
            prologue.append(
                "env = _Env(env.kernel, (frame, _state.global_frame), "
                "env.on_read, env.on_write)"
            )
            _Writer(self, function).body(callee.stmt_body, 1, "env", 0)
            function.line(1, "return slots")
            signature = "subprogram(" + ", ".join(["behavior", "env"] + params) + ")"
            fn = function.build(signature, prologue, "env.kernel._signals")
        finally:
            self._generating.discard(callee.name)
        entry = (bool(fn.__code__.co_flags & CO_GENERATOR), fn)
        self._callees[callee.name] = entry
        return entry

    def _recursive(self, name: str) -> Callable:
        # a weak reference: the helper sits in a generated namespace
        # that the compiler's own cache keeps alive
        compiler = weakref.ref(self)

        def call(behavior, env, *args):
            suspends, fn = compiler()._callees[name]
            if suspends:
                return (yield from fn(behavior, env, *args))
            return fn(behavior, env, *args)

        return call

    def store(self, target: Expr) -> Callable[[Env, object], None]:
        """``store(env, value)``: the reference path's ``_do_assign``,
        output-trace recording included."""
        store = self.expr.compile_store(target)
        if store is None:
            return _raiser(f"invalid assignment target {target}")
        name = target.name if isinstance(target, VarRef) else target.base.name
        if name not in self.output_names:
            return store
        observe = self.state.observe_write

        def store_observed(env: Env, value) -> None:
            store(env, value)
            observe(name, env)

        return store_observed

    def static_wait(self, cond: Expr) -> Optional[WaitCondition]:
        """The simulator-lifetime request of a ``wait until`` whose free
        names are all pure signals (fixed sensitivity, generated
        predicate over the current run's signal store); ``None`` when
        the condition needs per-env resolution."""
        names = free_variables(cond)
        if not names <= self.pure_signals:
            return None
        # the run state stands in for an env: a closure over pure
        # signals reads only ``env.kernel``'s signal store
        function = _Function(self._helpers)
        text = _Writer(self, function).cond(cond, "_state")
        function.line(1, f"return {text}")
        predicate = function.build("predicate()", [], "_state.signals")
        request = WaitCondition(predicate, names, label=f"until {cond}")
        self.static_requests.add(request)
        return request

    def scoped_wait(self, stmt: Wait) -> Callable[[Env], WaitCondition]:
        """``request(env)`` for a ``wait until`` naming something a frame
        may bind: which of its names are signals depends on the scope."""
        cond = stmt.until
        cond_fn = self.expr.compile(cond)
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
        state = self.state

        def request(env: Env) -> WaitCondition:
            found = env._resolve.get(wait_key)
            if found is not None:
                return found
            chain = tuple(frame.owner for frame in env.frames)
            sensitivity = sens_cache.get(chain)
            if sensitivity is None:
                sensitivity = frozenset(name for name in names if env.is_signal(name))
                sens_cache[chain] = sensitivity
            if cond_bool:
                predicate = lambda: cond_fn(env)  # noqa: E731
            else:
                predicate = lambda: truthy(cond_fn(env))  # noqa: E731
            found = WaitCondition(predicate, sensitivity, label=label)
            env._resolve[wait_key] = found
            state.scoped_waits.append(found)
            return found

        return request
