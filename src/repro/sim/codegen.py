"""Statement bodies and expressions compiled to generated Python functions.

The compiled fast path of :class:`repro.sim.interpreter.Simulator`
generates Python source for every statement body, expression and
store, and compiles it with :func:`compile`:

* a leaf behavior becomes ``leaf(behavior, env)``: one activation —
  it enters the behavior (a fresh frame of its variables) and runs the
  body;
* a subprogram becomes ``subprogram(behavior, *in_args)``: it coerces
  its in-arguments, builds its parameters and locals, runs its body and
  returns its out values; the call site copies them out;
* a transition condition becomes ``condition(behavior, frames)`` over
  the frames of the composite ``behavior``'s env, and a ``wait until``
  that reads no variable becomes ``predicate()`` over the current run's
  signal store.

A body function is a generator exactly when something inside it can
suspend (a wait, a call of a suspending subprogram, or a positive
statement cost); control flow (``if``/``elsif``/``else``, ``while``,
``for``, sequencing) is Python control flow.

**Names bind when the code is generated.**  The frames a body sees are
static: a leaf sees its behavior chain and the global frame, a
subprogram its call frame and the global frame, and a ``for`` loop adds
one frame.  A :class:`Scope` records the names each of those frames
declares, and the generator resolves every name by
:meth:`~repro.sim.eval.Env._find`'s rule (innermost frame first, then
the signal store):

* a variable becomes a *cell* — its frame slot ``[dtype, value]``,
  hoisted into a local when the function starts — read as
  ``cell[1]`` and stored with its type's coercion inline (an int within
  the type's range skips the ``coerce`` call);
* a signal becomes a read of the signal store;
* a name bound nowhere becomes a call raising the walker's error when
  it executes.

Probe hooks (``on_read``/``on_write``) and the per-statement charge are
generated only when a probe or ``cost_fn`` is attached, in the walker's
order.  A hook names the ``behavior`` its function was passed (a deep
expression's function and a ``wait until`` predicate get it too), so
concurrent processes report their own accesses.  ``=``, ``/=``,
``and``, ``or``, ``not``, and comparisons and ``+ - *`` against an int
constant are inline; every other operator node calls the walker's own
helper in :mod:`repro.sim.eval`, so errors and messages match.  A
``wait until`` that reads a variable builds its request each time it
executes (its sensitivity, the names that are signals in its scope, is
bound); a store to an output records its trace event with the written
value.  Bodies nested deeper than :data:`_MAX_NESTING` and expressions
deeper than :data:`_MAX_INLINE` become functions of their own, called
with the cells they use.

Generated source depends only on a body's *structure*: every value
taken from the specification — names, constants, dtypes, frame
positions, requests — is bound in the function's namespace under a
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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError, TypeMismatchError
from repro.sim.eval import (
    _binary,
    _index,
    _is_number,
    _require_number,
    _static_bool,
    _unary,
    _write_element,
    truthy,
)
from repro.sim.kernel import Kernel, WaitCondition, WaitDelay
from repro.spec.behavior import Behavior, LeafBehavior
from repro.spec.expr import BinOp, Const, Expr, Index, UnaryOp, VarRef, free_variables
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

__all__ = ["CODE_MEMO_SIZE", "BodyCompiler", "Scope"]

#: Seconds represented by one ``wait for 1`` tick — the scale fault
#: scenarios expressed in protocol ticks must be multiplied by
#: (:meth:`repro.sim.faults.FaultScenario.scaled`).
DEFAULT_TIME_UNIT = 1e-9

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
#: Expression levels inlined into one source expression; a deeper
#: node becomes a function of its own.
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

#: a key naming one variable of a scope: (position of its frame counted
#: from the outermost, name)
Key = Tuple[int, str]


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


class Scope:
    """The frames of an env as the generator sees them: one
    ``name -> dtype`` map per frame (``None`` for a loop variable),
    innermost first.  Scopes entered from one root are interned, so a
    scope's identity keys the functions generated for it."""

    __slots__ = ("frames", "_inner")

    def __init__(self, frames: Tuple[Dict[str, Optional[DataType]], ...]):
        self.frames = frames
        self._inner: Dict[int, Tuple[Behavior, "Scope"]] = {}

    def enter(self, behavior: Behavior) -> "Scope":
        """The scope of ``behavior``'s activation under this one."""
        hit = self._inner.get(id(behavior))
        if hit is None or hit[0] is not behavior:
            hit = (behavior, Scope((_frame_types(behavior.decls),) + self.frames))
            self._inner[id(behavior)] = hit
        return hit[1]


def _frame_types(decls) -> Dict[str, DataType]:
    """The frame variables ``decls`` declare (a later declaration of a
    name wins, as in :meth:`~repro.sim.eval.Frame.declare`)."""
    return {d.name: d.dtype for d in decls if d.kind is not StorageClass.SIGNAL}


# -- runtime helpers the generated code calls --------------------------------


def _number(value, node: Expr):
    """``value``, after :func:`_require_number`'s check."""
    _require_number(value, node)
    return value


def _inclusive(start, stop) -> range:
    """The values of ``for i in start to stop``."""
    return range(start, stop + 1)


def _cells(frames, pairs: Sequence[Tuple[int, str]]) -> List[List]:
    """The slots ``[dtype, value]`` of the named frame variables."""
    return [frames[index].slots[name] for index, name in pairs]


def _wait_on(kernel: Kernel, names, sensitivity, label) -> WaitCondition:
    """``wait on s1, s2``: edge-sensitive, so each execution snapshots
    the signals and waits for any of them to change."""
    signals = kernel._signals
    snapshot = [(name, kernel.read_signal(name)) for name in names]
    return WaitCondition(
        lambda: any(signals[name] != old for name, old in snapshot),
        sensitivity,
        label=label,
    )


def _raiser(message: str) -> Callable:
    """A callable raising ``SimulationError(message)`` when the
    statement it stands for executes (its arguments, already evaluated
    values, are ignored)."""

    def fail(*evaluated):
        raise SimulationError(message)

    return fail


def _reraise(exc: Exception) -> Callable[[], None]:
    error_type, args = type(exc), exc.args

    def misfit():
        raise error_type(*args)

    return misfit


#: names every generated namespace starts with (none spec-derived)
_HELPERS = {
    "__builtins__": builtins,
    "_truthy": truthy,
    "_number": _number,
    "_index": _index,
    "_unary": _unary,
    "_binary": _binary,
    "_write_element": _write_element,
    "_inclusive": _inclusive,
    "_cells": _cells,
    "_wait_on": _wait_on,
    "_WaitCondition": WaitCondition,
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


def _int_range(dtype: DataType) -> Tuple[int, int]:
    """Bounds within which ``dtype.coerce`` returns a plain int as is
    (the call is skipped there); empty for non-integer types."""
    if isinstance(dtype, IntType):
        return dtype.min_value, dtype.max_value
    if isinstance(dtype, BitVectorType):
        return 0, (1 << dtype.width) - 1
    return 1, 0


def _generator(fn: FunctionType) -> bool:
    return bool(fn.__code__.co_flags & CO_GENERATOR)


class _Function:
    """Source lines, namespace and cells of one generated function."""

    def __init__(self, helpers: Dict[str, object]):
        self.lines: List[str] = []
        self.namespace: Dict[str, object] = dict(helpers)
        self._bound = 0
        #: the body reads the signal store / writes signals (hoisted)
        self.reads_signals = False
        self.writes_signals = False
        #: the body fires a probe hook, so it needs ``behavior``
        self.hooks = False
        #: variable -> the local holding its cell
        self.cells: Dict[Key, str] = {}
        #: variables whose cells come from outside the function
        #: (hoisted in its prologue, or passed in), in order
        self.free: List[Key] = []
        #: locals of the loop-variable cells the function creates
        self.loops: List[str] = []

    def bind(self, value) -> str:
        """A fresh identifier bound to ``value`` in the namespace."""
        name = f"_k{self._bound}"
        self._bound += 1
        self.namespace[name] = value
        return name

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def cell(self, key: Key) -> str:
        """The local holding the cell of variable ``key``."""
        local = self.cells.get(key)
        if local is None:
            local = self.cells[key] = f"_v{len(self.cells)}"
            self.free.append(key)
        return local

    def made_cell(self, key: Key) -> str:
        """The local of a cell this function makes itself."""
        local = self.cells.get(key)
        if local is None:
            local = self.cells[key] = f"_v{len(self.cells)}"
        return local

    def loop_cell(self, key: Key) -> str:
        """The local of a loop variable's cell, made when the function
        starts (sibling loops of one variable share it)."""
        local = self.made_cell(key)
        if local not in self.loops:
            self.loops.append(local)
        return local

    def hoist(self, frames: str, depth: int) -> List[str]:
        """The prologue line taking the free cells from ``frames`` (an
        expression of a frame tuple holding the ``depth`` outermost
        frames of the scope, innermost first)."""
        if not self.free:
            return []
        pairs = tuple((depth - 1 - position, name) for position, name in self.free)
        targets = "".join(local + ", " for local in self.params())
        return [f"{targets}= _cells({frames}, {self.bind(pairs)})"]

    def build(self, signature: str, prologue: Sequence[str] = ()) -> FunctionType:
        """Compile ``def signature:`` over prologue, hoists and body."""
        head = [f"def {signature}:"] + ["    " + text for text in prologue]
        if self.reads_signals:
            head.append("    signals = _state.signals")
        if self.writes_signals:
            head.append("    write_signal = _state.kernel.write_signal")
        if self.loops:
            head.append(
                "    " + "".join(f"{local}, " for local in self.loops)
                + "= " + ", ".join("[None, None]" for _ in self.loops) + ","
            )
        if len(head) == 1 and not self.lines:
            head.append("    pass")
        source = "\n".join(head + self.lines) + "\n"
        code = _code_for(source)
        return FunctionType(code, self.namespace, code.co_name)

    def params(self) -> List[str]:
        """The locals of the free cells, as parameters."""
        return [self.cells[key] for key in self.free]

    def arguments(self, sub: "_Function") -> List[str]:
        """This function's cells that ``sub``, a function generated in
        the same scope, takes as parameters."""
        return [self.cell(key) for key in sub.free]


class _Writer:
    """Emits statements and expressions of one scope into one
    :class:`_Function` for the owning :class:`BodyCompiler`."""

    def __init__(
        self,
        compiler: "BodyCompiler",
        function: _Function,
        frames: Tuple[Dict[str, Optional[DataType]], ...],
    ):
        self.compiler = compiler
        self.fn = function
        #: the scope's frames, innermost first
        self.frames = frames

    def lookup(self, name: str) -> Optional[Tuple[Key, Optional[DataType]]]:
        """``(key, dtype)`` of the frame variable ``name`` denotes here,
        or ``None`` when no frame binds it."""
        for position, frame in enumerate(self.frames):
            if name in frame:
                return (len(self.frames) - 1 - position, name), frame[name]
        return None

    def _hook(self, hook: str, name: str) -> str:
        self.fn.hooks = True
        return f"{hook}(behavior, {self.fn.bind(name)})"

    # -- expressions -----------------------------------------------------------

    def expr(self, expr: Expr, level: int = 0) -> str:
        fn = self.fn
        if level > _MAX_INLINE:
            return self._value_function(expr)
        if isinstance(expr, Const):
            return fn.bind(expr.value)
        if isinstance(expr, VarRef):
            return self._read(expr.name)
        inner = level + 1
        if isinstance(expr, Index):
            base = self.expr(expr.base, inner)
            return f"_index({fn.bind(expr)}, {base}, {self.expr(expr.index_expr, inner)})"
        if isinstance(expr, UnaryOp):
            if expr.op == "not":
                return f"(not {self.cond(expr.operand, inner)})"
            return f"_unary({fn.bind(expr)}, {self.expr(expr.operand, inner)})"
        if not isinstance(expr, BinOp):
            return f"{fn.bind(_raiser(f'runtime: cannot evaluate {expr!r}'))}()"
        op = expr.op
        if op in ("and", "or"):
            terms = [self.cond(term, inner) for term in _flatten(expr, op)]
            return "(" + f" {op} ".join(terms) + ")"
        left = self.expr(expr.left, inner)
        if op in ("=", "/="):
            return f"({left} {_PY_OPS[op]} {self.expr(expr.right, inner)})"
        # against an int constant, the check of the other operand runs
        # only when it is not an int
        if op in _PY_OPS and isinstance(expr.right, Const) and _is_number(expr.right.value):
            checked = self._number(left, level, expr)
            return f"({checked} {_PY_OPS[op]} {fn.bind(expr.right.value)})"
        if op in _PY_OPS and isinstance(expr.left, Const) and _is_number(expr.left.value):
            checked = self._number(self.expr(expr.right, inner), level, expr)
            return f"({left} {_PY_OPS[op]} {checked})"
        return f"_binary({fn.bind(expr)}, {left}, {self.expr(expr.right, inner)})"

    def _number(self, text: str, level: int, node: Expr) -> str:
        """The value of ``text``, after ``_require_number``'s check
        (which runs only for a non-int)."""
        temp = f"_t{level}"
        return f"({temp} if type({temp} := {text}) is int else _number({temp}, {self.fn.bind(node)}))"

    def cond(self, expr: Expr, level: int = 0) -> str:
        """``expr`` as a condition (``truthy`` unless structurally bool)."""
        text = self.expr(expr, level)
        return text if _static_bool(expr) else f"_truthy({text})"

    def _read(self, name: str) -> str:
        fn = self.fn
        found = self.lookup(name)
        if found is None:
            if name in self.compiler.signal_types:
                fn.reads_signals = True
                return f"signals[{fn.bind(name)}]"
            return f"{fn.bind(_raiser(f'runtime: name {name!r} is not bound'))}()"
        cell = fn.cell(found[0])
        if self.compiler.probe is None:
            return f"{cell}[1]"
        return f"({self._hook('_on_read', name)}, {cell}[1])[1]"

    def _value_function(self, expr: Expr) -> str:
        """``expr`` as a call of a generated function of its own (too
        deep to inline), passed the cells it reads — and the behavior,
        when it fires a probe hook."""
        sub = _Function(self.compiler.helpers)
        sub.line(1, f"return {_Writer(self.compiler, sub, self.frames).expr(expr)}")
        head = ["behavior"] if sub.hooks else []
        self.fn.hooks |= sub.hooks
        value = sub.build(f"value({', '.join(head + sub.params())})")
        return f"{self.fn.bind(value)}({', '.join(head + self.fn.arguments(sub))})"

    def _coerced(self, value: str, dtype: DataType) -> str:
        """``value`` coerced to ``dtype`` (an int within the type's
        range skips the call; other types have an empty range)."""
        fn = self.fn
        low, high = _int_range(dtype)
        return (
            f"(_t if type(_t := {value}) is int and "
            f"{fn.bind(low)} <= _t <= {fn.bind(high)} else {fn.bind(dtype.coerce)}(_t))"
        )

    def _may_raise(self, arg: Expr, dtype: DataType) -> bool:
        """Whether evaluating call argument ``arg`` can raise or fire a
        probe hook (so earlier arguments must be coerced before it)."""
        if isinstance(arg, Const):
            try:
                dtype.coerce(arg.value)
            except TypeMismatchError:
                return True
            return False
        if not isinstance(arg, VarRef):
            return True
        if self.lookup(arg.name) is not None:
            return self.compiler.probe is not None
        return arg.name not in self.compiler.signal_types

    # -- statements ----------------------------------------------------------------

    def body(self, stmts: Body, depth: int) -> None:
        fn = self.fn
        if not stmts:
            fn.line(depth, "pass")
            return
        if depth > _MAX_NESTING:
            sub = _Function(self.compiler.helpers)
            _Writer(self.compiler, sub, self.frames).body(stmts, 1)
            nested = sub.build(f"body({', '.join(['behavior'] + sub.params())})")
            self.compiler._nested.append(nested)
            call = f"{fn.bind(nested)}({', '.join(['behavior'] + fn.arguments(sub))})"
            fn.line(depth, f"yield from {call}" if _generator(nested) else call)
            return
        for stmt in stmts:
            self.stmt(stmt, depth)

    def stmt(self, stmt: Stmt, depth: int) -> None:
        fn = self.fn
        if self.compiler.instrumented:
            self._charge(stmt, depth)
        if isinstance(stmt, Assign):
            self._store(stmt.target, stmt.value, depth)
        elif isinstance(stmt, SignalAssign):
            self._signal_assign(stmt, depth)
        elif isinstance(stmt, If):
            fn.line(depth, f"if {self.cond(stmt.cond)}:")
            self.body(stmt.then_body, depth + 1)
            for cond, arm in stmt.elifs:
                fn.line(depth, f"elif {self.cond(cond)}:")
                self.body(arm, depth + 1)
            if stmt.else_body:
                fn.line(depth, "else:")
                self.body(stmt.else_body, depth + 1)
        elif isinstance(stmt, While):
            cond = stmt.cond
            if isinstance(cond, Const) and isinstance(cond.value, (bool, int)):
                if not truthy(cond.value):
                    return
                fn.line(depth, "while True:")
            else:
                fn.line(depth, f"while {self.cond(cond)}:")
            self.body(stmt.loop_body, depth + 1)
        elif isinstance(stmt, For):
            # the loop frame holds one cell, created with the function
            cell = fn.loop_cell((len(self.frames), stmt.variable))
            start, stop = self.expr(stmt.start), self.expr(stmt.stop)
            fn.line(depth, f"for {cell}[1] in _inclusive({start}, {stop}):")
            loop = ({stmt.variable: None},) + self.frames
            _Writer(self.compiler, fn, loop).body(stmt.loop_body, depth + 1)
        elif isinstance(stmt, Wait):
            fn.line(depth, f"yield {self._wait_request(stmt)}")
        elif isinstance(stmt, CallStmt):
            self._call(stmt, depth)
        elif isinstance(stmt, Null):
            fn.line(depth, "pass")
        else:
            fn.line(depth, f"{fn.bind(_raiser(f'unknown statement {stmt!r}'))}()")

    def _charge(self, stmt: Stmt, depth: int) -> None:
        """The reference path's ``_charge``, inline: call ``cost_fn``,
        fire the probe, then delay by a positive cost."""
        fn = self.fn
        compiler = self.compiler
        node = fn.bind(stmt)
        cost = "_no_cost"
        if compiler.cost_fn is not None:
            cost = "_cost"
            fn.line(depth, f"_cost = _cost_fn(behavior, {node})")
        if compiler.probe is not None:
            fn.line(depth, f"_on_statement(behavior, {node}, {cost})")
        if compiler.cost_fn is not None:
            fn.line(depth, "if _cost > _no_cost:")
            fn.line(depth + 1, "yield _WaitDelay(_cost)")

    def _store(
        self, target: Expr, value, depth: int, value_type: Optional[DataType] = None
    ) -> None:
        """Assign ``value`` — an expression, or the source of a value
        already of ``value_type`` — to ``target``: the reference path's
        ``_do_assign``, trace recording included.  A value of the
        target's own type (a variable of that type, a parameter copied
        out) is stored without coercion, a constant coerced once."""
        fn = self.fn
        constant = value if isinstance(value, Const) else None
        if isinstance(value, VarRef):
            found = self.lookup(value.name)
            value_type = found[1] if found is not None else None
        if isinstance(value, Expr):
            value = self.expr(value)
        if isinstance(target, VarRef):
            name, index = target.name, None
        elif isinstance(target, Index) and isinstance(target.base, VarRef):
            name, index = target.base.name, target.index_expr
        else:
            fail = fn.bind(_raiser(f"invalid assignment target {target}"))
            fn.line(depth, f"{fail}({value})")
            return
        found = self.lookup(name)
        if found is None:
            fail = fn.bind(_raiser(f"runtime: cannot assign unbound name {name!r}"))
            index_text = "" if index is None else ", " + self.expr(index)
            fn.line(depth, f"{fail}({value}{index_text})")
            return
        key, dtype = found
        cell = fn.cell(key)
        if constant is not None and index is None and dtype is not None:
            try:
                value = fn.bind(dtype.coerce(constant.value))
            except TypeMismatchError as exc:
                # fails when the statement executes, as on the walker
                fn.line(depth, f"{fn.bind(_reraise(exc))}()")
                return
            dtype = None
        if index is not None:
            fn.line(
                depth,
                f"_write_element({cell}, {fn.bind(name)}, {value}, {self.expr(index)})",
            )
        elif dtype is None or dtype == value_type:
            fn.line(depth, f"{cell}[1] = {value}")
        else:
            fn.line(depth, f"{cell}[1] = {self._coerced(value, dtype)}")
        if self.compiler.probe is not None:
            fn.line(depth, self._hook("_on_write", name))
        if name in self.compiler.output_names:
            fn.line(depth, f"_record({fn.bind(name)}, {cell}[1])")

    def _signal_assign(self, stmt: SignalAssign, depth: int) -> None:
        fn = self.fn
        target = stmt.target
        if not isinstance(target, VarRef):
            fail = fn.bind(
                _raiser(f"signal assignment target must be a signal name, got {target}")
            )
            fn.line(depth, f"{fail}({self.expr(stmt.value)})")
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
            value = fn.bind(value)
        else:
            value = self.expr(stmt.value)
            if dtype is not None:
                value = self._coerced(value, dtype)
        fn.writes_signals = True
        fn.line(depth, f"write_signal({fn.bind(target.name)}, {value})")

    def _wait_request(self, stmt: Wait) -> str:
        """The expression of the request a wait yields."""
        fn = self.fn
        compiler = self.compiler
        if stmt.delay is not None:
            return fn.bind(WaitDelay(stmt.delay * DEFAULT_TIME_UNIT))
        if stmt.until is None:
            names = tuple(stmt.on)
            label = "on " + ", ".join(names)
            return (
                f"_wait_on(_state.kernel, {fn.bind(names)}, "
                f"{fn.bind(frozenset(names))}, {fn.bind(label)})"
            )
        cond = stmt.until
        names = free_variables(cond)
        if not any(self.lookup(name) is not None for name in names):
            # reads only signals: one request for the simulator's life
            return fn.bind(compiler.static_wait(cond, self.frames))
        sensitivity = frozenset(
            name
            for name in names
            if self.lookup(name) is None and name in compiler.signal_types
        )
        return (
            f"_WaitCondition(lambda: {self.cond(cond)}, "
            f"{fn.bind(sensitivity)}, {fn.bind(f'until {cond}')})"
        )

    def _call(self, stmt: CallStmt, depth: int) -> None:
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
        pairs = list(zip(callee.params, stmt.args))
        ins = [(param, arg) for param, arg in pairs if param.direction is not Direction.OUT]
        declares_signal = any(decl.kind is StorageClass.SIGNAL for decl in callee.decls)
        # Copy-in coerces each argument before the next is evaluated.
        # The callee coerces its in-arguments again (a no-op on coerced
        # values), so an argument after which no evaluation can raise
        # or fire a hook is passed as evaluated.
        coerce_before = len(ins) if declares_signal else max(
            (i for i, (param, arg) in enumerate(ins) if self._may_raise(arg, param.dtype)),
            default=0,
        )
        args = []
        for position, (param, arg) in enumerate(ins):
            if isinstance(arg, Const):
                # a constant is coerced once; one that does not fit
                # fails when the call executes, as on the reference path
                try:
                    args.append(fn.bind(param.dtype.coerce(arg.value)))
                except TypeMismatchError as exc:
                    args.append(f"{fn.bind(_reraise(exc))}()")
                continue
            value = self.expr(arg)
            if position < coerce_before:
                value = self._coerced(value, param.dtype)
            args.append(value)
        arguments = "".join(", " + arg for arg in args)
        if declares_signal:
            fail = _raiser(f"subprogram {callee.name!r} declares a signal; unsupported")
            fn.line(depth, f"{fn.bind(fail)}({arguments[2:]})")
            return
        suspends, sub = compiler.subprogram(callee)
        call = f"{fn.bind(sub)}(behavior{arguments})"
        if suspends:
            call = "yield from " + call
        outs = [(param, arg) for param, arg in pairs if param.direction is not Direction.IN]
        if not outs:
            fn.line(depth, call)
            return
        results = [f"_r{i}" for i in range(len(outs))]
        fn.line(depth, f"{''.join(r + ', ' for r in results)}= {call}")
        # an out value has the type of its cell in the call frame, where
        # a local declared with the parameter's name replaces it
        cell_types = {param.name: param.dtype for param in callee.params}
        cell_types.update(_frame_types(callee.decls))
        for (param, arg), result in zip(outs, results):
            self._store(arg, result, depth, cell_types[param.name])


class BodyCompiler:
    """Generates and caches the functions of one simulator.

    ``state`` is the simulator's per-run state (``kernel``, ``signals``,
    ``global_frame``, ``enter``, ``record``); generated
    functions bind it, never the simulator.  ``signal_types`` maps
    every signal a run registers to its dtype.  Leaf functions and
    transition conditions are cached by node identity and scope (each
    entry keeps its node, so an id cannot be recycled), subprograms by
    name, for the compiler's lifetime.
    """

    def __init__(
        self,
        spec: Specification,
        state,
        signal_types: Dict[str, DataType],
        output_names: frozenset,
        cost_fn=None,
        probe=None,
    ):
        self.spec = spec
        self.signal_types = signal_types
        self.output_names = output_names
        self.cost_fn = cost_fn
        self.probe = probe
        self.instrumented = cost_fn is not None or probe is not None
        hooks = {}
        if probe is not None:
            hooks = dict(
                _on_statement=probe.on_statement,
                _on_read=probe.on_read,
                _on_write=probe.on_write,
            )
        self.helpers = dict(
            _HELPERS, _state=state, _record=state.record, _cost_fn=cost_fn, **hooks
        )
        #: the scope of the top behavior: the global frame
        self.scope = Scope((_frame_types(spec.variables),))
        #: (id(behavior), id(scope)) -> (behavior, suspends, fn)
        self._leaves: Dict[Tuple[int, int], Tuple[LeafBehavior, bool, FunctionType]] = {}
        #: bodies nested too deep, generated as functions of their own
        self._nested: List[FunctionType] = []
        #: subprogram name -> (suspends, fn)
        self._callees: Dict[str, Tuple[bool, FunctionType]] = {}
        #: subprograms whose function is being generated (recursion)
        self._generating: set = set()
        #: (id(condition), id(scope)) -> (condition, fn)
        self._conditions: Dict[Tuple[int, int], Tuple[Expr, FunctionType]] = {}
        #: the simulator-lifetime static wait requests
        self.static_requests: set = set()

    def functions(self) -> List[FunctionType]:
        """Every statement-body function generated so far (leaves,
        nested bodies, then subprograms)."""
        return (
            [fn for _, _, fn in self._leaves.values()]
            + self._nested
            + [fn for _, fn in self._callees.values()]
        )

    def leaf(self, behavior: LeafBehavior, scope: Scope) -> Tuple[bool, FunctionType]:
        """``(suspends, fn)``: ``fn(behavior_name, env)`` is one
        activation of the leaf under an env of ``scope`` — it enters the
        behavior (a fresh frame under ``env``) and runs its body — and is
        a generator function exactly when ``suspends``."""
        key = (id(behavior), id(scope))
        hit = self._leaves.get(key)
        if hit is not None and hit[0] is behavior:
            return hit[1], hit[2]
        function = _Function(self.helpers)
        entered = scope.enter(behavior)
        _Writer(self, function, entered.frames).body(behavior.stmt_body, 1)
        env = f"_state.enter({function.bind(behavior)}, env)"
        prologue = function.hoist(env + ".frames", len(entered.frames)) or [env]
        fn = function.build("leaf(behavior, env)", prologue)
        self._leaves[key] = (behavior, _generator(fn), fn)
        return self._leaves[key][1:]

    def condition(self, cond: Expr, scope: Scope) -> FunctionType:
        """``fn(behavior, frames)``: whether ``cond`` holds over the
        frames of an env of ``scope`` (a probe hears its reads under the
        composite ``behavior``)."""
        key = (id(cond), id(scope))
        hit = self._conditions.get(key)
        if hit is not None and hit[0] is cond:
            return hit[1]
        function = _Function(self.helpers)
        function.line(1, f"return {_Writer(self, function, scope.frames).cond(cond)}")
        fn = function.build(
            "condition(behavior, frames)", function.hoist("frames", len(scope.frames))
        )
        self._conditions[key] = (cond, fn)
        return fn

    def static_wait(self, cond: Expr, frames) -> WaitCondition:
        """The simulator-lifetime request of a ``wait until`` that reads
        no variable in a scope of ``frames`` (its sensitivity, the free
        names that are signals, and a generated predicate over the
        current run's signal store)."""
        function = _Function(self.helpers)
        function.line(1, f"return {_Writer(self, function, frames).cond(cond)}")
        predicate = function.build("predicate()")
        names = frozenset(name for name in free_variables(cond) if name in self.signal_types)
        request = WaitCondition(predicate, names, label=f"until {cond}")
        self.static_requests.add(request)
        return request

    def subprogram(self, callee: Subprogram) -> Tuple[bool, Callable]:
        """``(suspends, fn)``: ``fn(behavior, *in_args)`` coerces the
        in-arguments, builds the call frame's cells (parameters, then
        locals), runs the body in the call scope (the callee frame, then
        globals) and returns the out values in parameter order.  A call
        made while the callee is being generated (a recursive call) goes
        through a generator that looks the callee up when it executes."""
        entry = self._callees.get(callee.name)
        if entry is not None:
            return entry
        if callee.name in self._generating:
            return True, self._recursive(callee.name)
        self._generating.add(callee.name)
        try:
            function = _Function(self.helpers)
            bind = function.bind
            types: Dict[str, Optional[DataType]] = {}
            writer = _Writer(self, function, (types, self.scope.frames[-1]))
            params, cells, values = [], [], []
            for position, param in enumerate(callee.params):
                if param.direction is Direction.OUT:
                    # values are immutable, so the default is safe to share
                    value = bind(param.dtype.default_value())
                else:
                    params.append(f"_p{position}")
                    value = writer._coerced(f"_p{position}", param.dtype)
                types[param.name] = param.dtype
                cells.append(function.made_cell((1, param.name)))
                values.append(f"[{bind(param.dtype)}, {value}]")
            for decl in callee.decls:
                types[decl.name] = decl.dtype
                cells.append(function.made_cell((1, decl.name)))
                values.append(f"[{bind(decl.dtype)}, {bind(decl.initial_value)}]")
            # subprogram bodies see globals + their own frame, not the
            # caller's locals (mirrors the validator's scope rule)
            writer.body(callee.stmt_body, 1)
            outs = [
                function.cells[(1, param.name)]
                for param in callee.params
                if param.direction is not Direction.IN
            ]
            if outs:
                function.line(1, "return " + "".join(f"{cell}[1], " for cell in outs))
            prologue = []
            if cells:
                targets = "".join(cell + ", " for cell in cells)
                prologue.append(f"{targets}= {', '.join(values)},")
            prologue += function.hoist("(_state.global_frame,)", 1)
            fn = function.build(f"subprogram({', '.join(['behavior'] + params)})", prologue)
        finally:
            self._generating.discard(callee.name)
        entry = (_generator(fn), fn)
        self._callees[callee.name] = entry
        return entry

    def _recursive(self, name: str) -> Callable:
        # a weak reference: the helper sits in a generated namespace
        # that the compiler's own cache keeps alive
        compiler = weakref.ref(self)

        def call(behavior, *args):
            suspends, fn = compiler()._callees[name]
            if suspends:
                return (yield from fn(behavior, *args))
            return fn(behavior, *args)

        return call
