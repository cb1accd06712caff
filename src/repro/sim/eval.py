"""Expression evaluation and the runtime environment.

Values are plain Python objects (int, bool, str for enum literals,
tuple for arrays).  An :class:`Env` resolves names through a chain of
:class:`Frame` objects (lexical scoping mirrored at runtime) and falls
back to the kernel's signal store, so the same evaluator serves leaf
bodies, transition conditions and subprogram bodies.

Two evaluation strategies share these semantics:

* :func:`evaluate` — the reference tree walker, re-dispatching on node
  type every call; and
* :class:`ExprCompiler` — the hot-path variant: each AST node is
  *compiled once* into a Python closure (keyed by node identity), so
  repeated activations of the same statement skip all dispatch.  The
  interpreter uses a per-:class:`~repro.sim.interpreter.Simulator`
  compiler by default; the two strategies are equivalence-tested
  against each other.  The generated statement bodies of
  :mod:`repro.sim.codegen` inline the hottest shapes (pure-signal
  reads, constants, ``=``/``/=``, ``and``/``or``/``not``, comparisons
  and ``+ - *`` against an int constant) and call these closures for
  every other node — variable reads, indexing, division, ``mod``,
  negation — and for every variable store.

Semantics follow the VHDL subset: ``/`` truncates toward zero, ``mod``
follows the right operand's sign (Python's ``%``), comparisons other
than ``=``/``/=`` require numeric operands, and ``and``/``or``
short-circuit with 0/1 accepted as booleans (bus control lines are
one-bit vectors).
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.kernel import Kernel
from repro.spec.expr import BinOp, Const, Expr, Index, UnaryOp, VarRef
from repro.spec.types import DataType
from repro.spec.variable import Variable

__all__ = [
    "Frame",
    "Env",
    "ExprCompiler",
    "evaluate",
    "truthy",
]


class Frame:
    """One scope's storage: name -> (dtype or None, value).

    Loop variables are stored with dtype ``None`` (no coercion).
    """

    __slots__ = ("owner", "slots")

    def __init__(self, owner: str):
        self.owner = owner
        self.slots: Dict[str, List] = {}

    def declare(self, decl: Variable) -> None:
        self.slots[decl.name] = [decl.dtype, decl.initial_value]

    def declare_raw(self, name: str, value) -> None:
        self.slots[name] = [None, value]

    def has(self, name: str) -> bool:
        return name in self.slots

    def read(self, name: str):
        return self.slots[name][1]

    def write(self, name: str, value) -> None:
        slot = self.slots[name]
        slot[1] = slot[0].coerce(value) if slot[0] is not None else value

    def snapshot(self) -> Dict[str, object]:
        return {name: slot[1] for name, slot in self.slots.items()}


class Env:
    """A chain of frames plus the kernel's signal store.

    ``on_read``/``on_write`` are optional profiler hooks fired with the
    resolved variable name on every access of a *variable* (signals are
    not profiled; they are refinement overhead, not specification
    channels).
    """

    __slots__ = ("kernel", "frames", "on_read", "on_write", "_resolve")

    def __init__(
        self,
        kernel: Kernel,
        frames: Tuple[Frame, ...],
        on_read: Optional[Callable[[str], None]] = None,
        on_write: Optional[Callable[[str], None]] = None,
    ):
        self.kernel = kernel
        self.frames = frames  # innermost first
        self.on_read = on_read
        self.on_write = on_write
        #: name -> binding Frame (None = kernel signal store); filled
        #: lazily by the compiled fast path.  Safe because a name's
        #: binding frame never changes within one env's lifetime:
        #: frames gain names only before the env is handed out.
        self._resolve: Dict[str, Optional[Frame]] = {}

    def child(self, frame: Frame) -> "Env":
        """A new environment with ``frame`` innermost."""
        return Env(self.kernel, (frame,) + self.frames, self.on_read, self.on_write)

    def _find(self, name: str) -> Optional[Frame]:
        for frame in self.frames:
            if frame.has(name):
                return frame
        return None

    def read(self, name: str):
        frame = self._find(name)
        if frame is not None:
            if self.on_read is not None:
                self.on_read(name)
            return frame.read(name)
        if self.kernel.has_signal(name):
            return self.kernel.read_signal(name)
        raise SimulationError(f"runtime: name {name!r} is not bound")

    def write(self, name: str, value) -> None:
        frame = self._find(name)
        if frame is None:
            raise SimulationError(f"runtime: cannot assign unbound name {name!r}")
        frame.write(name, value)
        if self.on_write is not None:
            self.on_write(name)

    def write_array_element(self, name: str, index: int, value) -> None:
        frame = self._find(name)
        if frame is None:
            raise SimulationError(f"runtime: cannot assign unbound name {name!r}")
        current = frame.read(name)
        if not isinstance(current, tuple):
            raise SimulationError(f"runtime: {name!r} is not an array")
        _require_index(index)
        if not 0 <= index < len(current):
            raise SimulationError(
                f"runtime: index {index} out of range for {name!r} "
                f"(length {len(current)})"
            )
        updated = current[:index] + (value,) + current[index + 1 :]
        frame.write(name, updated)
        if self.on_write is not None:
            self.on_write(name)

    def peek(self, name: str):
        """Read without firing the profiler hook (trace capture)."""
        frame = self._find(name)
        if frame is not None:
            return frame.read(name)
        if self.kernel.has_signal(name):
            return self.kernel.read_signal(name)
        raise SimulationError(f"runtime: name {name!r} is not bound")

    def is_signal(self, name: str) -> bool:
        return self._find(name) is None and self.kernel.has_signal(name)

    def write_signal(self, name: str, value, dtype: Optional[DataType]) -> None:
        if dtype is not None:
            value = dtype.coerce(value)
        self.kernel.write_signal(name, value)


def truthy(value) -> bool:
    """Interpret a value as a condition (bools, and 0/1-style ints)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value != 0
    raise SimulationError(f"runtime: {value!r} is not a condition value")


def evaluate(expr: Expr, env: Env):
    """Evaluate ``expr`` in ``env``."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, VarRef):
        return env.read(expr.name)
    if isinstance(expr, Index):
        base = evaluate(expr.base, env)
        index = evaluate(expr.index_expr, env)
        if not isinstance(base, tuple):
            raise SimulationError(f"runtime: {expr.base} is not an array")
        if not isinstance(index, int) or isinstance(index, bool):
            raise SimulationError(f"runtime: array index {index!r} is not an integer")
        if not 0 <= index < len(base):
            raise SimulationError(
                f"runtime: index {index} out of range for {expr.base} "
                f"(length {len(base)})"
            )
        return base[index]
    if isinstance(expr, UnaryOp):
        if expr.op == "not":
            return not truthy(evaluate(expr.operand, env))
        operand = evaluate(expr.operand, env)
        _require_number(operand, expr)
        if expr.op == "-":
            return -operand
        if expr.op == "abs":
            return abs(operand)
        raise SimulationError(f"runtime: unknown unary operator {expr.op!r}")
    if isinstance(expr, BinOp):
        return _eval_binop(expr, env)
    raise SimulationError(f"runtime: cannot evaluate {expr!r}")


def _eval_binop(expr: BinOp, env: Env):
    op = expr.op
    if op == "and":
        return truthy(evaluate(expr.left, env)) and truthy(evaluate(expr.right, env))
    if op == "or":
        return truthy(evaluate(expr.left, env)) or truthy(evaluate(expr.right, env))

    left = evaluate(expr.left, env)
    right = evaluate(expr.right, env)
    if op == "=":
        return left == right
    if op == "/=":
        return left != right
    if op in ("<", "<=", ">", ">="):
        _require_number(left, expr)
        _require_number(right, expr)
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    _require_number(left, expr)
    _require_number(right, expr)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise SimulationError(f"runtime: division by zero in {expr}")
        quotient = abs(left) // abs(right)  # VHDL '/': truncate toward zero
        return -quotient if (left < 0) != (right < 0) else quotient
    if op == "mod":
        if right == 0:
            raise SimulationError(f"runtime: mod by zero in {expr}")
        return left % right
    raise SimulationError(f"runtime: unknown binary operator {op!r}")


def _require_number(value, expr: Expr) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SimulationError(
            f"runtime: arithmetic on non-integer {value!r} in {expr}"
        )


def _require_index(index) -> None:
    if not isinstance(index, int) or isinstance(index, bool):
        raise SimulationError(f"runtime: array index {index!r} is not an integer")


def _is_number(value) -> bool:
    """Compile-time mirror of :func:`_require_number`'s acceptance."""
    return isinstance(value, int) and not isinstance(value, bool)


def _static_bool(expr: Expr) -> bool:
    """Whether ``expr`` is structurally guaranteed to evaluate to a
    Python bool (so ``truthy`` would be the identity on it)."""
    if isinstance(expr, BinOp):
        return expr.op in ("and", "or", "=", "/=", "<", "<=", ">", ">=")
    if isinstance(expr, UnaryOp):
        return expr.op == "not"
    return False


#: sentinel distinguishing "not yet resolved" from "resolves to the
#: kernel signal store (None)" in Env._resolve
_UNRESOLVED = object()


def _binding(env: Env, name: str) -> Frame:
    """The frame an assignment to ``name`` writes (memoised like the
    compiled reads); a name bound to no frame cannot be assigned."""
    frame = env._resolve.get(name, _UNRESOLVED)
    if frame is _UNRESOLVED:
        for frame in env.frames:
            if name in frame.slots:
                env._resolve[name] = frame
                return frame
        frame = None
    if frame is None:
        raise SimulationError(f"runtime: cannot assign unbound name {name!r}")
    return frame


#: the comparison and arithmetic operators of compiled binary nodes
_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_COMBINE = {"+": operator.add, "-": operator.sub, "*": operator.mul}

#: A compiled expression: call with an :class:`Env`, get the value.
CompiledExpr = Callable[[Env], object]


class ExprCompiler:
    """Compiles expression ASTs into Python closures, once per node.

    The cache is keyed by node identity (``id``); each entry keeps a
    strong reference to its node so an id can never be recycled while
    the cache lives.  Shared subtrees (refinement reuses condition
    nodes freely) compile exactly once.  Compiled closures reproduce
    :func:`evaluate`'s semantics and error messages exactly — the
    equivalence suite runs both strategies and compares.

    ``pure_signals`` names the signals no frame of the program can
    bind (no variable, parameter, local or loop variable anywhere shares
    the name): such a name resolves to the kernel's signal store in
    every scope, so its references compile to a direct store read.

    One compiler instance is intended to live as long as the simulator
    that owns it; do not share a compiler across threads.
    """

    __slots__ = ("_cache", "_pure_signals")

    def __init__(self, pure_signals: Iterable[str] = ()):
        self._cache: Dict[int, Tuple[Expr, CompiledExpr]] = {}
        self._pure_signals = frozenset(pure_signals)

    def compile(self, expr: Expr) -> CompiledExpr:
        """The compiled form of ``expr`` (cached by node identity)."""
        key = id(expr)
        hit = self._cache.get(key)
        if hit is not None and hit[0] is expr:
            return hit[1]
        fn = self._build(expr)
        self._cache[key] = (expr, fn)
        return fn

    def evaluate(self, expr: Expr, env: Env):
        """Compile (or fetch) and evaluate in one call."""
        return self.compile(expr)(env)

    def __len__(self) -> int:
        return len(self._cache)

    # -- node builders --------------------------------------------------------

    def _build(self, expr: Expr) -> CompiledExpr:
        if isinstance(expr, Const):
            value = expr.value
            return lambda env: value
        if isinstance(expr, VarRef):
            return self._build_varref(expr)
        if isinstance(expr, Index):
            return self._build_index(expr)
        if isinstance(expr, UnaryOp):
            return self._build_unary(expr)
        if isinstance(expr, BinOp):
            return self._build_binop(expr)
        return self._raiser(f"runtime: cannot evaluate {expr!r}")

    @staticmethod
    def _raiser(message: str) -> CompiledExpr:
        def fail(env):
            raise SimulationError(message)

        return fail

    def _build_varref(self, expr: VarRef) -> CompiledExpr:
        name = expr.name
        if name in self._pure_signals:
            return lambda env: env.kernel._signals[name]
        # Inlines Env.read's frame walk (hottest closure by call
        # count) and memoises the binding frame in the env's own
        # ``_resolve`` map (``None`` = the kernel signal store), so
        # the steady state is two dict probes and the cache dies with
        # the env — no retention of dead call frames.
        message = f"runtime: name {name!r} is not bound"

        def read_var(env):
            frame = env._resolve.get(name, _UNRESOLVED)
            if frame is not _UNRESOLVED:
                if frame is None:
                    return env.kernel._signals[name]
                if env.on_read is not None:
                    env.on_read(name)
                return frame.slots[name][1]
            for frame in env.frames:
                slot = frame.slots.get(name)
                if slot is not None:
                    env._resolve[name] = frame
                    if env.on_read is not None:
                        env.on_read(name)
                    return slot[1]
            signals = env.kernel._signals
            if name in signals:
                env._resolve[name] = None
                return signals[name]
            raise SimulationError(message)

        return read_var

    def compile_store(
        self, target: Expr
    ) -> Optional[Callable[[Env, object], None]]:
        """``store(env, value)`` assigning ``value`` to ``target`` — a
        variable or an element of an array variable — with the
        semantics and messages of :meth:`Env.write` and
        :meth:`Env.write_array_element`; ``None`` when ``target`` is not
        assignable.  The binding frame is memoised in the env's
        ``_resolve`` map, shared with the compiled reads."""
        if isinstance(target, VarRef):
            name = target.name

            def store(env, value):
                slot = _binding(env, name).slots[name]
                slot[1] = slot[0].coerce(value) if slot[0] is not None else value
                if env.on_write is not None:
                    env.on_write(name)

            return store
        if not (isinstance(target, Index) and isinstance(target.base, VarRef)):
            return None
        name = target.base.name
        index_fn = self.compile(target.index_expr)

        def store_element(env, value):
            index = index_fn(env)
            slot = _binding(env, name).slots[name]
            current = slot[1]
            if not isinstance(current, tuple):
                raise SimulationError(f"runtime: {name!r} is not an array")
            _require_index(index)
            if not 0 <= index < len(current):
                raise SimulationError(
                    f"runtime: index {index} out of range for {name!r} "
                    f"(length {len(current)})"
                )
            updated = current[:index] + (value,) + current[index + 1 :]
            slot[1] = slot[0].coerce(updated) if slot[0] is not None else updated
            if env.on_write is not None:
                env.on_write(name)

        return store_element

    def _build_index(self, expr: Index) -> CompiledExpr:
        base_fn = self.compile(expr.base)
        index_fn = self.compile(expr.index_expr)
        base_node = expr.base

        def run(env):
            base = base_fn(env)
            index = index_fn(env)
            if not isinstance(base, tuple):
                raise SimulationError(f"runtime: {base_node} is not an array")
            if not isinstance(index, int) or isinstance(index, bool):
                raise SimulationError(
                    f"runtime: array index {index!r} is not an integer"
                )
            if not 0 <= index < len(base):
                raise SimulationError(
                    f"runtime: index {index} out of range for {base_node} "
                    f"(length {len(base)})"
                )
            return base[index]

        return run

    def _build_unary(self, expr: UnaryOp) -> CompiledExpr:
        operand_fn = self.compile(expr.operand)
        if expr.op == "not":
            if _static_bool(expr.operand):
                return lambda env: not operand_fn(env)
            return lambda env: not truthy(operand_fn(env))
        if expr.op == "-":

            def negate(env):
                operand = operand_fn(env)
                _require_number(operand, expr)
                return -operand

            return negate
        if expr.op == "abs":

            def absolute(env):
                operand = operand_fn(env)
                _require_number(operand, expr)
                return abs(operand)

            return absolute
        return self._raiser(f"runtime: unknown unary operator {expr.op!r}")

    def _build_binop(self, expr: BinOp) -> CompiledExpr:
        op = expr.op
        left_fn = self.compile(expr.left)
        right_fn = self.compile(expr.right)
        if op in ("and", "or"):
            # skip the truthy() coercion for operands that are
            # structurally boolean (comparisons / not / and / or)
            left_bool = _static_bool(expr.left)
            right_bool = _static_bool(expr.right)
            if op == "and":
                if left_bool and right_bool:
                    return lambda env: left_fn(env) and right_fn(env)
                if left_bool:
                    return lambda env: left_fn(env) and truthy(right_fn(env))
                if right_bool:
                    return lambda env: truthy(left_fn(env)) and right_fn(env)
                return lambda env: truthy(left_fn(env)) and truthy(
                    right_fn(env)
                )
            if left_bool and right_bool:
                return lambda env: left_fn(env) or right_fn(env)
            if left_bool:
                return lambda env: left_fn(env) or truthy(right_fn(env))
            if right_bool:
                return lambda env: truthy(left_fn(env)) or right_fn(env)
            return lambda env: truthy(left_fn(env)) or truthy(right_fn(env))
        if op == "=":
            if isinstance(expr.right, Const):
                rconst = expr.right.value
                return lambda env: left_fn(env) == rconst
            return lambda env: left_fn(env) == right_fn(env)
        if op == "/=":
            if isinstance(expr.right, Const):
                rconst = expr.right.value
                return lambda env: left_fn(env) != rconst
            return lambda env: left_fn(env) != right_fn(env)
        if op in ("<", "<=", ">", ">="):
            compare = _COMPARE[op]
            if isinstance(expr.right, Const) and _is_number(
                expr.right.value
            ):
                rconst = expr.right.value

                def comparison_const(env):
                    left = left_fn(env)
                    if type(left) is not int:  # only then can it fail
                        _require_number(left, expr)
                    return compare(left, rconst)

                return comparison_const

            def comparison(env):
                left = left_fn(env)
                right = right_fn(env)
                _require_number(left, expr)
                _require_number(right, expr)
                return compare(left, right)

            return comparison
        if op in ("+", "-", "*"):
            combine = _COMBINE[op]
            if isinstance(expr.right, Const) and _is_number(
                expr.right.value
            ):
                rconst = expr.right.value

                def arithmetic_const(env):
                    left = left_fn(env)
                    if type(left) is not int:  # only then can it fail
                        _require_number(left, expr)
                    return combine(left, rconst)

                return arithmetic_const

            def arithmetic(env):
                left = left_fn(env)
                right = right_fn(env)
                _require_number(left, expr)
                _require_number(right, expr)
                return combine(left, right)

            return arithmetic
        if op == "/":

            def divide(env):
                left = left_fn(env)
                right = right_fn(env)
                _require_number(left, expr)
                _require_number(right, expr)
                if right == 0:
                    raise SimulationError(f"runtime: division by zero in {expr}")
                quotient = abs(left) // abs(right)  # VHDL '/': truncate toward zero
                return -quotient if (left < 0) != (right < 0) else quotient

            return divide
        if op == "mod":

            def modulo(env):
                left = left_fn(env)
                right = right_fn(env)
                _require_number(left, expr)
                _require_number(right, expr)
                if right == 0:
                    raise SimulationError(f"runtime: mod by zero in {expr}")
                return left % right

            return modulo
        return self._raiser(f"runtime: unknown binary operator {op!r}")
