"""Expression evaluation and the runtime environment.

Values are plain Python objects (int, bool, str for enum literals,
tuple for arrays).  An :class:`Env` resolves names through a chain of
:class:`Frame` objects (lexical scoping mirrored at runtime) and falls
back to the kernel's signal store, so the same evaluator serves leaf
bodies, transition conditions and subprogram bodies.

:func:`evaluate` is the reference tree walker, re-dispatching on node
type every call.  The compiled fast path (:mod:`repro.sim.codegen`)
generates every expression as Python source instead, with each name
bound to its frame when the code is generated; for every operator node
it does not inline it calls the same helpers as the walker
(:func:`_index`, :func:`_unary`, :func:`_binary`), and for an array
element store :func:`_write_element`, so both paths raise the same
errors with the same messages.

Semantics follow the VHDL subset: ``/`` truncates toward zero, ``mod``
follows the right operand's sign (Python's ``%``), comparisons other
than ``=``/``/=`` require numeric operands, and ``and``/``or``
short-circuit with 0/1 accepted as booleans (bus control lines are
one-bit vectors).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.kernel import Kernel
from repro.spec.expr import BinOp, Const, Expr, Index, UnaryOp, VarRef
from repro.spec.types import DataType
from repro.spec.variable import Variable

__all__ = [
    "Frame",
    "Env",
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

    __slots__ = ("kernel", "frames", "on_read", "on_write")

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
        _write_element(frame.slots[name], name, value, index)
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
        return _index(expr, evaluate(expr.base, env), evaluate(expr.index_expr, env))
    if isinstance(expr, UnaryOp):
        if expr.op == "not":
            return not truthy(evaluate(expr.operand, env))
        return _unary(expr, evaluate(expr.operand, env))
    if isinstance(expr, BinOp):
        if expr.op == "and":
            return truthy(evaluate(expr.left, env)) and truthy(
                evaluate(expr.right, env)
            )
        if expr.op == "or":
            return truthy(evaluate(expr.left, env)) or truthy(
                evaluate(expr.right, env)
            )
        return _binary(expr, evaluate(expr.left, env), evaluate(expr.right, env))
    raise SimulationError(f"runtime: cannot evaluate {expr!r}")


# -- node semantics over evaluated operands (walker and generated code) -------


def _index(expr: Index, base, index):
    """``base[index]`` of the node ``expr``."""
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


def _unary(expr: UnaryOp, operand):
    """The numeric unary operator of ``expr`` applied to ``operand``."""
    _require_number(operand, expr)
    if expr.op == "-":
        return -operand
    if expr.op == "abs":
        return abs(operand)
    raise SimulationError(f"runtime: unknown unary operator {expr.op!r}")


def _binary(expr: BinOp, left, right):
    """The operator of ``expr`` (any but ``and``/``or``) applied to its
    evaluated operands."""
    op = expr.op
    if op == "=":
        return left == right
    if op == "/=":
        return left != right
    _require_number(left, expr)
    _require_number(right, expr)
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
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


def _write_element(slot: List, name: str, value, index) -> None:
    """Store ``value`` at ``index`` of the array held by ``slot`` (a
    frame's ``[dtype, value]``), coercing only the written element."""
    current = slot[1]
    if not isinstance(current, tuple):
        raise SimulationError(f"runtime: {name!r} is not an array")
    _require_index(index)
    if not 0 <= index < len(current):
        raise SimulationError(
            f"runtime: index {index} out of range for {name!r} "
            f"(length {len(current)})"
        )
    if slot[0] is not None:
        value = slot[0].element.coerce(value)
    slot[1] = current[:index] + (value,) + current[index + 1 :]


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
