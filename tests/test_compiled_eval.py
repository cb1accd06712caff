"""Compiled evaluation must be indistinguishable from the reference
tree walker: same values, same error messages, same designs.

The compiled fast path (``Simulator(compile_cache=True)``, the default)
generates every statement body and expression as Python source once
(:mod:`repro.sim.codegen`); these tests pin its behavior to the
interpretive walker (``compile_cache=False``), including the
constant-operand forms and boolean refinements the generator emits.
Each expression runs as the value of a one-statement leaf on both paths.
"""

import pytest

from repro.apps.medical import MEDICAL_INPUTS, all_designs, medical_specification
from repro.errors import ReproError, SimulationError
from repro.models.impl_models import ALL_MODELS
from repro.refine.refiner import Refiner
from repro.sim import Simulator
from repro.sim.eval import Env, Frame, evaluate
from repro.sim.kernel import Kernel
from repro.spec.builder import assign, leaf, spec
from repro.spec.expr import BINARY_OPS, BinOp, Const, Index, UnaryOp, VarRef, var
from repro.spec.types import BOOL, array_of, int_type
from repro.spec.variable import Role, signal, variable


def make_env():
    kernel = Kernel()
    kernel.register_signal("sig", 3)
    frame = Frame("test")
    frame.declare_raw("x", 7)
    frame.declare_raw("y", -2)
    frame.declare_raw("zero", 0)
    frame.declare_raw("flag", True)
    frame.declare_raw("arr", (10, 20, 30))
    return Env(kernel, (frame,))


def _leaf_outcome(expr, compile_cache):
    """Run ``out := expr`` as the one statement of a leaf over the
    values of :func:`make_env`; the output's type takes the walker's
    value unchanged (a boolean, or an int of at most 32 bits)."""
    try:
        boolean = isinstance(evaluate(expr, make_env()), bool)
    except SimulationError:
        boolean = False
    design = spec(
        "T",
        leaf("A", assign("out", expr)),
        variables=[
            variable("x", int_type(8), init=7),
            variable("y", int_type(8), init=-2),
            variable("zero", int_type(8), init=0),
            variable("flag", BOOL, init=True),
            variable("arr", array_of(int_type(8), 3), init=(10, 20, 30)),
            signal("sig", int_type(8), init=3),
            variable("out", BOOL if boolean else int_type(32), role=Role.OUTPUT),
        ],
    )
    try:
        result = Simulator(design, compile_cache=compile_cache).run()
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))
    [event] = result.trace
    return event.value, type(event.value)


def _assert_parity(expr):
    compiled = _leaf_outcome(expr, compile_cache=True)
    assert compiled == _leaf_outcome(expr, compile_cache=False)
    return compiled


def parity_cases():
    x, y, sig, flag = VarRef("x"), VarRef("y"), VarRef("sig"), VarRef("flag")
    cases = []
    # every binary operator, variable and constant operand shapes
    for op in BINARY_OPS:
        if op in ("and", "or"):
            cases += [
                BinOp(op, flag, BinOp("<", y, Const(0))),
                BinOp(op, BinOp("=", x, Const(7)), flag),
            ]
        else:
            cases += [
                BinOp(op, x, y),  # both variable
                BinOp(op, x, Const(3)),  # fused constant right
                BinOp(op, Const(3), x),  # constant left
            ]
    for op in BINARY_OPS:
        if op in ("and", "or"):
            cases += [
                BinOp(op, Const(True), flag),  # constant boolean left
                BinOp(op, flag, Const(False)),  # constant boolean right
            ]
        else:
            cases += [BinOp(op, Const(3), Const(2))]  # both constant
    cases += [
        UnaryOp("-", x),
        UnaryOp("abs", y),
        UnaryOp("not", flag),
        UnaryOp("not", BinOp("<", x, Const(0))),  # boolean-typed operand
        UnaryOp("-", Const(5)),  # constant unary operands
        UnaryOp("abs", Const(-3)),
        UnaryOp("not", Const(False)),
        Index(VarRef("arr"), BinOp("-", x, Const(6))),
        Index(VarRef("arr"), Const(1)),  # constant index
        BinOp("+", sig, Const(1)),  # signal read
        Const(True),
        Const(42),
    ]
    return cases


class TestExpressionParity:
    @pytest.mark.parametrize("expr", parity_cases(), ids=str)
    def test_compiled_matches_walker(self, expr):
        outcome = _assert_parity(expr)
        assert outcome[0] != "error"
        assert outcome[0] == evaluate(expr, make_env())

    @pytest.mark.parametrize("op", ["/", "mod"])
    def test_zero_division_message_parity(self, op):
        outcome = _assert_parity(BinOp(op, VarRef("x"), VarRef("zero")))
        assert outcome[0] == "error" and "by zero" in outcome[2]

    @pytest.mark.parametrize("op", ["/", "mod"])
    def test_const_zero_divisor_message_parity(self, op):
        # '/' and 'mod' have no constant-operand fast path precisely so
        # a literal zero divisor raises the walker's exact runtime error
        outcome = _assert_parity(BinOp(op, VarRef("x"), Const(0)))
        assert outcome[0] == "error" and "by zero" in outcome[2]

    @pytest.mark.parametrize("op", ["/", "mod"])
    def test_const_zero_divisor_not_folded_at_compile_time(self, op):
        # generating the leaf must not evaluate the division: the error
        # is a runtime property of the statement, not a compile-time one
        design = spec(
            "T",
            leaf("A", assign("out", BinOp(op, var("x"), Const(0)))),
            variables=[variable("x", int_type(), init=1), variable("out", int_type())],
        )
        simulator = Simulator(design)
        simulator._bodies.leaf(design.top, simulator._bodies.scope)  # must not raise
        with pytest.raises(SimulationError):
            simulator.run()

    @pytest.mark.parametrize(
        "expr",
        [
            # bools are not numbers: the constant-operand fusion must
            # not treat a boolean literal as a numeric constant (Python
            # would happily compute x + True), and both strategies must
            # reject it with the same runtime type error
            BinOp("+", VarRef("x"), Const(True)),
            BinOp("+", VarRef("flag"), Const(1)),
            BinOp("*", Const(False), VarRef("x")),
        ],
        ids=str,
    )
    def test_bool_arithmetic_rejected_identically(self, expr):
        outcome = _assert_parity(expr)
        assert outcome[0] == "error" and "non-integer" in outcome[2]

    def test_unbound_name_message_parity(self):
        outcome = _assert_parity(VarRef("missing"))
        assert outcome == ("error", "SimulationError", "runtime: name 'missing' is not bound")


def run_both_modes(design_spec, inputs=None):
    cached = Simulator(design_spec, compile_cache=True).run(inputs=inputs)
    walked = Simulator(design_spec, compile_cache=False).run(inputs=inputs)
    return cached, walked


class TestSimulatorParity:
    def test_refined_medical_designs_match(self):
        source = medical_specification()
        source.validate()
        partition = all_designs(source)["Design1"]
        for model in (ALL_MODELS[0], ALL_MODELS[-1]):  # Model1 and Model4
            refined = Refiner(source, partition, model).run()
            cached, walked = run_both_modes(
                refined.spec, inputs=dict(MEDICAL_INPUTS)
            )
            assert cached.completed and walked.completed
            assert cached.output_values() == walked.output_values()
            assert cached.time == walked.time

    def test_runtime_error_message_parity(self):
        design = spec(
            "T",
            leaf("A", assign("q", var("x") / var("z"))),
            variables=[
                variable("x", int_type(), init=1),
                variable("z", int_type(), init=0),
                variable("q", int_type()),
            ],
        )
        design.validate()
        with pytest.raises(SimulationError) as cached_error:
            Simulator(design, compile_cache=True).run()
        with pytest.raises(SimulationError) as walker_error:
            Simulator(design, compile_cache=False).run()
        assert str(cached_error.value) == str(walker_error.value)

    def test_rerun_reuses_statement_cache(self):
        design = spec(
            "T",
            leaf("A", assign("x", var("x") + 1)),
            variables=[variable("x", int_type(), init=0)],
        )
        design.validate()
        simulator = Simulator(design)
        first = simulator.run()
        generated = simulator._bodies.functions()
        assert generated
        second = simulator.run()
        # no recompile: the same generated functions, none added
        again = simulator._bodies.functions()
        assert len(again) == len(generated)
        assert all(a is b for a, b in zip(again, generated))
        assert first.value_of("x") == second.value_of("x") == 1
