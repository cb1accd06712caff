"""Tests for the IR interpreter: statement semantics, behavior
composition, subprogram calls, traces and profiling hooks."""

import pytest

from repro.apps.figures import (
    figure1_specification,
    figure2_specification,
    figure5_specification,
    figure6_specification,
    figure7_specification,
)
from repro.errors import SimulationError
from repro.sim import Probe, Simulator
from repro.spec.builder import (
    assign,
    call,
    conc,
    for_,
    if_,
    leaf,
    loop_forever,
    on_complete,
    sassign,
    seq,
    spec,
    transition,
    wait_until,
    while_,
)
from repro.spec.expr import var
from repro.spec.subprogram import Direction, Param, Subprogram
from repro.spec.types import BIT, array_of, int_type
from repro.spec.variable import Role, signal, variable


def run_single(behavior, variables, inputs=None, subprograms=()):
    design = spec("T", behavior, variables=variables, subprograms=subprograms)
    design.validate()
    return Simulator(design).run(inputs=inputs)


class TestStatements:
    def test_assign_and_arithmetic(self):
        result = run_single(
            leaf("A", assign("x", (var("x") + 3) * 2)),
            [variable("x", int_type(), init=5)],
        )
        assert result.value_of("x") == 16

    def test_if_else(self):
        result = run_single(
            leaf("A", if_(var("x") > 0, [assign("y", 1)], [assign("y", 2)])),
            [variable("x", int_type(), init=-1), variable("y", int_type())],
        )
        assert result.value_of("y") == 2

    def test_elsif_chain(self):
        from repro.spec.stmt import If, body

        stmt = If(
            var("x").eq(0),
            body([assign("y", 10)]),
            elifs=(
                (var("x").eq(1), body([assign("y", 11)])),
                (var("x").eq(2), body([assign("y", 12)])),
            ),
            else_body=body([assign("y", 99)]),
        )
        result = run_single(
            leaf("A", stmt),
            [variable("x", int_type(), init=2), variable("y", int_type())],
        )
        assert result.value_of("y") == 12

    def test_while_loop(self):
        result = run_single(
            leaf("A", while_(var("i") < 5, [assign("i", var("i") + 1)])),
            [variable("i", int_type(), init=0)],
        )
        assert result.value_of("i") == 5

    def test_for_loop_sum(self):
        result = run_single(
            leaf("A", for_("k", 1, 10, [assign("s", var("s") + var("k"))])),
            [variable("s", int_type(), init=0)],
        )
        assert result.value_of("s") == 55

    def test_for_loop_empty_range(self):
        result = run_single(
            leaf("A", for_("k", 5, 1, [assign("s", var("s") + 1)])),
            [variable("s", int_type(), init=0)],
        )
        assert result.value_of("s") == 0

    def test_array_read_write(self):
        result = run_single(
            leaf(
                "A",
                for_("i", 0, 3, [assign(var("a").index(var("i")), var("i") * 2)]),
                assign("x", var("a").index(3)),
            ),
            [
                variable("a", array_of(int_type(8), 4)),
                variable("x", int_type()),
            ],
        )
        assert result.value_of("a") == (0, 2, 4, 6)
        assert result.value_of("x") == 6

    def test_array_out_of_bounds(self):
        with pytest.raises(SimulationError):
            run_single(
                leaf("A", assign(var("a").index(7), 1)),
                [variable("a", array_of(int_type(8), 4))],
            )

    def test_division_truncates_toward_zero(self):
        result = run_single(
            leaf("A", assign("q", var("x") / 4), assign("r", (var("x") + 0) / 2)),
            [
                variable("x", int_type(), init=-7),
                variable("q", int_type()),
                variable("r", int_type()),
            ],
        )
        assert result.value_of("q") == -1
        assert result.value_of("r") == -3

    def test_division_by_zero(self):
        with pytest.raises(SimulationError):
            run_single(
                leaf("A", assign("q", var("x") / var("z"))),
                [
                    variable("x", int_type(), init=1),
                    variable("z", int_type(), init=0),
                    variable("q", int_type()),
                ],
            )

    def test_assignment_coerces_to_width(self):
        result = run_single(
            leaf("A", assign("x", 300)),
            [variable("x", int_type(8))],
        )
        assert result.value_of("x") == 44  # 300 wraps in 8-bit signed

    def test_wait_for_advances_time(self):
        result = run_single(leaf("A", *( [ ] )) , [])
        assert result.time == 0.0
        from repro.spec.builder import wait_for

        result = run_single(leaf("A", wait_for(100)), [])
        assert result.time == pytest.approx(100e-9)


class TestSequentialComposition:
    def test_figure1_takes_b_branch(self):
        design = figure1_specification()
        design.validate()
        result = Simulator(design).run(inputs={"seed": 3})
        # A: x = 4; x > 1 -> B: x = 8, result = 8
        assert result.value_of("result") == 8
        assert result.completed

    def test_figure1_takes_c_branch(self):
        design = figure1_specification()
        result = Simulator(design).run(inputs={"seed": -5})
        # A: x = -4; x < 1 -> C: x = 0, result = -1
        assert result.value_of("result") == -1

    def test_figure1_no_arc_completes(self):
        design = figure1_specification()
        result = Simulator(design).run(inputs={"seed": 0})
        # A: x = 1; neither arc -> composite completes, result untouched
        assert result.value_of("result") == 0
        assert result.completed

    def test_figure6_transition_conditions(self):
        design = figure6_specification()
        design.validate()
        result = Simulator(design).run()
        # x=1: B1 -> x=3 (>1) -> B2 -> x=9 (>5) -> B3 -> out=9
        assert result.value_of("out") == 9

    def test_back_arc_loops(self):
        a = leaf("A", assign("n", var("n") + 1))
        b = leaf("B", assign("m", var("m") + 10))
        top = seq(
            "L",
            [a, b],
            transitions=[
                transition("A", None, "B"),
                transition("B", var("n") < 3, "A"),
                on_complete("B", var("n") >= 3),
            ],
        )
        result = run_single(
            top,
            [variable("n", int_type(), init=0), variable("m", int_type(), init=0)],
        )
        assert result.value_of("n") == 3
        assert result.value_of("m") == 30

    def test_behavior_locals_reinitialised_on_reentry(self):
        a = leaf("A", assign("t", var("t") + 1), assign("seen", var("t")))
        a.add_decl(variable("t", int_type(), init=0))
        top = seq(
            "L",
            [a],
            transitions=[
                transition("A", var("count") < 1, "A"),
            ],
        )
        # 'count' never increments so guard against infinite loop with
        # an arc that eventually fails: use count from A's executions
        a2 = leaf(
            "Count", assign("count", var("count") + 1)
        )
        top = seq(
            "L",
            [a, a2],
            transitions=[
                transition("A", None, "Count"),
                transition("Count", var("count") < 3, "A"),
            ],
        )
        result = run_single(
            top,
            [
                variable("count", int_type(), init=0),
                variable("seen", int_type(), init=0),
            ],
        )
        # t restarts at 0 each entry, so seen is always 1
        assert result.value_of("seen") == 1
        assert result.value_of("count") == 3


class TestConcurrentComposition:
    def test_children_interleave_via_signals(self):
        producer = leaf(
            "Producer",
            assign("data", 42),
            sassign("ready", 1),
        )
        consumer = leaf(
            "Consumer",
            wait_until(var("ready").eq(1)),
            assign("out", var("data")),
        )
        top = conc("Top", [producer, consumer])
        result = run_single(
            top,
            [
                variable("data", int_type(), init=0),
                variable("out", int_type(), init=0, role=Role.OUTPUT),
                signal("ready", BIT, init=0),
            ],
        )
        assert result.value_of("out") == 42
        assert result.completed

    def test_daemon_child_does_not_block_completion(self):
        server = leaf(
            "Server",
            loop_forever([
                wait_until(var("req").eq(1)),
                sassign("ack", 1),
                wait_until(var("req").eq(0)),
                sassign("ack", 0),
            ]),
        )
        server.daemon = True
        client = leaf(
            "Client",
            sassign("req", 1),
            wait_until(var("ack").eq(1)),
            assign("got", 1),
            sassign("req", 0),
        )
        top = conc("Top", [server, client])
        result = run_single(
            top,
            [
                variable("got", int_type(), init=0),
                signal("req", BIT, init=0),
                signal("ack", BIT, init=0),
            ],
        )
        assert result.completed
        assert result.value_of("got") == 1
        assert "Server" in result.blocked()

    def test_figure7_concurrent_readers(self):
        design = figure7_specification()
        design.validate()
        result = Simulator(design).run()
        assert result.value_of("r1") == 12  # 3 * 4
        assert result.value_of("r2") == 27  # 3 * 9


class TestSubprograms:
    def make_design(self):
        double = Subprogram(
            "double",
            params=[
                Param("a", int_type()),
                Param("b", int_type(), Direction.OUT),
            ],
            stmt_body=[assign("b", var("a") * 2)],
        )
        body = leaf("A", call("double", var("x") + 1, "y"))
        return spec(
            "S",
            body,
            variables=[
                variable("x", int_type(), init=4),
                variable("y", int_type(), init=0),
            ],
            subprograms=[double],
        )

    def test_out_param_copy_back(self):
        design = self.make_design()
        design.validate()
        result = Simulator(design).run()
        assert result.value_of("y") == 10

    def test_inout_param(self):
        bump = Subprogram(
            "bump",
            params=[Param("v", int_type(), Direction.INOUT)],
            stmt_body=[assign("v", var("v") + 1)],
        )
        design = spec(
            "S",
            leaf("A", call("bump", "x"), call("bump", "x")),
            variables=[variable("x", int_type(), init=0)],
            subprograms=[bump],
        )
        design.validate()
        assert Simulator(design).run().value_of("x") == 2

    def test_nested_calls(self):
        inner = Subprogram(
            "inner",
            params=[Param("r", int_type(), Direction.OUT)],
            stmt_body=[assign("r", 7)],
        )
        outer = Subprogram(
            "outer",
            params=[Param("r", int_type(), Direction.OUT)],
            decls=[variable("t", int_type())],
            stmt_body=[call("inner", "t"), assign("r", var("t") + 1)],
        )
        design = spec(
            "S",
            leaf("A", call("outer", "x")),
            variables=[variable("x", int_type())],
            subprograms=[inner, outer],
        )
        design.validate()
        assert Simulator(design).run().value_of("x") == 8

    def test_out_param_to_array_element(self):
        get = Subprogram(
            "get",
            params=[Param("r", int_type(8), Direction.OUT)],
            stmt_body=[assign("r", 9)],
        )
        design = spec(
            "S",
            leaf("A", call("get", var("buf").index(1))),
            variables=[variable("buf", array_of(int_type(8), 3))],
            subprograms=[get],
        )
        design.validate()
        assert Simulator(design).run().value_of("buf") == (0, 9, 0)


class TestTraceAndInputs:
    def test_output_trace_records_writes_in_order(self):
        a = leaf("A", assign("o", 1), assign("o", 2), assign("o", 3))
        result = run_single(
            a, [variable("o", int_type(), init=0, role=Role.OUTPUT)]
        )
        assert [e.value for e in result.output_trace("o")] == [1, 2, 3]

    def test_unknown_input_rejected(self):
        design = figure1_specification()
        with pytest.raises(SimulationError):
            Simulator(design).run(inputs={"ghost": 1})

    def test_non_input_variable_rejected_as_input(self):
        design = figure1_specification()
        with pytest.raises(SimulationError):
            Simulator(design).run(inputs={"x": 1})

    def test_output_values(self):
        design = figure2_specification()
        design.validate()
        result = Simulator(design).run()
        outputs = result.output_values()
        assert set(outputs) == {"observed"}
        assert result.completed


class CountingProbe(Probe):
    def __init__(self):
        self.statements = 0
        self.reads = {}
        self.writes = {}
        self.started = []
        self.ended = []

    def on_statement(self, behavior, stmt, cost):
        self.statements += 1

    def on_read(self, behavior, variable):
        self.reads[(behavior, variable)] = self.reads.get((behavior, variable), 0) + 1

    def on_write(self, behavior, variable):
        self.writes[(behavior, variable)] = (
            self.writes.get((behavior, variable), 0) + 1
        )

    def on_behavior_start(self, behavior, time):
        self.started.append(behavior)

    def on_behavior_end(self, behavior, time):
        self.ended.append(behavior)


class TestProbe:
    def test_counts_reads_and_writes(self):
        probe = CountingProbe()
        a = leaf("A", assign("x", var("x") + var("y")))
        design = spec(
            "S",
            a,
            variables=[
                variable("x", int_type(), init=1),
                variable("y", int_type(), init=2),
            ],
        )
        Simulator(design, probe=probe).run()
        assert probe.reads[("A", "x")] == 1
        assert probe.reads[("A", "y")] == 1
        assert probe.writes[("A", "x")] == 1
        assert probe.statements == 1

    def test_loop_reads_counted_per_iteration(self):
        probe = CountingProbe()
        a = leaf("A", for_("i", 1, 4, [assign("s", var("s") + var("d"))]))
        design = spec(
            "S",
            a,
            variables=[
                variable("s", int_type(), init=0),
                variable("d", int_type(), init=1),
            ],
        )
        Simulator(design, probe=probe).run()
        assert probe.reads[("A", "d")] == 4
        assert probe.writes[("A", "s")] == 4

    def test_behavior_lifecycle_events(self):
        probe = CountingProbe()
        design = figure1_specification()
        Simulator(design, probe=probe).run()
        assert probe.started[0] == "Main"
        assert "A" in probe.started
        assert "Main" in probe.ended

    def test_transition_condition_reads_attributed_to_composite(self):
        probe = CountingProbe()
        design = figure1_specification()
        Simulator(design, probe=probe).run(inputs={"seed": 5})
        # the arc conditions A:(x>1,B), A:(x<1,C) are evaluated by
        # Main's sequencer after A completes
        assert probe.reads.get(("Main", "x"), 0) >= 1

    @pytest.mark.parametrize("compile_cache", [True, False])
    def test_concurrent_accesses_attributed_to_their_behavior(self, compile_cache):
        # A and B charge 1 ns per statement, so each resumes after the
        # other has charged; A's wait reads a variable and is
        # re-evaluated by the delta cycle B's signal write triggers
        deep = var("b_only")
        for _ in range(20):  # past the inlining depth: its own function
            deep = deep + 1
        design = spec(
            "Attr",
            conc(
                "Top",
                [
                    leaf(
                        "A",
                        assign("p", var("a_only") + 1),
                        wait_until(var("a_gate").eq(0).and_(var("flag").eq(1))),
                        assign("p", var("p") + 1),
                    ),
                    leaf(
                        "B",
                        assign("q", var("b_only") + 1),
                        assign("q", deep),
                        sassign("flag", 1),
                    ),
                ],
            ),
            variables=[
                variable(name, int_type(), init=0)
                for name in ("p", "q", "a_only", "b_only", "a_gate")
            ]
            + [signal("flag", int_type(), init=0)],
        )
        design.validate()
        probe = CountingProbe()
        result = Simulator(
            design, cost_fn=lambda b, s: 1e-9, probe=probe, compile_cache=compile_cache
        ).run()
        assert result.completed
        assert probe.reads == {
            ("A", "a_only"): 1,
            ("A", "a_gate"): 2,
            ("A", "p"): 1,
            ("B", "b_only"): 2,
        }
        assert probe.writes == {("A", "p"): 2, ("B", "q"): 2}


class TestCostFunction:
    def test_cost_fn_advances_time(self):
        design = figure1_specification()
        result = Simulator(design, cost_fn=lambda b, s: 1e-6).run()
        # A executes 1 stmt, B 2 stmts (seed=3 path) -> at least 3 us
        assert result.time >= 3e-6

    def test_zero_cost_keeps_time_zero(self):
        design = figure1_specification()
        result = Simulator(design).run()
        assert result.time == 0.0
