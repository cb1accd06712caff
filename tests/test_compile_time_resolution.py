"""Compile-time name resolution in the compiled simulator.

The compiled fast path binds every name when it generates a body: a
name that no frame of the body's scope declares reads the signal store,
a ``wait until`` that reads only signals is one request reused for the
simulator's lifetime, and signal assignments take their dtype (and a
constant right-hand side its coerced value) at compile time.  Every test here pins the compiled path to the reference
tree walker (``compile_cache=False``): outputs, output trace, steps,
simulated time and error text must match.
"""

import gc
import json
import pathlib
import weakref

import pytest

from repro.apps.medical import (
    MEDICAL_INPUTS,
    all_designs,
    medical_specification,
)
from repro.errors import ReproError, SimulationError
from repro.exec.campaigns import sweep_inputs
from repro.models.impl_models import ALL_MODELS
from repro.refine.refiner import Refiner
from repro.sim import Probe, Simulator
from repro.sim.eval import Env, evaluate, truthy
from repro.sim.kernel import Kernel
from repro.spec.builder import (
    assign,
    call,
    conc,
    if_,
    leaf,
    loop_forever,
    sassign,
    spec,
    wait_for,
    wait_until,
)
from repro.spec.expr import BinOp, Const, UnaryOp, VarRef, const, var
from repro.spec.subprogram import Direction, Param, Subprogram
from repro.spec.types import BIT, BOOL, array_of, int_type
from repro.spec.variable import Role, signal, variable

OUTPUT_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "output"


def _outcome(design, inputs=None, compile_cache=True, **options):
    """Everything observable about one run, or the error it raised."""
    try:
        result = Simulator(design, compile_cache=compile_cache, **options).run(
            inputs=dict(inputs or {})
        )
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))
    return (
        result.completed,
        result.steps,
        result.time,
        sorted(result.output_values().items()),
        [(e.step, e.variable, e.value) for e in result.trace],
    )


def _assert_parity(design, inputs=None):
    compiled = _outcome(design, inputs, compile_cache=True)
    walked = _outcome(design, inputs, compile_cache=False)
    assert compiled == walked
    return compiled


def _medical_refined(design="Design1", model_index=3):
    source = medical_specification()
    source.validate()
    partition = all_designs(source)[design]
    return Refiner(source, partition, ALL_MODELS[model_index]).run()


class TestArrayIndexWrites:
    """Element writes reject a boolean or non-integer index with the
    read path's message, on both execution paths."""

    def _design(self, *stmts, subprograms=()):
        return spec(
            "T",
            leaf("A", *stmts),
            variables=[
                variable("a", array_of(int_type(8), 4)),
                variable("x", int_type(), role=Role.OUTPUT),
            ],
            subprograms=subprograms,
        )

    @pytest.mark.parametrize("compile_cache", [True, False])
    def test_boolean_index_write_is_rejected(self, compile_cache):
        design = self._design(
            assign(var("a").index(const(1).eq(1)), 7),
        )
        with pytest.raises(SimulationError) as excinfo:
            Simulator(design, compile_cache=compile_cache).run()
        assert "array index True is not an integer" in str(excinfo.value)

    @pytest.mark.parametrize("compile_cache", [True, False])
    def test_write_message_matches_read_message(self, compile_cache):
        read = self._design(assign("x", var("a").index(const(1).eq(1))))
        write = self._design(assign(var("a").index(const(1).eq(1)), 7))
        assert (
            _outcome(read, compile_cache=compile_cache)
            == _outcome(write, compile_cache=compile_cache)
        )

    @pytest.mark.parametrize("compile_cache", [True, False])
    def test_boolean_index_copy_out_is_rejected(self, compile_cache):
        fill = Subprogram(
            "fill",
            params=[Param("v", int_type(8), Direction.OUT)],
            stmt_body=[assign("v", 3)],
        )
        design = self._design(
            call("fill", var("a").index(const(2).eq(2))),
            subprograms=[fill],
        )
        outcome = _outcome(design, compile_cache=compile_cache)
        assert outcome == (
            "error",
            "SimulationError",
            "runtime: array index True is not an integer",
        )

    def test_integer_index_write_still_works(self):
        design = self._design(
            assign(var("a").index(const(2)), 9),
            assign("x", var("a").index(2)),
        )
        assert _assert_parity(design)[3] == [("x", 9)]


def _signal_cases():
    a, b, c = VarRef("a"), VarRef("b"), VarRef("c")

    def eq(ref, value, op="="):
        return BinOp(op, ref, Const(value))

    def chain(op, *terms):
        expr = terms[0]
        for term in terms[1:]:
            expr = BinOp(op, expr, term)
        return expr

    return [
        eq(a, 1),
        eq(b, 0, "/="),
        # the arbiter shape: a chain of ``signal = constant``
        chain("or", eq(a, 1), eq(b, 1), eq(c, 1)),
        chain("and", eq(a, 1), eq(b, 0), eq(c, 1)),
        chain("or", eq(a, 0, "/="), eq(b, 1), eq(c, 1, "/=")),
        chain("and", eq(a, 0, "/="), eq(b, 1, "/="), eq(c, 1)),
        # mixed terms: comparisons, nested chains, a non-boolean term
        chain("or", eq(a, 1), BinOp(">", c, Const(1)), eq(b, 1)),
        chain("and", BinOp("<=", a, Const(1)), chain("or", eq(b, 1), eq(c, 2)),
              eq(a, 1)),
        chain("or", eq(a, 2), b, eq(c, 2)),
        BinOp("and", eq(a, 1), BinOp("or", eq(b, 1), eq(c, 0))),
        # shapes the generated predicate does not inline: value
        # helpers with the walker's checks, then ``truthy``
        BinOp("-", a, b),
        BinOp(">", BinOp("/", a, c), b),
        BinOp("=", BinOp("mod", b, c), Const(0)),
        BinOp("<", UnaryOp("-", a), UnaryOp("abs", BinOp("-", b, c))),
        BinOp(">=", BinOp("+", a, Const(1)), BinOp("*", c, Const(2))),
        UnaryOp("not", BinOp("or", a, eq(b, 1))),
        BinOp("=", a, Const(True)),
        BinOp(">", Const(True), a),
    ]


class TestSignalExprCompiler:
    """Static wait predicates — one generated function over the signal
    store, with flattened chains — evaluate exactly like the walker's
    ``truthy(evaluate(cond, env))``, and the same expression as a
    generated value gives the walker's value."""

    @pytest.mark.parametrize("expr", _signal_cases(), ids=str)
    def test_parity_over_every_assignment(self, expr):
        design = spec(
            "P",
            leaf("A", wait_until(expr)),
            variables=[signal(name, int_type(4)) for name in "abc"],
        )
        simulator = Simulator(design)
        bodies = simulator._bodies
        predicate = bodies.static_wait(expr, bodies.scope.frames).predicate
        for a in (0, 1, 2):
            for b in (0, 1):
                for c in (0, 1, 2):
                    kernel = Kernel()
                    for name, value in (("a", a), ("b", b), ("c", c)):
                        kernel.register_signal(name, value)
                    env = Env(kernel, ())
                    simulator._state.kernel = kernel
                    simulator._state.signals = kernel._signals
                    walker = _value_or_error(lambda: truthy(evaluate(expr, env)))
                    got = _value_or_error(predicate)
                    assert got == walker, (a, b, c)
                    assert type(got) is type(walker)
                    expected = _value_or_error(lambda: evaluate(expr, env))
                    assert _generated_value(expr, (a, b, c)) == expected


def _generated_value(expr, values):
    """``expr`` over signals ``a, b, c`` holding ``values``, as the
    value a generated one-statement leaf stores (both paths agree)."""
    outcomes = []
    for compile_cache in (True, False):
        design = spec(
            "V",
            leaf("A", assign("out", expr)),
            variables=[
                *(signal(n, int_type(4), init=v) for n, v in zip("abc", values)),
                variable("out", int_type(32), role=Role.OUTPUT),
            ],
        )
        outcomes.append(
            _value_or_error(
                lambda: Simulator(design, compile_cache=compile_cache).run().trace[0].value
            )
        )
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


def _value_or_error(thunk):
    try:
        return thunk()
    except SimulationError as exc:
        return ("error", str(exc))


class TestShadowedSignals:
    """A signal name some frame can bind keeps per-scope resolution."""

    def test_behavior_local_variable_shadows_signal(self):
        producer = leaf("Producer", wait_for(1), sassign("s", 1))
        # the local ``s`` (5) satisfies this wait at once: it must not
        # be compiled as a wait on the global signal ``s``
        local = leaf(
            "Local",
            wait_until(var("s").eq(5)),
            assign("out_local", var("s")),
            decls=[variable("s", int_type(), init=5)],
        )
        remote = leaf(
            "Remote",
            wait_until(var("s").eq(1)),
            assign("out_remote", var("s")),
        )
        design = spec(
            "T",
            conc("Top", [producer, local, remote]),
            variables=[
                signal("s", BIT, init=0),
                variable("out_local", int_type(), role=Role.OUTPUT),
                variable("out_remote", int_type(), role=Role.OUTPUT),
            ],
        )
        completed, _, time, outputs, trace = _assert_parity(design)
        assert completed
        assert dict(outputs) == {"out_local": 5, "out_remote": 1}
        # the local waiter finished before the producer's delay elapsed
        assert trace[0][1] == "out_local"
        assert time > 0

    def test_subprogram_parameter_shadows_signal(self):
        # ``s`` is the parameter inside ``wait_param`` and the global
        # signal inside ``wait_signal``
        wait_param = Subprogram(
            "wait_param",
            params=[
                Param("s", int_type()),
                Param("seen", int_type(), Direction.OUT),
            ],
            stmt_body=[wait_until(var("s").eq(3)), assign("seen", var("s"))],
        )
        wait_signal = Subprogram(
            "wait_signal",
            params=[Param("seen", int_type(), Direction.OUT)],
            stmt_body=[wait_until(var("s").eq(1)), assign("seen", var("s"))],
        )
        design = spec(
            "T",
            conc(
                "Top",
                [
                    leaf("Producer", wait_for(2), sassign("s", 1)),
                    leaf("ByParam", call("wait_param", 3, "out_param")),
                    leaf("BySignal", call("wait_signal", "out_signal")),
                ],
            ),
            variables=[
                signal("s", BIT, init=0),
                variable("out_param", int_type(), role=Role.OUTPUT),
                variable("out_signal", int_type(), role=Role.OUTPUT),
            ],
            subprograms=[wait_param, wait_signal],
        )
        completed, _, _, outputs, _ = _assert_parity(design)
        assert completed
        assert dict(outputs) == {"out_param": 3, "out_signal": 1}


def _shared_wait_design():
    """Two processes suspended at once on the one static ``wait until``
    of a shared procedure, released together by a third."""
    await_go = Subprogram(
        "await_go",
        params=[Param("tag", int_type()), Param("got", int_type(), Direction.OUT)],
        stmt_body=[wait_until(var("go").eq(1)), assign("got", var("tag"))],
    )
    return spec(
        "T",
        conc(
            "Top",
            [
                leaf("First", call("await_go", var("n"), "out1")),
                leaf("Second", call("await_go", var("n") + 1, "out2")),
                leaf("Starter", wait_for(3), sassign("go", 1)),
            ],
        ),
        variables=[
            variable("n", int_type(), init=10, role=Role.INPUT),
            variable("out1", int_type(), role=Role.OUTPUT),
            variable("out2", int_type(), role=Role.OUTPUT),
            signal("go", BIT, init=0),
        ],
        subprograms=[await_go],
    )


class TestStaticWaits:
    def test_two_processes_on_one_static_wait(self):
        design = _shared_wait_design()
        completed, _, _, outputs, _ = _assert_parity(design, {"n": 10})
        assert completed
        assert dict(outputs) == {"out1": 10, "out2": 11}

    def test_both_waiters_block_on_the_shared_request(self):
        design = _shared_wait_design()
        # no starter: both callers stay suspended on the same condition
        design.top.subs = design.top.subs[:2]
        design.link()
        result = Simulator(design).run(inputs={"n": 1})
        report = {
            info.name: (info.wait, info.detail, list(info.sensitivity))
            for info in result.kernel.blocked_report()
        }
        assert report["First"] == report["Second"] == (
            "condition", "until (go = 1)", ["go"],
        )
        assert _outcome(design, {"n": 1}) == _outcome(
            design, {"n": 1}, compile_cache=False
        )

    def test_reuse_a_then_b_matches_fresh_b(self):
        design = _shared_wait_design()
        reused = Simulator(design)
        reused.run(inputs={"n": 4})
        second = reused.run(inputs={"n": 7})
        fresh = Simulator(design).run(inputs={"n": 7})
        assert second.steps == fresh.steps
        assert second.time == fresh.time
        assert second.output_values() == fresh.output_values() == {
            "out1": 7, "out2": 8,
        }

    def test_reuse_on_refined_medical_design(self):
        design = _medical_refined()
        stimulus_a = sweep_inputs(design.spec, 1, dict(MEDICAL_INPUTS))
        stimulus_b = sweep_inputs(design.spec, 2, dict(MEDICAL_INPUTS))
        reused = Simulator(design.spec)
        reused.run(inputs=dict(stimulus_a))
        second = reused.run(inputs=dict(stimulus_b))
        fresh = Simulator(design.spec, compile_cache=False).run(
            inputs=dict(stimulus_b)
        )
        assert second.completed == fresh.completed
        assert second.steps == fresh.steps
        assert second.time == fresh.time
        assert second.output_values() == fresh.output_values()
        assert [(e.step, e.variable, e.value) for e in second.trace] == [
            (e.step, e.variable, e.value) for e in fresh.trace
        ]

    def test_server_loop_over_static_waits(self):
        server = leaf(
            "Server",
            loop_forever([
                wait_until(
                    var("req").eq(1).or_(var("alt").eq(1)).or_(var("req").eq(1))
                ),
                sassign("ack", 1),
                wait_until(
                    var("req").eq(0).and_(var("alt").eq(0)).and_(var("ack").eq(1))
                ),
                sassign("ack", 0),
            ]),
        )
        server.daemon = True
        client = leaf(
            "Client",
            sassign("req", 1),
            wait_until(var("ack").eq(1)),
            assign("got", var("got") + 1),
            sassign("req", 0),
            wait_until(var("ack").eq(0)),
            sassign("alt", 1),
            wait_until(var("ack").eq(1)),
            assign("got", var("got") + 1),
            sassign("alt", 0),
        )
        design = spec(
            "T",
            conc("Top", [server, client]),
            variables=[
                variable("got", int_type(), role=Role.OUTPUT),
                signal("req", BIT, init=0),
                signal("alt", BIT, init=0),
                signal("ack", BIT, init=0),
            ],
        )
        completed, _, _, outputs, _ = _assert_parity(design)
        assert completed
        assert dict(outputs) == {"got": 2}


class TestRecursiveCalls:
    """A call compiled while its callee is still compiling binds the
    callee body when it executes."""

    @pytest.mark.parametrize("waits", [False, True])
    def test_recursive_procedure(self, waits):
        step = [wait_for(1)] if waits else []
        down = Subprogram(
            "down",
            params=[
                Param("n", int_type()),
                Param("acc", int_type(), Direction.INOUT),
            ],
            stmt_body=[
                if_(
                    var("n") > 0,
                    [
                        call("down", var("n") - 1, "acc"),
                        assign("acc", var("acc") + var("n")),
                    ]
                    + step,
                )
            ],
        )
        design = spec(
            "T",
            leaf("A", call("down", 5, "out")),
            variables=[variable("out", int_type(), role=Role.OUTPUT)],
            subprograms=[down],
        )
        completed, _, time, outputs, _ = _assert_parity(design)
        assert completed
        assert dict(outputs) == {"out": 15}
        assert (time > 0) == waits


class TestCompileTimeSignalTyping:
    def _design(self, value):
        return spec(
            "T",
            leaf(
                "A",
                if_(var("x").eq(1), [sassign("flag", value)]),
                assign("y", 1),
            ),
            variables=[
                variable("x", int_type(), role=Role.INPUT),
                variable("y", int_type(), role=Role.OUTPUT),
                signal("flag", BOOL, init=False),
            ],
        )

    def test_misfit_constant_fails_only_when_executed(self):
        design = self._design(7)
        # compiling the body (a run that skips the assignment) succeeds
        skipped = _assert_parity(design, {"x": 0})
        assert skipped[3] == [("y", 1)]
        failed = _assert_parity(design, {"x": 1})
        assert failed[0] == "error"
        assert "cannot coerce 7 to boolean" in failed[2]

    def test_misfit_constant_fails_on_every_execution(self):
        simulator = Simulator(self._design(7))
        for _ in range(2):
            with pytest.raises(SimulationError, match="cannot coerce 7"):
                simulator.run(inputs={"x": 1})

    def test_fitting_constant_is_coerced(self):
        design = self._design(1)
        result = Simulator(design).run(inputs={"x": 1})
        assert result.value_of("flag") is True
        assert _assert_parity(design, {"x": 1})[3] == [("y", 1)]


class _Recorder(Probe):
    def __init__(self):
        self.events = []

    def on_statement(self, behavior, stmt, cost):
        self.events.append(("stmt", behavior, str(stmt), cost))

    def on_read(self, behavior, variable):
        self.events.append(("read", behavior, variable))

    def on_write(self, behavior, variable):
        self.events.append(("write", behavior, variable))

    def on_behavior_start(self, behavior, time):
        self.events.append(("start", behavior, time))

    def on_behavior_end(self, behavior, time):
        self.events.append(("end", behavior, time))


class TestInstrumentedPath:
    def test_probe_and_cost_fn_match_the_walker(self):
        design = _medical_refined("Design2", 1)
        runs = []
        for compile_cache in (True, False):
            probe = _Recorder()
            result = Simulator(
                design.spec,
                cost_fn=lambda behavior, stmt: 1e-9,
                probe=probe,
                compile_cache=compile_cache,
            ).run(inputs=dict(MEDICAL_INPUTS))
            runs.append((
                result.completed,
                result.steps,
                result.time,
                result.output_values(),
                probe.events,
            ))
        assert runs[0] == runs[1]

    def test_profile_report_matches_committed_artifact(self):
        from repro.experiments.profiling import run_profile

        source = medical_specification()
        source.validate()
        report = run_profile(
            source,
            all_designs(source)["Design1"],
            model="Model2",
            protocol="handshake",
            design="Design1",
        )
        committed = json.loads((OUTPUT_DIR / "profile.json").read_text())
        assert _untimed(json.loads(report.as_json())) == _untimed(committed)


def _untimed(value):
    """A profile report without its measured (wall-clock) numbers."""
    if isinstance(value, dict):
        return {
            key: _untimed(item)
            for key, item in value.items()
            if "seconds" not in key
        }
    if isinstance(value, list):
        return [_untimed(item) for item in value]
    return value


class TestReferenceCounting:
    """A finished simulator and its last kernel are freed without the
    cyclic garbage collector."""

    @pytest.mark.parametrize("refined", [False, True])
    def test_simulator_and_kernel_freed_by_refcount(self, refined):
        design = (
            _medical_refined().spec if refined else medical_specification()
        )
        gc.collect()
        gc.disable()
        try:
            simulator = Simulator(design)
            simulator.run(inputs=dict(MEDICAL_INPUTS))
            result = simulator.run(inputs=dict(MEDICAL_INPUTS))
            assert result.completed
            refs = (weakref.ref(simulator), weakref.ref(result.kernel))
            del simulator, result
            assert [ref() is None for ref in refs] == [True, True]
        finally:
            gc.enable()

    def test_blocked_report_survives_closing(self):
        design = _medical_refined()
        result = Simulator(design.spec).run(inputs=dict(MEDICAL_INPUTS))
        blocked = result.blocked()
        assert blocked  # the daemon servers
        report = result.kernel.blocked_report()
        assert {info.name for info in report} == set(blocked)
        assert all(info.wait == "condition" for info in report)
