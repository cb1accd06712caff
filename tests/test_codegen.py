"""Generated statement-body functions (``repro.sim.codegen``).

The compiled simulator turns each statement body into one generated
Python function.  These tests pin what that promises beyond plain
parity: code objects shared across structurally identical bodies and
across simulators, no specification text in generated source, a
bounded code memo, no reference cycles, and walker parity for every
shape the generator inlines, with and without instrumentation.
"""

import gc
import io
import tokenize
import weakref

import pytest

from repro.apps.medical import (
    MEDICAL_INPUTS,
    all_designs,
    medical_specification,
)
from repro.errors import ReproError, SimulationError
from repro.models.impl_models import ALL_MODELS
from repro.refine.refiner import Refiner
from repro.sim import FaultInjector, FaultScenario, Probe, Simulator, codegen
from repro.spec.builder import (
    assign,
    call,
    conc,
    for_,
    if_,
    leaf,
    loop_forever,
    sassign,
    seq,
    skip,
    spec,
    transition,
    wait_for,
    wait_until,
)
from repro.spec.expr import BinOp, Const, UnaryOp, var
from repro.spec.stmt import For
from repro.spec.subprogram import Direction, Param, Subprogram
from repro.spec.types import BOOL, ArrayType, array_of, bits, int_type
from repro.spec.variable import Role, signal, variable
from repro.spec.visitor import walk_statements


def _refined(design="Design1", model_index=3):
    source = medical_specification()
    source.validate()
    partition = all_designs(source)[design]
    return Refiner(source, partition, ALL_MODELS[model_index]).run().spec


@pytest.fixture(scope="module")
def refined():
    return _refined()


class TestSharedCode:
    def test_bus_procedures_share_one_code_object(self, refined):
        simulator = Simulator(refined)
        simulator.run(inputs=dict(MEDICAL_INPUTS))
        subprograms = refined.subprograms
        _, send_b1 = simulator._bodies.subprogram(subprograms["MST_send_b1"])
        _, send_b2 = simulator._bodies.subprogram(subprograms["MST_send_b2"])
        assert send_b1 is not send_b2
        assert send_b1.__code__ is send_b2.__code__
        # each binds its own bus signals
        assert send_b1.__globals__ is not send_b2.__globals__

    def test_two_simulators_of_one_spec_share_all_code(self, refined):
        first, second = Simulator(refined), Simulator(refined)
        for simulator in (first, second):
            simulator.run(inputs=dict(MEDICAL_INPUTS))
        codes = [
            [fn.__code__ for fn in simulator._bodies.functions()]
            for simulator in (first, second)
        ]
        assert len(codes[0]) == len(codes[1]) > 0
        assert all(a is b for a, b in zip(*codes))
        # structurally identical bodies collapse: far fewer code
        # objects than generated functions
        assert len({id(code) for code in codes[0]}) < len(codes[0]) // 2

    def test_medical_cells_share_code_by_structure(self):
        # Frame positions are bound values, never source text, so bodies
        # of one structure share a code object whatever frames their
        # names bind to: the 24 simulators of the 12 refined medical
        # cells (each cell's original and refined model, default
        # stimulus) need at most 65.
        source = medical_specification()
        source.validate()
        codes = {}  # by identity: equal code objects may differ in source
        for partition in all_designs(source).values():
            for model in ALL_MODELS:
                refined = Refiner(source, partition, model).run().spec
                for design in (source, refined):
                    simulator = Simulator(design)
                    simulator.run(inputs=dict(MEDICAL_INPUTS))
                    for fn in simulator._bodies.functions():
                        codes[id(fn.__code__)] = fn.__code__
        assert len(codes) <= 65


def _spec_words(design):
    """Every identifier and literal a specification carries."""
    words = {design.name}
    for _, decl in design.all_declared_variables():
        words.add(decl.name)
    for behavior in design.behaviors():
        words.add(behavior.name)
    for sub in design.subprograms.values():
        words.add(sub.name)
        words.update(param.name for param in sub.params)
        words.update(decl.name for decl in sub.decls)
    bodies = [leaf_.stmt_body for leaf_ in design.leaf_behaviors()]
    bodies += [sub.stmt_body for sub in design.subprograms.values()]
    for body in bodies:
        for stmt in walk_statements(body):
            if isinstance(stmt, For):
                words.add(stmt.variable)
    return words


class TestGeneratedSource:
    @pytest.mark.parametrize("refined_design", [False, True])
    def test_no_spec_text_reaches_compile(self, refined, refined_design):
        design = refined if refined_design else medical_specification()
        codegen._CODE_MEMO.clear()
        Simulator(design).run(inputs=dict(MEDICAL_INPUTS))
        instrumented = Simulator(
            design, cost_fn=lambda behavior, stmt: 1e-9, probe=Probe()
        )
        instrumented.run(inputs=dict(MEDICAL_INPUTS))
        sources = list(codegen._CODE_MEMO)
        assert sources
        words = _spec_words(design)
        for source in sources:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
            names = {t.string for t in tokens if t.type == tokenize.NAME}
            assert not names & words, source
            # every constant is bound by name: the only literal is the
            # index of the value in a variable's slot, ``cell[1]``
            literals = [
                (tokens[i - 1].string, t.string, tokens[i + 1].string)
                for i, t in enumerate(tokens)
                if t.type in (tokenize.NUMBER, tokenize.STRING)
            ]
            assert set(literals) <= {("[", "1", "]")}, source

    def test_code_memo_stays_at_its_bound(self):
        bound = codegen.CODE_MEMO_SIZE
        for count in range(1, bound + 21):
            # ``count`` null statements: a distinct structure each
            design = spec(
                "T",
                leaf("A", *[skip() for _ in range(count)]),
                variables=[variable("x", int_type())],
            )
            Simulator(design).run()
            assert len(codegen._CODE_MEMO) <= bound
        assert len(codegen._CODE_MEMO) == bound
        newest = next(reversed(codegen._CODE_MEMO))
        assert newest.count("pass") == bound + 20


class TestReferenceCycles:
    """Nothing a run leaves behind needs the cyclic collector."""

    def _assert_freed(self, make_simulator, inputs):
        gc.collect()
        gc.disable()
        try:
            simulator = make_simulator()
            result = simulator.run(inputs=dict(inputs))
            refs = [weakref.ref(simulator), weakref.ref(result.kernel)]
            if simulator.compile_cache:
                generated = simulator._bodies.functions()
                assert generated
                refs += [weakref.ref(generated[0]), weakref.ref(generated[-1])]
                del generated
            del simulator, result
            assert [ref() is None for ref in refs] == [True] * len(refs)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("instrumented", [False, True])
    def test_generated_functions_freed_by_refcount(self, refined, instrumented):
        options = {}
        if instrumented:
            options = dict(cost_fn=lambda behavior, stmt: 1e-9, probe=Probe())
        self._assert_freed(
            lambda: Simulator(refined, **options), MEDICAL_INPUTS
        )

    @pytest.mark.parametrize("compile_cache", [True, False])
    @pytest.mark.parametrize("woken", [False, True])
    def test_scoped_wait_frees_kernel(self, woken, compile_cache):
        # ``s`` is a variable in Local, so Waiter's ``wait until s = 1``
        # resolves per env.  Unless Setter raises the signal, Waiter is
        # still blocked on its per-env request when the run ends; when
        # it is woken, the request stays memoised on Waiter's env.
        waiter = leaf("Waiter", wait_until(var("s").eq(1)), assign("y", 1))
        waiter.daemon = True
        setter = leaf("Setter", wait_for(1), sassign("s", 1 if woken else 0))
        local = leaf(
            "Local", assign("s", 2), decls=[variable("s", int_type(), init=0)]
        )
        design = spec(
            "T",
            conc("Top", [local, setter, waiter]),
            variables=[
                signal("s", bits(1), init=0),
                variable("y", int_type(), role=Role.OUTPUT),
            ],
        )
        design.validate()
        result = Simulator(design, compile_cache=compile_cache).run()
        assert result.completed
        assert result.blocked() == ([] if woken else ["Waiter"])
        assert result.value_of("y") == (1 if woken else 0)
        self._assert_freed(
            lambda: Simulator(design, compile_cache=compile_cache), {}
        )


class TestActivation:
    """A behavior is entered — its frame created and registered — when
    its process first runs, on every path."""

    @pytest.mark.parametrize("composite", [False, True])
    @pytest.mark.parametrize("probe", [False, True])
    def test_process_killed_before_first_activation_has_no_frame(
        self, composite, probe
    ):
        port = leaf(
            "MemPort" if composite else "Mem",
            loop_forever([wait_until(var("s").eq(1)), assign("m", 7)]),
            decls=[] if composite else [variable("m", int_type(), init=5)],
        )
        memory = (
            conc("Mem", [port], decls=[variable("m", int_type(), init=5)])
            if composite
            else port
        )
        memory.daemon = True
        design = spec(
            "T",
            conc("Top", [leaf("Worker", assign("y", 1)), memory]),
            variables=[
                signal("s", bits(1), init=0),
                variable("y", int_type(), role=Role.OUTPUT),
            ],
        )
        design.validate()
        snapshots = []
        for compile_cache in (True, False):
            injector = FaultInjector(
                [FaultScenario(name="kill", kind="kill", target="Mem", count=1)]
            )
            result = Simulator(
                design,
                compile_cache=compile_cache,
                probe=Probe() if probe else None,
            ).run(injector=injector)
            assert result.completed and result.value_of("y") == 1
            with pytest.raises(SimulationError, match="has no frame"):
                result.frame_snapshot("Mem")
            snapshots.append(result.frame_snapshot("Worker"))
        assert snapshots[0] == snapshots[1]


# -- walker parity for every inlined shape --------------------------------------


class _Recorder(Probe):
    def __init__(self):
        self.events = []

    def on_statement(self, behavior, stmt, cost):
        self.events.append(("stmt", behavior, str(stmt), cost))

    def on_read(self, behavior, variable):
        self.events.append(("read", behavior, variable))

    def on_write(self, behavior, variable):
        self.events.append(("write", behavior, variable))


def _outcome(design, compile_cache, instrumented, inputs=None):
    probe = _Recorder() if instrumented else None
    options = {}
    if instrumented:
        options = dict(cost_fn=lambda behavior, stmt: 2e-9, probe=probe)
    try:
        result = Simulator(design, compile_cache=compile_cache, **options).run(
            inputs=dict(inputs or {})
        )
    except ReproError as exc:
        observed = ("error", type(exc).__name__, str(exc))
    else:
        observed = (
            result.completed,
            result.steps,
            result.time,
            sorted(result.output_values().items()),
            [(e.step, e.variable, e.value) for e in result.trace],
        )
    return observed, probe.events if probe is not None else None


def _assert_parity(design, inputs=None):
    outcomes = []
    for instrumented in (False, True):
        compiled = _outcome(design, True, instrumented, inputs)
        walked = _outcome(design, False, instrumented, inputs)
        assert compiled == walked, instrumented
        outcomes.append(compiled[0])
    return outcomes[0]


def _design(*stmts, subprograms=(), signals=()):
    return spec(
        "T",
        leaf("A", *stmts),
        variables=[
            variable("x", int_type(8), init=3),
            variable("y", int_type(8), role=Role.OUTPUT),
            variable("big", int_type(16), init=1000),
            variable("flag", BOOL, init=True),
            variable("arr", array_of(int_type(8), 4)),
            *signals,
        ],
        subprograms=subprograms,
    )


def _pair():
    """``pair(a, b)``: copies ``a + b`` into the output ``y``."""
    return Subprogram(
        "pair",
        params=[
            Param("a", int_type(8)),
            Param("b", int_type(8)),
            Param("r", int_type(8), Direction.OUT),
        ],
        stmt_body=[assign("r", var("a") + var("b"))],
    )


class TestInlinedShapeParity:
    def test_comparison_with_boolean_left_operand(self):
        # (x = 3) is True: not a number, so the inlined check must
        # raise the walker's message
        cmp = BinOp(">", BinOp("=", var("x"), Const(3)), Const(0))
        outcome = _assert_parity(_design(if_(cmp, [assign("y", 1)])))
        assert outcome[0] == "error"
        assert "arithmetic on non-integer True" in outcome[2]

    def test_arithmetic_on_boolean_variable(self):
        outcome = _assert_parity(
            _design(assign("y", BinOp("+", var("flag"), Const(1))))
        )
        assert "arithmetic on non-integer True" in outcome[2]

    def test_comparison_against_constant_in_range(self):
        outcome = _assert_parity(
            _design(
                if_(BinOp(">=", var("x") + 2, Const(5)), [assign("y", 1)]),
                if_(BinOp("<", var("x") * 3, Const(9)), [assign("y", 2)]),
            )
        )
        assert outcome[3] == [("y", 1)]

    @pytest.mark.parametrize("value", [40, -3, 15, True])
    def test_out_of_range_signal_write(self, value):
        # a non-constant value: the write coerces it like the walker
        design = _design(
            assign("big", value),
            sassign("s", var("big")),
            wait_for(1),
            assign("y", var("s")),
            signals=[signal("s", bits(4), init=0)],
        )
        outcome = _assert_parity(design)
        assert outcome[3] == [("y", int(value) % 16)]

    def test_untypable_signal_write(self):
        design = _design(
            sassign("s", var("arr")),
            signals=[signal("s", bits(4), init=0)],
        )
        outcome = _assert_parity(design)
        assert "cannot coerce" in outcome[2]

    def test_copy_in_coercion_fails_before_next_argument(self):
        # the first argument (an array) cannot become an integer; the
        # second would divide by zero — copy-in must fail on the first
        design = _design(
            call("pair", var("arr"), var("x") / 0, var("y")),
            subprograms=[_pair()],
        )
        outcome = _assert_parity(design)
        assert "cannot coerce" in outcome[2]
        assert "division" not in outcome[2]

    def test_second_argument_error_after_first_coerced(self):
        design = _design(
            call("pair", var("big"), var("x") / 0, var("y")),
            subprograms=[_pair()],
        )
        outcome = _assert_parity(design)
        assert "division by zero" in outcome[2]

    def test_bad_array_index_in_call_argument(self):
        design = _design(
            call("pair", var("arr").index(5), 1, var("y")),
            subprograms=[_pair()],
        )
        outcome = _assert_parity(design)
        assert "index 5 out of range for arr" in outcome[2]

    def test_misfit_constant_argument_fails_when_called(self):
        design = _design(
            assign("y", 7),
            if_(var("x").eq(0), [call("pair", Const("nope"), 1, var("y"))]),
            subprograms=[_pair()],
        )
        assert _assert_parity(design)[3] == [("y", 7)]

    @pytest.mark.parametrize(
        "x, expected", [(2, [("y", 1)]), (0, [("y", 2)])]
    )
    def test_and_over_non_boolean_ints(self, x, expected):
        design = _design(
            assign("x", x),
            if_(BinOp("and", var("x"), Const(3)), [assign("y", 1)], [assign("y", 2)]),
            if_(UnaryOp("not", BinOp("or", var("x"), Const(0))), [assign("y", 2)]),
        )
        assert _assert_parity(design)[3] == expected

    def test_and_over_non_condition_value(self):
        design = _design(
            if_(BinOp("and", var("x"), var("arr")), [assign("y", 1)]),
        )
        outcome = _assert_parity(design)
        assert "is not a condition value" in outcome[2]


# -- names bound at generation: walker parity per binding shape ----------------


class TestStaticBinding:
    """Every name is bound to its frame (or the signal store) when the
    code is generated; each case pins that to the walker, with and
    without a probe (outputs, trace, steps and every read/write hook)."""

    def test_names_bound_in_leaf_parent_and_globally(self):
        # ``g`` is global, ``p`` the parent's, ``u`` the leaf's; ``s`` is
        # declared at all three levels, so the leaf's own ``s`` wins
        body = leaf(
            "A",
            assign("u", var("g") + 1),
            assign("p", var("u") * 2),
            assign("s", var("p") + var("s")),
            assign("g", var("p") + var("u")),
            assign("y", var("g") + var("p") * 10 + var("s") * 100),
            decls=[variable("u", int_type(8)), variable("s", int_type(8), init=3)],
        )
        after = leaf("B", assign("z", var("s") + var("p")))
        parent = seq(
            "P",
            [body, after],
            transitions=[transition("A", None, "B")],
            decls=[variable("p", int_type(8), init=1), variable("s", int_type(8), init=5)],
        )
        design = spec(
            "T",
            parent,
            variables=[
                variable("g", int_type(8), init=4),
                variable("s", int_type(8), init=7),
                variable("y", int_type(16), role=Role.OUTPUT),
                variable("z", int_type(16), role=Role.OUTPUT),
            ],
        )
        design.validate()
        outcome = _assert_parity(design)
        # u = 5, p = 10, leaf s = 13, g = 15; B sees P's s = 5
        assert outcome[3] == [("y", 15 + 100 + 1300), ("z", 15)]

    def test_loop_variable_shadows_global(self):
        design = _design(
            assign("y", 0),
            for_("x", 1, 3, [assign("y", var("y") + var("x"))]),
            assign("y", var("y") * 10 + var("x")),
        )
        # the global x (3) is untouched by the loop over x = 1..3
        assert _assert_parity(design)[3] == [("y", 63)]

    def test_subprogram_local_shadows_global(self):
        bump = Subprogram(
            "bump",
            params=[Param("a", int_type(8)), Param("r", int_type(8), Direction.OUT)],
            decls=[variable("x", int_type(8), init=20)],
            stmt_body=[
                assign("x", var("x") + var("a")),
                assign("r", var("x") + var("big")),
            ],
        )
        design = _design(
            call("bump", var("x"), var("y")),
            assign("y", var("y") + var("x")),
            subprograms=[bump],
        )
        # local x = 20 + 3; r = 23 + 1000 wraps in int<8>; global x stays 3
        assert _assert_parity(design)[3] == [("y", (1023 + 128) % 256 - 128 + 3)]

    def test_local_replaces_out_parameter(self):
        # the callee's local r (int<16>) replaces its out parameter r
        # (int<8>): the copied-out 1000 is coerced into y's int<8>
        widen = Subprogram(
            "widen",
            params=[Param("r", int_type(8), Direction.OUT)],
            decls=[variable("r", int_type(16), init=1000)],
            stmt_body=[skip()],
        )
        design = _design(call("widen", var("y")), subprograms=[widen])
        assert _assert_parity(design)[3] == [("y", -24)]

    def test_leaf_signal_beside_ancestor_variable(self):
        # the leaf declares a *signal* s; frames hold no signals, so its
        # name reads resolve to the parent's variable s
        body = leaf(
            "A",
            sassign("s", 9),
            wait_for(1),
            assign("y", var("s") + 1),
            wait_until(var("s").eq(2)),
            assign("y", var("y") + var("s")),
            decls=[signal("s", int_type(8), init=0)],
        )
        parent = seq("P", [body], decls=[variable("s", int_type(8), init=2)])
        design = spec(
            "T", parent, variables=[variable("y", int_type(8), role=Role.OUTPUT)]
        )
        design.validate()
        assert _assert_parity(design)[3] == [("y", 5)]

    def test_condition_shared_by_composites_of_different_scopes(self):
        # one condition node: the first composite binds k locally (1),
        # the second reads the global k (0)
        shared = var("k").eq(1)

        def stage(name, decls):
            return seq(
                name,
                [
                    leaf(name + "_a", skip()),
                    leaf(name + "_yes", assign("y", var("y") * 10 + 1)),
                    leaf(name + "_no", assign("y", var("y") * 10 + 2)),
                ],
                transitions=[
                    transition(name + "_a", shared, name + "_yes"),
                    transition(name + "_a", None, name + "_no"),
                    transition(name + "_yes", None, None),
                ],
                decls=decls,
            )

        top = seq(
            "Top",
            [stage("L", [variable("k", int_type(8), init=1)]), stage("G", [])],
            transitions=[transition("L", None, "G")],
        )
        design = spec(
            "T",
            top,
            variables=[
                variable("k", int_type(8), init=0),
                variable("y", int_type(16), role=Role.OUTPUT),
            ],
        )
        design.validate()
        assert _assert_parity(design)[3] == [("y", 12)]

    def test_expression_just_past_max_inline(self):
        def deep(operand):
            # operand + x, then +1 -1 ... : one level past the inline limit
            expr = BinOp("+", operand, var("x"))
            for level in range(codegen._MAX_INLINE + 1):
                expr = BinOp("-" if level % 2 else "+", expr, Const(1))
            return expr

        design = _design(
            assign("y", 0),
            for_("i", 1, 2, [assign("y", var("y") + deep(var("i")))]),
            wait_until(BinOp(">", deep(var("y")), var("x"))),
            assign("y", deep(var("y"))),
        )
        # (1 + 3 + 1) + (2 + 3 + 1), then 11 + 3 + 1
        assert _assert_parity(design)[3] == [("y", 15)]

    def test_body_just_past_max_nesting(self):
        inner = [
            assign("y", var("y") + var("i") * 10 + var("n")),
            wait_for(1),
            assign("n", var("n") + 1),
        ]
        for _ in range(codegen._MAX_NESTING + 1):
            inner = [if_(var("flag"), inner)]
        design = spec(
            "T",
            leaf(
                "A",
                assign("y", 0),
                for_("i", 1, 2, inner),
                assign("y", var("y") + var("n")),
                decls=[variable("n", int_type(8), init=1)],
            ),
            variables=[
                variable("flag", BOOL, init=True),
                variable("y", int_type(16), role=Role.OUTPUT),
            ],
        )
        outcome = _assert_parity(design)
        assert outcome[3] == [("y", 11 + 22 + 3)]


class TestArrayElementWrite:
    """An element write coerces only the written element, on both paths."""

    def _design(self, value):
        return _design(
            assign(var("arr").index(var("x") - 2), value),
            assign("y", var("arr").index(1)),
        )

    @pytest.mark.parametrize("compile_cache", [True, False])
    def test_only_the_element_is_coerced(self, monkeypatch, compile_cache):
        design = self._design(300)
        calls = []
        coerce = ArrayType.coerce

        def spy(self, value):
            calls.append(value)
            return coerce(self, value)

        monkeypatch.setattr(ArrayType, "coerce", spy)
        result = Simulator(design, compile_cache=compile_cache).run()
        assert calls == []
        # 300 wraps into the int<8> element
        assert result.value_of("arr") == (0, 44, 0, 0)
        assert result.output_values()["y"] == 44

    def test_misfit_element_parity(self):
        outcome = _assert_parity(self._design(var("arr")))
        assert outcome[0] == "error" and "cannot coerce" in outcome[2]
