"""Fault-injection layer: scenarios, injector, kernel hooks, and the
dropped-acknowledge acceptance path."""

import pytest

from repro.errors import DeadlockError, FaultConfigError
from repro.sim.faults import FaultEvent, FaultInjector, FaultScenario
from repro.sim.kernel import Kernel, WaitCondition, WaitDelay


class TestScenarioValidation:
    def test_unknown_kind(self):
        with pytest.raises(FaultConfigError, match="unknown fault kind"):
            FaultScenario(name="x", kind="explode", target="*")

    def test_count_must_be_positive(self):
        with pytest.raises(FaultConfigError, match="count"):
            FaultScenario(name="x", kind="drop", target="*", count=0)

    def test_probability_range(self):
        with pytest.raises(FaultConfigError, match="probability"):
            FaultScenario(name="x", kind="drop", target="*", probability=0.0)
        with pytest.raises(FaultConfigError, match="probability"):
            FaultScenario(name="x", kind="drop", target="*", probability=1.5)

    def test_delay_kinds_need_delay(self):
        with pytest.raises(FaultConfigError, match="positive delay"):
            FaultScenario(name="x", kind="delay", target="*")
        with pytest.raises(FaultConfigError, match="positive delay"):
            FaultScenario(name="x", kind="stall", target="*")

    def test_expect_vocabulary(self):
        with pytest.raises(FaultConfigError, match="expect"):
            FaultScenario(name="x", kind="drop", target="*", expect="hope")

    def test_scaled_multiplies_time_fields(self):
        s = FaultScenario(
            name="x", kind="delay", target="*", delay=5.0, after=2.0
        )
        scaled = s.scaled(1e-9)
        assert scaled.delay == pytest.approx(5e-9)
        assert scaled.after == pytest.approx(2e-9)
        assert scaled.name == s.name and scaled.kind == s.kind


class TestInjectorMatching:
    def test_glob_targets(self):
        inj = FaultInjector(
            [FaultScenario(name="d", kind="drop", target="b*_done", count=99)]
        )
        assert inj.on_signal_write(0.0, "b1_done", 1)[0] == "drop"
        assert inj.on_signal_write(0.0, "b2_done", 1)[0] == "drop"
        # control-refinement completion signals are NOT bus signals
        assert inj.on_signal_write(0.0, "Acquire_done", 1)[0] == "pass"

    def test_count_budget_is_consumed(self):
        inj = FaultInjector(
            [FaultScenario(name="d", kind="drop", target="s", count=2)]
        )
        assert inj.on_signal_write(0.0, "s", 1)[0] == "drop"
        assert inj.on_signal_write(0.0, "s", 2)[0] == "drop"
        assert inj.on_signal_write(0.0, "s", 3)[0] == "pass"
        assert inj.fired == 2
        assert inj.fired_for("d") == 2

    def test_after_gates_activation(self):
        inj = FaultInjector(
            [FaultScenario(name="d", kind="drop", target="s", after=10.0)]
        )
        assert inj.on_signal_write(5.0, "s", 1)[0] == "pass"
        assert inj.on_signal_write(15.0, "s", 1)[0] == "drop"

    def test_flip_bit(self):
        inj = FaultInjector(
            [FaultScenario(name="f", kind="flip_bit", target="d", bit=2)]
        )
        action, payload = inj.on_signal_write(0.0, "d", 8)
        assert (action, payload) == ("corrupt", 8 ^ 4)

    def test_flip_bit_passes_non_integers(self):
        inj = FaultInjector(
            [FaultScenario(name="f", kind="flip_bit", target="d")]
        )
        action, payload = inj.on_signal_write(0.0, "d", (1, 2))
        assert (action, payload) == ("pass", (1, 2))
        # nothing was injected, but the firing is spent
        assert inj.events == [] and inj.fired == 0
        assert inj._armed[0].remaining == 0

    def test_process_faults_only_match_process_hook(self):
        inj = FaultInjector(
            [FaultScenario(name="k", kind="kill", target="daemon")]
        )
        assert inj.on_signal_write(0.0, "daemon", 1)[0] == "pass"
        assert inj.on_activation(0.0, "daemon")[0] == "kill"

    def test_deterministic_sequences_same_seed(self):
        def run(seed):
            inj = FaultInjector(
                [
                    FaultScenario(
                        name="p", kind="drop", target="s",
                        count=100, probability=0.5,
                    )
                ],
                seed=seed,
            )
            return [inj.on_signal_write(0.0, "s", i)[0] for i in range(40)]

        assert run(7) == run(7)
        assert run(7) != run(8)  # astronomically unlikely to collide

    def test_probability_one_consumes_no_randomness(self):
        inj = FaultInjector(
            [FaultScenario(name="d", kind="drop", target="s", count=3)],
            seed=7,
        )
        state = inj._rng.getstate()
        for i in range(5):
            inj.on_signal_write(0.0, "s", i)
        assert inj._rng.getstate() == state

    def test_event_rendering(self):
        e = FaultEvent(1.5, "scn", "drop", "b1_done", "suppressed value 1")
        assert str(e) == "t=1.5 [scn] drop b1_done (suppressed value 1)"


class TestKernelIntegration:
    def _handshake_kernel(self, injector):
        """A 2-process req/ack handshake on a fresh kernel."""
        k = Kernel(injector=injector)
        k.register_signal("req", 0)
        k.register_signal("ack", 0)
        log = []

        def master():
            k.write_signal("req", 1)
            yield WaitCondition(lambda: k.read_signal("ack") == 1, {"ack"})
            log.append("acked")

        def slave():
            yield WaitCondition(lambda: k.read_signal("req") == 1, {"req"})
            k.write_signal("ack", 1)

        m = k.spawn("master", master())
        k.spawn("slave", slave())
        return k, m, log

    def test_drop_loses_the_acknowledge(self):
        inj = FaultInjector(
            [FaultScenario(name="d", kind="drop", target="ack")]
        )
        k, master, log = self._handshake_kernel(inj)
        k.run()
        assert log == [] and not master.finished
        assert inj.fired == 1

    def test_delayed_write_arrives_later(self):
        inj = FaultInjector(
            [FaultScenario(name="d", kind="delay", target="ack", delay=7.0)]
        )
        k, master, log = self._handshake_kernel(inj)
        k.run()
        assert log == ["acked"] and master.finished
        assert k.now == 7.0  # the deferred update advanced time

    def test_corrupt_substitutes_value(self):
        inj = FaultInjector(
            [
                FaultScenario(
                    name="c", kind="corrupt", target="data", value=99
                )
            ]
        )
        k = Kernel(injector=inj)
        k.register_signal("data", 0)

        def writer():
            k.write_signal("data", 5)
            yield WaitDelay(1)

        k.spawn("w", writer())
        k.run()
        assert k.read_signal("data") == 99

    def test_flip_bit_on_a_non_integer_signal_is_no_fault(self):
        from repro.sim.metrics import SimMetrics

        inj = FaultInjector(
            [FaultScenario(name="f", kind="flip_bit", target="pair")]
        )
        metrics = SimMetrics()
        k = Kernel(injector=inj, metrics=metrics)
        k.register_signal("pair", (0, 0))

        def writer():
            k.write_signal("pair", (1, 2))
            yield WaitDelay(1)

        k.spawn("w", writer())
        k.run()
        assert k.read_signal("pair") == (1, 2)
        assert inj.fired == metrics.faults == 0

    def test_kill_finishes_process_and_wakes_joiners(self):
        from repro.sim.kernel import Join

        inj = FaultInjector(
            [FaultScenario(name="k", kind="kill", target="victim")]
        )
        k = Kernel(injector=inj)
        log = []

        def victim():
            yield WaitDelay(5)
            log.append("victim ran")

        def parent():
            child = k.spawn("victim", victim())
            yield Join([child])
            log.append("joined")

        k.spawn("parent", parent())
        k.run()
        assert log == ["joined"]  # victim never ran but the join resolved
        assert inj.fired == 1

    def test_stall_defers_activation(self):
        inj = FaultInjector(
            [FaultScenario(name="s", kind="stall", target="p", delay=9.0)]
        )
        k = Kernel(injector=inj)
        log = []

        def proc():
            log.append(k.now)
            yield WaitDelay(1)

        k.spawn("p", proc())
        k.run()
        assert log == [9.0]


class TestDroppedAcknowledgeAcceptance:
    """The issue's acceptance path: a dropped bus acknowledge under the
    plain (non-recovering) handshake must surface as a structured
    DeadlockError naming blocked bus machinery, never a raw step-limit
    crash; the timeout protocol must absorb the same fault."""

    @pytest.fixture(scope="class")
    def medical(self):
        from repro.apps.medical import (
            MEDICAL_INPUTS,
            all_designs,
            medical_specification,
        )
        from repro.experiments.figure9 import default_allocation

        spec = medical_specification()
        spec.validate()
        return spec, all_designs(spec), default_allocation(), dict(MEDICAL_INPUTS)

    def _refined(self, medical, protocol):
        from repro.models import resolve_model
        from repro.refine import Refiner

        spec, designs, allocation, _ = medical
        return Refiner(
            spec,
            designs["Design1"],
            resolve_model("Model4"),
            allocation=allocation,
            protocol=protocol,
        ).run()

    def _drop_done(self):
        return FaultInjector(
            [FaultScenario(name="drop-done", kind="drop", target="b*_done")],
            seed=1996,
        )

    def test_plain_handshake_deadlocks_with_diagnosis(self, medical):
        from repro.sim.equivalence import check_equivalence

        design = self._refined(medical, "handshake")
        with pytest.raises(DeadlockError) as excinfo:
            check_equivalence(
                design,
                inputs=medical[3],
                injector=self._drop_done(),
                require_completion=True,
            )
        message = str(excinfo.value)
        assert "deadlock at t=" in message
        assert "BI_" in message          # bus-interface daemons are listed
        assert "sensitivity=" in message  # with their sensitivity lists
        assert "last scheduler events" in message

    def test_timeout_protocol_recovers_same_fault(self, medical):
        from repro.sim.equivalence import check_equivalence

        design = self._refined(medical, "handshake-timeout")
        injector = self._drop_done()
        report = check_equivalence(
            design,
            inputs=medical[3],
            injector=injector,
            require_completion=True,
        )
        assert report.equivalent
        assert injector.fired == 1  # the fault really happened
