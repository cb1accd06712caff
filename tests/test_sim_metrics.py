"""Tests for the observability layer: SimMetrics, the kernel's
scheduler-event ring, their kernel wiring, and the sensitivity-index
wakeup edge cases."""

import pytest

from repro.obs.trace import SpanTracer
from repro.sim import Simulator
from repro.sim.faults import FaultInjector, FaultScenario
from repro.sim.kernel import Kernel, WaitCondition, WaitDelay
from repro.sim.metrics import SimMetrics
from repro.spec.builder import assign, leaf, spec
from repro.spec.expr import var
from repro.spec.types import int_type
from repro.spec.variable import variable


def waiting_kernel(metrics=None, initial=0):
    """A kernel with signal ``s`` and one process waiting for s == 1."""
    k = Kernel(metrics=metrics)
    k.register_signal("s", initial)
    woken = []

    def waiter():
        yield WaitCondition(
            lambda: k.read_signal("s") == 1, sensitivity=("s",), label="s = 1"
        )
        woken.append(k.now)

    process = k.spawn("waiter", waiter())
    return k, process, woken


class TestCounters:
    def test_activation_and_timestep_counts(self):
        m = SimMetrics()
        k = Kernel(metrics=m)

        def proc():
            yield WaitDelay(1)
            yield WaitDelay(1)

        k.spawn("p", proc())
        k.run()
        # initial activation plus one resume per delay expiry
        assert m.activations == 3
        assert m.timesteps == 2
        assert m.processes_spawned == 1
        assert m.wall_seconds > 0.0

    def test_write_update_change_distinction(self):
        m = SimMetrics()
        k = Kernel(metrics=m)
        k.register_signal("s", 0)

        def proc():
            k.write_signal("s", 0)  # scheduled, applied, but no change
            yield WaitDelay(1)
            k.write_signal("s", 1)
            yield WaitDelay(1)

        k.spawn("p", proc())
        k.run()
        assert m.signal_writes == 2
        assert m.signal_updates == 2
        assert m.signal_changes == 1

    def test_unchanged_write_wakes_nobody(self):
        m = SimMetrics()
        k, process, woken = waiting_kernel(metrics=m)

        def writer():
            k.write_signal("s", 0)  # current value: no delta, no wakeup
            yield WaitDelay(1)
            k.write_signal("s", 1)

        k.spawn("writer", writer())
        k.run()
        assert woken == [1]
        assert m.wakeups == 1
        assert m.delta_cycles == 1  # only the 0 -> 1 update applied one

    def test_kill_while_indexed(self):
        m = SimMetrics()
        k, process, woken = waiting_kernel(metrics=m)
        k.kill(process)

        def writer():
            k.write_signal("s", 1)
            yield WaitDelay(1)

        k.spawn("writer", writer())
        k.run()  # the change must not wake (or crash on) the dead waiter
        assert woken == []
        assert process.killed
        assert m.processes_killed == 1
        assert m.wakeups == 0

    def test_max_delta_streak(self):
        m = SimMetrics()
        k = Kernel(metrics=m)
        k.register_signal("s", 0)

        def proc():
            for value in (1, 2, 3):
                k.write_signal("s", value)
                yield WaitCondition(
                    lambda v=value: k.read_signal("s") == v, ("s",)
                )
            yield WaitDelay(1)

        k.spawn("p", proc())
        k.run()
        assert m.delta_cycles == 3
        assert m.max_delta_streak == 3
        assert m.timesteps == 1

    def test_accumulate_across_runs_and_reset(self):
        design = spec(
            "T",
            leaf("A", assign("x", var("x") + 1)),
            variables=[variable("x", int_type(), init=0)],
        )
        design.validate()
        simulator = Simulator(design)
        m = SimMetrics()
        simulator.run(metrics=m)
        after_one = m.activations
        simulator.run(metrics=m)
        assert m.activations == 2 * after_one
        m.reset()
        assert m.activations == 0 and m.wall_seconds == 0.0

    def test_as_dict_matches_fields(self):
        m = SimMetrics()
        data = m.as_dict()
        assert set(data) == {name for name, _ in SimMetrics.FIELDS} | {
            "wall_seconds"
        }
        assert "delta cycles" in m.describe()


class TestBusTransactions:
    def run_strobe(self, values, initial=0, patterns=None):
        m = SimMetrics(**({"bus_patterns": patterns} if patterns else {}))
        k = Kernel(metrics=m)
        k.register_signal("b1_start", initial)

        def proc():
            for value in values:
                k.write_signal("b1_start", value)
                yield WaitDelay(1)

        k.spawn("p", proc())
        k.run()
        return m

    def test_rising_strobe_counts(self):
        assert self.run_strobe([1, 0, 1]).bus_transactions == 2

    def test_falling_edge_does_not_count(self):
        assert self.run_strobe([0], initial=1).bus_transactions == 0

    def test_unchanged_truthy_write_does_not_count(self):
        assert self.run_strobe([1, 1, 1]).bus_transactions == 1

    def test_custom_patterns(self):
        m = self.run_strobe([1], patterns=("other_*",))
        assert m.bus_transactions == 0
        assert m.is_bus_strobe("other_x") and not m.is_bus_strobe("b1_start")


class TestFaultMetrics:
    def test_dropped_write_counts_fault_not_write(self):
        scenario = FaultScenario(
            name="drop-s", kind="drop", target="s", expect="detect"
        )
        m = SimMetrics()
        k = Kernel(injector=FaultInjector([scenario]), metrics=m)
        k.register_signal("s", 0)

        def proc():
            k.write_signal("s", 1)
            yield WaitDelay(1)

        k.spawn("p", proc())
        k.run()
        assert m.faults == 1
        assert m.signal_writes == 0  # the dropped write never scheduled
        assert k.read_signal("s") == 0

    def test_kill_fault_counts(self):
        scenario = FaultScenario(
            name="kill-p", kind="kill", target="p", expect="detect"
        )
        m = SimMetrics()
        k = Kernel(injector=FaultInjector([scenario]), metrics=m)

        def proc():
            yield WaitDelay(1)

        k.spawn("p", proc())
        k.run()
        assert m.faults == 1
        assert m.processes_killed == 1


class TestKernelTrace:
    """The kernel's ring buffer is the one scheduler-event record."""

    def test_records_scheduler_events(self):
        k = Kernel()
        k.register_signal("s", 0)

        def proc():
            k.write_signal("s", 1)
            yield WaitDelay(1)

        k.spawn("p", proc())
        k.run()
        lines = k.format_trace()
        assert lines[0] == "t=0 run: p"
        assert "t=0 delta: s" in lines
        assert "t=1 advance: 1" in lines

    def test_records_fault_and_kill(self):
        scenario = FaultScenario(
            name="kill-p", kind="kill", target="p", expect="detect"
        )
        k = Kernel(injector=FaultInjector([scenario]))

        def proc():
            yield WaitDelay(1)

        k.spawn("p", proc())
        k.run()
        lines = k.format_trace()
        assert "t=0 fault: killed process p" in lines
        assert "t=0 kill: p (fault injection)" in lines


class TestPhaseTimer:
    """Pipeline phase timing: root ``"phase"`` spans of a SpanTracer,
    summed per name by ``aggregate(category="phase")``."""

    def test_accumulates_and_orders(self):
        tracer = SpanTracer()
        with tracer.span("b", category="phase"):
            pass
        with tracer.span("a", category="phase"):
            pass
        with tracer.span("b", category="phase"):
            pass
        phases = tracer.aggregate(category="phase")
        assert list(phases) == ["b", "a"]
        assert phases["b"] >= 0.0
        assert phases["b"] == tracer.roots[0].seconds + tracer.roots[2].seconds
        assert sum(phases.values()) == pytest.approx(
            sum(root.seconds for root in tracer.roots)
        )

    def test_empty(self):
        assert SpanTracer().describe() == "no spans recorded"
        assert SpanTracer().aggregate(category="phase") == {}


class TestSimulatorIntegration:
    def test_runs_are_deterministic(self):
        design = spec(
            "T",
            leaf("A", assign("x", var("x") + 1)),
            variables=[variable("x", int_type(), init=0)],
        )
        design.validate()
        first, second = SimMetrics(), SimMetrics()
        Simulator(design).run(metrics=first)
        Simulator(design).run(metrics=second)
        counters = lambda m: {
            k: v for k, v in m.as_dict().items() if k != "wall_seconds"
        }
        assert counters(first) == counters(second)
        assert first.activations > 0
