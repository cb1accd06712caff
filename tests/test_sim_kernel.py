"""Unit tests for the DES kernel."""

import pytest

from repro.errors import SimulationError, SimulationLimitExceeded
from repro.sim.faults import FaultInjector, FaultScenario
from repro.sim.kernel import (
    DEFAULT_TRACE_DEPTH,
    Join,
    Kernel,
    KernelLimits,
    WaitCondition,
    WaitDelay,
)
from repro.sim.metrics import SimMetrics


class TestSignals:
    def test_register_and_read(self):
        k = Kernel()
        k.register_signal("s", 0)
        assert k.read_signal("s") == 0

    def test_duplicate_registration(self):
        k = Kernel()
        k.register_signal("s", 0)
        with pytest.raises(SimulationError):
            k.register_signal("s", 1)

    def test_unknown_signal(self):
        k = Kernel()
        with pytest.raises(SimulationError):
            k.read_signal("nope")
        with pytest.raises(SimulationError):
            k.write_signal("nope", 1)

    def test_write_is_deferred_until_delta(self):
        k = Kernel()
        k.register_signal("s", 0)
        seen = []

        def proc():
            k.write_signal("s", 1)
            seen.append(("before", k.read_signal("s")))
            yield WaitDelay(1)
            seen.append(("after", k.read_signal("s")))

        k.spawn("p", proc())
        k.run()
        assert seen == [("before", 0), ("after", 1)]


class TestScheduling:
    def test_process_runs_to_completion(self):
        k = Kernel()
        log = []

        def proc():
            log.append("a")
            yield WaitDelay(5)
            log.append("b")

        p = k.spawn("p", proc())
        k.run()
        assert log == ["a", "b"]
        assert p.finished
        assert k.now == 5

    def test_two_timed_processes_order(self):
        k = Kernel()
        log = []

        def slow():
            yield WaitDelay(10)
            log.append("slow")

        def fast():
            yield WaitDelay(1)
            log.append("fast")

        k.spawn("slow", slow())
        k.spawn("fast", fast())
        k.run()
        assert log == ["fast", "slow"]
        assert k.now == 10

    def test_wait_condition_wakes_on_change(self):
        k = Kernel()
        k.register_signal("go", 0)
        log = []

        def waiter():
            yield WaitCondition(lambda: k.read_signal("go") == 1, {"go"})
            log.append("woken")

        def driver():
            yield WaitDelay(3)
            k.write_signal("go", 1)

        k.spawn("waiter", waiter())
        k.spawn("driver", driver())
        k.run()
        assert log == ["woken"]

    def test_wait_condition_already_true_does_not_block(self):
        k = Kernel()
        k.register_signal("go", 1)
        log = []

        def waiter():
            yield WaitCondition(lambda: k.read_signal("go") == 1, {"go"})
            log.append("done")

        k.spawn("w", waiter())
        k.run()
        assert log == ["done"]

    def test_blocked_process_reported(self):
        k = Kernel()
        k.register_signal("never", 0)

        def waiter():
            yield WaitCondition(lambda: k.read_signal("never") == 1, {"never"})

        p = k.spawn("w", waiter())
        k.run()  # quiescent with w blocked
        assert not p.finished
        assert p in k.blocked_processes()

    def test_join(self):
        k = Kernel()
        log = []

        def child(tag, delay):
            yield WaitDelay(delay)
            log.append(tag)

        def parent():
            kids = [k.spawn("c1", child("c1", 5)), k.spawn("c2", child("c2", 2))]
            yield Join(kids)
            log.append("parent")

        k.spawn("parent", parent())
        k.run()
        assert log == ["c2", "c1", "parent"]

    def test_join_already_finished(self):
        k = Kernel()
        log = []

        def quick():
            log.append("q")
            return
            yield  # pragma: no cover

        def parent():
            child = k.spawn("q", quick())
            yield WaitDelay(1)
            yield Join([child])
            log.append("p")

        k.spawn("p", parent())
        k.run()
        assert log == ["q", "p"]

    def test_max_steps_guard(self):
        k = Kernel()

        def spinner():
            while True:
                yield WaitDelay(1)

        k.spawn("spin", spinner())
        with pytest.raises(SimulationLimitExceeded):
            k.run(limits=KernelLimits(max_steps=100))

    def test_failed_process_raises_simulation_error(self):
        k = Kernel()

        def bad():
            yield WaitDelay(1)
            raise ValueError("boom")

        k.spawn("bad", bad())
        with pytest.raises(SimulationError, match="boom"):
            k.run()

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            WaitDelay(-1)


class TestDeltaCycles:
    def test_no_change_write_does_not_wake(self):
        k = Kernel()
        k.register_signal("s", 0)
        log = []

        def waiter():
            yield WaitCondition(lambda: k.read_signal("s") == 1, {"s"})
            log.append("woken")

        def writer():
            k.write_signal("s", 0)  # no actual change
            yield WaitDelay(1)

        k.spawn("waiter", waiter())
        k.spawn("writer", writer())
        k.run()
        assert log == []

    def test_handshake_between_processes(self):
        """Two processes complete a 4-phase handshake entirely in delta
        cycles (no time passes)."""
        k = Kernel()
        k.register_signal("req", 0)
        k.register_signal("ack", 0)
        log = []

        def master():
            k.write_signal("req", 1)
            yield WaitCondition(lambda: k.read_signal("ack") == 1, {"ack"})
            log.append("master saw ack")
            k.write_signal("req", 0)
            yield WaitCondition(lambda: k.read_signal("ack") == 0, {"ack"})
            log.append("master done")

        def slave():
            yield WaitCondition(lambda: k.read_signal("req") == 1, {"req"})
            k.write_signal("ack", 1)
            yield WaitCondition(lambda: k.read_signal("req") == 0, {"req"})
            k.write_signal("ack", 0)
            log.append("slave done")

        k.spawn("master", master())
        k.spawn("slave", slave())
        k.run()
        assert "master done" in log
        assert "slave done" in log
        assert k.now == 0.0


class TestWatchdog:
    """KernelLimits, the deadlock reporter, and the diagnostic trace."""

    def test_deadlock_error_for_unfinished_required(self):
        from repro.errors import DeadlockError

        k = Kernel()
        k.register_signal("never", 0)

        def stuck():
            yield WaitCondition(
                lambda: k.read_signal("never") == 1, {"never"}, label="until never=1"
            )

        p = k.spawn("stuck", stuck())
        with pytest.raises(DeadlockError) as excinfo:
            k.run(required=(p,))
        err = excinfo.value
        assert "stuck" in str(err)
        assert "never" in str(err)  # sensitivity list is named
        assert err.required == ("stuck",)
        assert any(info.name == "stuck" for info in err.blocked)

    def test_quiescence_without_required_is_not_an_error(self):
        k = Kernel()
        k.register_signal("never", 0)

        def daemon():
            yield WaitCondition(lambda: k.read_signal("never") == 1, {"never"})

        k.spawn("daemon", daemon())
        k.run()  # no required processes: plain quiescence

    def test_wait_condition_true_at_suspension_resumes_same_delta(self):
        k = Kernel()
        k.register_signal("go", 1)
        log = []

        def waiter():
            log.append(("before", k.now))
            yield WaitCondition(lambda: k.read_signal("go") == 1, {"go"})
            log.append(("after", k.now))

        k.spawn("w", waiter())
        k.run()
        assert log == [("before", 0.0), ("after", 0.0)]

    def test_zero_delay_wait_runs_in_same_timestep(self):
        k = Kernel()
        log = []

        def proc():
            yield WaitDelay(0)
            log.append(k.now)

        k.spawn("p", proc())
        k.run()
        assert log == [0.0]

    def test_delta_cycle_storm_trips_max_delta(self):
        k = Kernel()
        k.register_signal("a", 0)
        k.register_signal("b", 0)

        def ping():
            val = 0
            while True:
                val = 1 - val
                k.write_signal("a", val)
                yield WaitCondition(
                    lambda want=val: k.read_signal("b") == want, {"b"}
                )

        def pong():
            seen = 0
            while True:
                yield WaitCondition(
                    lambda old=seen: k.read_signal("a") != old, {"a"}
                )
                seen = k.read_signal("a")
                k.write_signal("b", seen)

        k.spawn("ping", ping())
        k.spawn("pong", pong())
        with pytest.raises(SimulationLimitExceeded) as excinfo:
            k.run(limits=KernelLimits(max_delta=50))
        assert excinfo.value.limit == "max_delta"
        assert "max_delta" in str(excinfo.value)

    def test_limit_error_names_max_steps_and_carries_trace(self):
        k = Kernel()

        def spinner():
            while True:
                yield WaitDelay(1)

        k.spawn("spin", spinner())
        with pytest.raises(SimulationLimitExceeded) as excinfo:
            k.run(limits=KernelLimits(max_steps=10))
        assert excinfo.value.limit == "max_steps"
        assert "max_steps=10" in str(excinfo.value)
        assert excinfo.value.trace  # ring buffer contents attached

    def test_trace_ring_buffer_is_bounded(self):
        k = Kernel()

        def proc():
            for _ in range(20):
                yield WaitDelay(1)

        k.spawn("p", proc())
        k.run()
        assert len(k.format_trace()) == DEFAULT_TRACE_DEPTH


class TestFaultPaths:
    """An attached injector goes through the scheduler loop's own
    activation sequence and the one timed queue."""

    def test_delayed_write_and_timed_wake_at_same_instant(self):
        inj = FaultInjector(
            [FaultScenario(name="d", kind="delay", target="s", delay=5.0)]
        )
        k = Kernel(injector=inj)
        k.register_signal("s", 0)
        seen = []

        def writer():
            k.write_signal("s", 1)  # deferred to t=5
            yield WaitDelay(0)

        def sleeper():
            yield WaitDelay(5)
            # released at t=5 together with the delayed update, which
            # is pending until the next delta cycle
            seen.append((k.now, k.read_signal("s")))
            yield WaitDelay(0)
            seen.append((k.now, k.read_signal("s")))

        def watcher():
            yield WaitCondition(lambda: k.read_signal("s") == 1, {"s"})
            seen.append(("watcher", k.now))

        k.spawn("watcher", watcher())
        k.spawn("writer", writer())
        k.spawn("sleeper", sleeper())
        k.run()
        assert seen == [(5.0, 0), ("watcher", 5.0), (5.0, 1)]
        assert k.now == 5.0
        assert not k._timed and not k._pending

    def test_kill_on_first_activation_notifies_joiners(self):
        inj = FaultInjector(
            [FaultScenario(name="k", kind="kill", target="victim")]
        )
        k = Kernel(injector=inj)
        k.register_signal("go", 0)
        log = []

        def victim():
            log.append("victim ran")
            yield WaitCondition(lambda: k.read_signal("go") == 2, {"go"})

        def parent():
            child = k.spawn("victim", victim())
            yield Join([child])
            log.append("joined")
            k.write_signal("go", 1)

        def waiter():
            yield WaitCondition(lambda: k.read_signal("go") == 1, {"go"})
            log.append("woken")

        k.spawn("waiter", waiter())
        k.spawn("parent", parent())
        k.run()
        assert log == ["joined", "woken"]
        victim = next(p for p in k.processes if p.name == "victim")
        assert victim.killed and victim.finished
        assert k.blocked_processes() == []
        assert not k._cond_waiters
        assert all(not waiters for waiters in k._sensitivity.values())
        assert any("fault: killed process victim" in line for line in k.format_trace())

    def test_stall_then_resume(self):
        inj = FaultInjector(
            [FaultScenario(name="s", kind="stall", target="p", delay=9.0)]
        )
        metrics = SimMetrics()
        k = Kernel(injector=inj, metrics=metrics)
        log = []

        def proc():
            log.append(k.now)
            yield WaitDelay(1)
            log.append(k.now)

        p = k.spawn("p", proc())
        k.run()
        assert log == [9.0, 10.0] and p.finished
        assert metrics.activations == 2  # the stall is not an activation
        assert metrics.timesteps == 2

    def test_fault_tally_matches_injector_events(self):
        inj = FaultInjector(
            [
                FaultScenario(name="drop", kind="drop", target="a"),
                FaultScenario(name="delay", kind="delay", target="b", delay=2.0),
                FaultScenario(name="corrupt", kind="corrupt", target="c", value=7),
                FaultScenario(name="kill", kind="kill", target="doomed"),
                FaultScenario(name="stall", kind="stall", target="slow", delay=3.0),
            ]
        )
        metrics = SimMetrics()
        k = Kernel(injector=inj, metrics=metrics)
        for name in "abc":
            k.register_signal(name, 0)

        def writer():
            for name in "abc":
                k.write_signal(name, 1)
            yield WaitDelay(1)

        def idle():
            yield WaitDelay(1)

        k.spawn("writer", writer())
        k.spawn("doomed", idle())
        k.spawn("slow", idle())
        k.run()
        assert sorted(e.kind for e in inj.events) == [
            "corrupt", "delay", "drop", "kill", "stall",
        ]
        assert metrics.faults == len(inj.events) == 5
        assert sum(" fault: " in line for line in k.format_trace()) == 5
        assert [k.read_signal(name) for name in "abc"] == [0, 1, 7]
