"""Lifecycle of the process executor's kept worker pool.

A :class:`repro.exec.ProcessExecutor` forks its pool on the first run
and keeps it: consecutive runs land in the same worker.  The pool is
replaced after a crash or a timeout, when a worker died while idle,
and when a task was registered after the fork; ``terminate()`` (and
every owner that releases it: the serve daemon's ``close()``, the
campaign CLIs) leaves no child process behind.  A kept worker parses
each spec text it serves once, through a bounded memo keyed by the
text itself.
"""

import gc
import multiprocessing
import os
import signal
import time

import pytest

from repro.exec import ProcessExecutor, register
from repro.serve import ReproClient, ReproServer, ServeConfig
from repro.serve.chaos import register_chaos_tasks

register_chaos_tasks()


@register("test-pool-pid")
def _pid(params):
    return {"pid": os.getpid(), "nonce": params.get("nonce")}


def _pid_of(executor, **params):
    (outcome,) = executor.run([("test-pool-pid", params)])
    return outcome["payload"]["pid"]


def _wait_dead(pid, timeout=10.0):
    """Until ``pid`` has exited (a zombie counts: it runs no more)."""
    ends = time.monotonic() + timeout
    while time.monotonic() < ends:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return
        if state in ("Z", "X"):
            return
        time.sleep(0.01)
    raise AssertionError(f"process {pid} still running after {timeout}s")


@pytest.fixture(autouse=True)
def no_children_before():
    """Start from no live children, so the emptiness checks below are
    about this test's pools: an earlier test's idle pool shuts its
    workers down once its executor is garbage-collected."""
    ends = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < ends:
        gc.collect()
        time.sleep(0.05)
    assert multiprocessing.active_children() == []
    yield


@pytest.fixture
def executor():
    executor = ProcessExecutor(workers=1, serial_fallback=False)
    yield executor
    executor.terminate()


class TestKeptPool:
    def test_consecutive_runs_share_one_worker(self, executor):
        pids = [_pid_of(executor, nonce=n) for n in range(3)]
        assert pids[0] != os.getpid()
        assert pids == [pids[0]] * 3

    def test_crash_replaces_the_worker(self, executor):
        before = _pid_of(executor)
        (crashed,) = executor.run([("chaos-crash", {"nonce": 0})])
        assert crashed["error"]["kind"] == "crash"
        after = _pid_of(executor)
        assert after != before

    def test_timeout_replaces_the_worker(self, executor):
        before = _pid_of(executor)
        (spun,) = executor.run([("chaos-spin", {"nonce": 0})], timeout=0.3)
        assert spun["error"]["kind"] == "timeout"
        after = _pid_of(executor)
        assert after != before
        assert executor.restarts == 1

    def test_task_registered_after_the_fork_runs(self, executor):
        _pid_of(executor)

        @register("test-pool-late")
        def _late(params):
            return {"late": params["value"]}

        (outcome,) = executor.run([("test-pool-late", {"value": 7})])
        assert outcome["payload"] == {"late": 7}

    def test_worker_killed_while_idle_is_replaced_silently(self, executor):
        before = _pid_of(executor)
        os.kill(before, signal.SIGKILL)
        _wait_dead(before)
        (outcome,) = executor.run([("test-pool-pid", {})])
        assert "error" not in outcome
        assert outcome["payload"]["pid"] != before
        assert executor.degraded == 0 and executor.restarts == 0

    def test_terminate_reaps_every_worker(self):
        executor = ProcessExecutor(workers=2)
        outcomes = executor.run([("test-pool-pid", {"nonce": n})
                                 for n in range(4)])
        assert all("payload" in o for o in outcomes)
        workers = {o["payload"]["pid"] for o in outcomes}
        assert multiprocessing.active_children()
        executor.terminate()
        # reaped by terminate() itself, not merely killed: a zombie
        # would keep its /proc entry (and its CPU time off the books)
        assert [pid for pid in workers if os.path.exists(f"/proc/{pid}")] == []
        assert multiprocessing.active_children() == []
        # still usable: the next run forks a fresh pool
        assert _pid_of(executor) != outcomes[0]["payload"]["pid"]
        executor.terminate()
        assert multiprocessing.active_children() == []


class TestDaemonPool:
    def _start(self, tmp_path):
        return ReproServer(ServeConfig(
            port=0, workers=1, no_cache=True, chaos=True,
            flight_dir=str(tmp_path / "flight"),
        )).start()

    def test_idle_worker_death_is_not_a_failed_request(self, tmp_path):
        server = self._start(tmp_path)
        try:
            client = ReproClient(port=server.port, retries=0)
            first = client.submit("test-pool-pid", {"nonce": 0}, deadline=10)
            assert first.ok
            worker = first.body["payload"]["pid"]
            second = client.submit("test-pool-pid", {"nonce": 1}, deadline=10)
            assert second.body["payload"]["pid"] == worker  # kept
            os.kill(worker, signal.SIGKILL)
            _wait_dead(worker)
            third = client.submit("test-pool-pid", {"nonce": 2}, deadline=10)
            assert third.status == 200
            assert third.body["payload"]["pid"] != worker
            stats = client.stats()
            assert stats["server"]["errors"] == {}
            assert server.breaker.snapshot()["tracked"] == 0
        finally:
            server.close()
        assert multiprocessing.active_children() == []


def test_in_process_cli_campaign_leaves_no_workers(tmp_path, capsys):
    from repro.cli import main

    code = main([
        "sweep", "--design", "Design1", "--model", "Model4",
        "--protocol", "handshake", "--seed", "0",
        "--executor", "process", "--workers", "1", "--no-cache",
        "-o", str(tmp_path / "sweep.txt"),
    ])
    assert code == 0
    assert "Design1" in capsys.readouterr().out
    assert multiprocessing.active_children() == []



class TestSpecMemo:
    """The per-process parsed-spec memo that kept workers reuse."""

    @pytest.fixture
    def memo(self, monkeypatch):
        """An empty memo, and the list of texts parsed through it."""
        from repro.exec import campaigns
        from repro.lang import parser

        parses = []
        parse = parser.parse

        def counting_parse(text):
            parses.append(text)
            return parse(text)

        monkeypatch.setattr(parser, "parse", counting_parse)
        campaigns._spec_from_text.cache_clear()
        yield campaigns, parses
        campaigns._spec_from_text.cache_clear()

    @staticmethod
    def _texts(count):
        from repro.exec import canonical_spec_text
        from repro.fuzz.generator import generate_case

        return [canonical_spec_text(generate_case(seed).spec)
                for seed in range(count)]

    def test_interleaved_specs_parse_once_each(self, memo):
        from repro.lang.printer import print_specification

        campaigns, parses = memo
        texts = self._texts(3)
        for call in range(30):
            text = texts[call % 3]
            spec = campaigns._spec_from_text(text)
            assert print_specification(spec) == text
        assert sorted(parses) == sorted(texts)

    def test_memo_is_bounded_and_keeps_recent_specs(self, memo):
        campaigns, parses = memo
        (text,) = self._texts(1)
        # distinct texts of one spec: trailing newlines do not parse
        variants = [text + "\n" * i for i in range(campaigns.SPEC_MEMO_SIZE + 8)]
        for variant in variants:
            campaigns._spec_from_text(variant)
            held = campaigns._spec_from_text.cache_info().currsize
            assert held <= campaigns.SPEC_MEMO_SIZE
        assert len(parses) == len(variants)
        campaigns._spec_from_text(variants[-1])  # recent: a hit
        assert len(parses) == len(variants)
        campaigns._spec_from_text(variants[0])  # evicted: parsed again
        assert len(parses) == len(variants) + 1

    def test_colliding_hashes_never_share_a_spec(self, memo):
        from repro.lang.printer import print_specification

        class _Colliding(str):
            def __hash__(self):
                return 0

        campaigns, _ = memo
        first, second = (_Colliding(text) for text in self._texts(2))
        assert hash(first) == hash(second) and first != second
        assert print_specification(campaigns._spec_from_text(first)) == first
        assert print_specification(campaigns._spec_from_text(second)) == second
