"""The process executor's own workers, one pipe each.

A timeout kills and replaces only the worker that ran the job; the
other workers keep serving through it.  Workers need no
``terminate()`` to go away: once their executor is garbage-collected
their pipes close and they exit, even when another executor forked
its worker while theirs was open (the serve daemon's slots).
"""

import gc
import multiprocessing
import os
import time

import pytest

from repro.exec import ProcessExecutor, register
from repro.serve.chaos import register_chaos_tasks

register_chaos_tasks()


@register("test-workers-pid")
def _pid(params):
    return {"pid": os.getpid(), "nonce": params.get("nonce")}


def _pids(executor, count, **run_options):
    outcomes = executor.run(
        [("test-workers-pid", {"nonce": n}) for n in range(count)],
        **run_options,
    )
    return [outcome["payload"]["pid"] for outcome in outcomes]


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


def _wait_no_children(timeout=10.0):
    ends = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < ends:
        gc.collect()
        time.sleep(0.02)
    return multiprocessing.active_children()


@pytest.fixture(autouse=True)
def no_children_before():
    assert _wait_no_children() == []
    yield


def test_timeout_replaces_only_that_worker():
    executor = ProcessExecutor(workers=2, serial_fallback=False)
    try:
        before = _pids(executor, 2)
        assert len(set(before)) == 2
        spun, *rest = executor.run(
            [("chaos-spin", {"nonce": 0})]
            + [("test-workers-pid", {"nonce": n}) for n in range(3)],
            timeout=0.5,
        )
        assert spun["error"]["kind"] == "timeout"
        # the other worker kept serving through the timeout
        assert {o["payload"]["pid"] for o in rest} == {before[1]}
        assert not os.path.exists(f"/proc/{before[0]}")  # reaped
        after = _pids(executor, 2)
        assert before[1] in after and before[0] not in after
        assert executor.restarts == 1
    finally:
        executor.terminate()


def test_collected_executor_workers_exit():
    first = ProcessExecutor(workers=1)
    (first_pid,) = _pids(first, 1)
    # forked while the first worker's pipe is open: it must not hold
    # that pipe open once the first executor is gone
    second = ProcessExecutor(workers=1)
    (second_pid,) = _pids(second, 1)
    del first
    gc.collect()
    _wait_dead(first_pid)
    assert _pids(second, 1) == [second_pid]
    del second
    assert _wait_no_children() == []


def test_interrupted_run_leaves_no_stale_answer(monkeypatch):
    executor = ProcessExecutor(workers=1, serial_fallback=False)
    (before,) = _pids(executor, 1)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    # interrupted after the job was sent, before its answer was read
    monkeypatch.setattr(executor, "_collect", interrupted)
    with pytest.raises(KeyboardInterrupt):
        executor.run([("test-workers-pid", {"nonce": "stale"})])
    monkeypatch.undo()
    _wait_dead(before)
    (outcome,) = executor.run([("test-workers-pid", {"nonce": "fresh"})])
    assert outcome["payload"]["nonce"] == "fresh"
    assert outcome["payload"]["pid"] != before
    executor.terminate()
    assert _wait_no_children() == []
