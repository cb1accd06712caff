"""Fault tolerance of the execution engine: crashed workers, job
timeouts, corrupted cache entries and stale code-version salts all
degrade to a recompute (or a structured error) — never to a wrong or
silently missing result."""

import json
import multiprocessing
import os
import signal
import time

import pytest

import repro.exec.job as job_module
from repro.exec import (
    ExecutionEngine,
    Job,
    ProcessExecutor,
    ResultCache,
    job_key,
    register,
)


@register("test-faults-echo")
def _echo(params):
    return {"value": params["value"]}


@register("test-faults-boom")
def _boom(params):
    raise ValueError(f"boom {params['value']}")


@register("test-faults-crash")
def _crash(params):
    # only die in worker processes — the guard keeps the serial
    # fallback (which runs in the parent) alive to finish the job
    if multiprocessing.current_process().name != "MainProcess":
        os.kill(os.getpid(), signal.SIGKILL)
    return {"value": params["value"], "survived": True}


@register("test-faults-sleep")
def _sleep(params):
    time.sleep(params["seconds"])
    return {"slept": params["seconds"]}


def _echo_jobs(n, task="test-faults-echo"):
    return [Job(task, {"value": i}) for i in range(n)]


class TestTaskErrors:
    def test_raising_task_yields_structured_error(self):
        engine = ExecutionEngine()
        (result,) = engine.run([Job("test-faults-boom", {"value": 3})])
        assert not result.ok
        assert result.error["kind"] == "error"
        assert result.error["type"] == "ValueError"
        assert "boom 3" in result.error["message"]
        assert engine.metrics.failed == 1

    def test_failed_jobs_are_never_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        engine = ExecutionEngine(cache=cache)
        engine.run([Job("test-faults-boom", {"value": 1})])
        assert cache.entries() == []
        again = ExecutionEngine(cache=ResultCache(str(tmp_path)))
        (result,) = again.run([Job("test-faults-boom", {"value": 1})])
        assert not result.cached and not result.ok

    def test_unknown_task_is_an_error_not_a_crash(self):
        (result,) = ExecutionEngine().run([Job("no-such-task", {})])
        assert not result.ok
        assert result.error["kind"] == "error"
        assert "no-such-task" in result.error["message"]


class TestWorkerCrash:
    def test_graceful_degradation_recomputes_everything(self):
        executor = ProcessExecutor(workers=2, serial_fallback=True)
        engine = ExecutionEngine(executor=executor)
        jobs = [Job("test-faults-crash", {"value": 0})] + _echo_jobs(5)[1:]
        results = engine.run(jobs)
        # every job still produced its result, crash included
        assert all(r.ok for r in results)
        assert results[0].payload["survived"] is True
        assert [r.payload["value"] for r in results] == [0, 1, 2, 3, 4]
        assert executor.degraded >= 1
        assert executor.retries >= 1
        assert engine.metrics.degraded >= 1

    def test_without_fallback_crash_is_reported(self):
        executor = ProcessExecutor(workers=1, serial_fallback=False)
        (result,) = ExecutionEngine(executor=executor).run(
            [Job("test-faults-crash", {"value": 9})]
        )
        assert not result.ok
        assert result.error["kind"] == "crash"


class TestJobTimeout:
    def test_timeout_is_structured_and_rest_complete(self):
        executor = ProcessExecutor(workers=2, timeout=0.5)
        engine = ExecutionEngine(executor=executor)
        jobs = [Job("test-faults-sleep", {"seconds": 30.0})] + _echo_jobs(4)[1:]
        started = time.perf_counter()
        results = engine.run(jobs)
        assert time.perf_counter() - started < 20.0  # never waits the 30s out
        assert not results[0].ok
        assert results[0].error["kind"] == "timeout"
        assert "0.5" in results[0].error["message"]
        assert all(r.ok for r in results[1:])
        assert executor.restarts >= 1
        assert engine.metrics.timeouts == 1

    def test_timed_out_job_is_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        engine = ExecutionEngine(
            executor=ProcessExecutor(workers=1, timeout=0.2), cache=cache
        )
        engine.run([Job("test-faults-sleep", {"seconds": 30.0})])
        assert cache.entries() == []


class TestCacheCorruption:
    def _prime(self, tmp_path, value=5):
        cache = ResultCache(str(tmp_path))
        job = Job("test-faults-echo", {"value": value})
        ExecutionEngine(cache=cache).run([job])
        return job, cache._path(job.key())

    def test_truncated_entry_degrades_to_recompute(self, tmp_path):
        job, path = self._prime(tmp_path)
        with open(path, "w") as handle:
            handle.write('{"version": 1, "key"')  # truncated mid-write
        cache = ResultCache(str(tmp_path))
        (result,) = ExecutionEngine(cache=cache).run([job])
        assert result.ok and not result.cached
        assert result.payload == {"value": 5}
        assert cache.stats.errors == 1
        assert not os.path.exists(path) or json.load(open(path))  # repaired

    def test_garbage_entry_degrades_to_recompute(self, tmp_path):
        job, path = self._prime(tmp_path)
        with open(path, "wb") as handle:
            handle.write(b"\x00\xff garbage \xfe")
        cache = ResultCache(str(tmp_path))
        (result,) = ExecutionEngine(cache=cache).run([job])
        assert result.ok and not result.cached
        assert result.payload == {"value": 5}
        assert cache.stats.errors == 1

    def test_mislabelled_entry_is_never_served(self, tmp_path):
        """An entry whose stored key or task disagrees with its address
        is treated as corruption, not as a hit."""
        job, path = self._prime(tmp_path)
        data = json.load(open(path))
        data["task"] = "some-other-task"
        with open(path, "w") as handle:
            json.dump(data, handle)
        cache = ResultCache(str(tmp_path))
        assert cache.get(job.key(), task=job.task) is None
        assert cache.stats.errors == 1


class TestStaleSalt:
    """A code change re-keys every job: old entries can never be served
    against new code."""

    @pytest.fixture(autouse=True)
    def _fake_salt(self, monkeypatch):
        monkeypatch.setitem(job_module._SALT_CACHE, "salt", "salt-v1")

    def test_salt_change_invalidates_entries(self, tmp_path, monkeypatch):
        job = Job("test-faults-echo", {"value": 7})
        cache = ResultCache(str(tmp_path))
        ExecutionEngine(cache=cache).run([job])
        (hit,) = ExecutionEngine(cache=cache).run([job])
        assert hit.cached

        monkeypatch.setitem(job_module._SALT_CACHE, "salt", "salt-v2")
        engine = ExecutionEngine(cache=cache)
        (recomputed,) = engine.run([job])
        assert not recomputed.cached  # the v1 entry was not served
        assert recomputed.payload == {"value": 7}
        assert engine.metrics.cache_misses == 1

        monkeypatch.setitem(job_module._SALT_CACHE, "salt", "salt-v1")
        (old,) = ExecutionEngine(cache=cache).run([job])
        assert old.cached  # the old entry is still valid for old code

    def test_salt_changes_the_key(self):
        params = {"value": 7}
        assert job_key("t", params, "salt-v1") != job_key("t", params, "salt-v2")
