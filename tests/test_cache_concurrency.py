"""Shared-cache contention and degradation: two (or more) engines
racing on one :class:`repro.exec.cache.ResultCache` must never serve a
torn or wrong read, eviction under contention must hold the capacity
bound, and an unwritable cache directory must degrade to warned
pass-through instead of failing the campaign.  Also covers the
per-call deadline/cancel hooks the daemon drives the engine with."""

import json
import os
import threading
import time

import pytest

from repro.exec import (
    ExecutionEngine,
    Job,
    ProcessExecutor,
    ResultCache,
    SerialExecutor,
    register,
)


@register("test-cc-echo")
def _echo(params):
    return {"value": params["value"], "squared": params["value"] ** 2}


@register("test-cc-sleep")
def _sleep(params):
    time.sleep(params["seconds"])
    return {"slept": params["seconds"], "tag": params.get("tag")}


def _jobs(values, task="test-cc-echo"):
    return [Job(task, {"value": v}) for v in values]


class TestRacingEngines:
    def test_two_engines_same_jobs_identical_results(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        jobs = _jobs(range(40))
        results = {}

        def run(name):
            engine = ExecutionEngine(executor=SerialExecutor(), cache=cache)
            results[name] = engine.run(jobs)

        threads = [threading.Thread(target=run, args=(n,)) for n in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for name, batch in results.items():
            assert all(r.ok for r in batch), name
        payloads_a = [r.payload for r in results["a"]]
        payloads_b = [r.payload for r in results["b"]]
        assert payloads_a == payloads_b
        assert payloads_a == [{"value": v, "squared": v * v} for v in range(40)]
        # between them the engines hit or computed — never corrupted
        assert cache.stats.errors == 0

    def test_many_engines_interleaved_grids(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        failures = []

        def run(offset):
            engine = ExecutionEngine(executor=SerialExecutor(), cache=cache)
            jobs = _jobs(range(offset, offset + 30))
            for job, result in zip(jobs, engine.run(jobs)):
                expected = {
                    "value": job.params["value"],
                    "squared": job.params["value"] ** 2,
                }
                if not result.ok or result.payload != expected:
                    failures.append((job.params, result))

        threads = [threading.Thread(target=run, args=(off,))
                   for off in (0, 10, 20)]  # overlapping key ranges
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

    def test_warm_rerun_after_race_is_all_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        jobs = _jobs(range(15))
        threads = [
            threading.Thread(
                target=lambda: ExecutionEngine(
                    executor=SerialExecutor(), cache=cache
                ).run(jobs)
            )
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        engine = ExecutionEngine(executor=SerialExecutor(), cache=cache)
        rerun = engine.run(jobs)
        assert all(r.cached for r in rerun)
        assert engine.metrics.cache_hits == 15

    def test_each_engine_counts_only_its_own_lookups(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        warm = _jobs(range(3))
        ExecutionEngine(executor=SerialExecutor(), cache=cache).run(warm)
        entered, release = threading.Event(), threading.Event()

        @register("test-cc-gated")
        def _gated(params):
            entered.set()
            release.wait(10.0)
            return {"value": params["value"]}

        gated = ExecutionEngine(executor=SerialExecutor(), cache=cache)
        thread = threading.Thread(
            target=gated.run, args=([Job("test-cc-gated", {"value": 0})],)
        )
        thread.start()
        try:
            assert entered.wait(10.0)
            # the other engine's hits land while the gated grid runs
            hitting = ExecutionEngine(executor=SerialExecutor(), cache=cache)
            assert all(r.cached for r in hitting.run(warm))
        finally:
            release.set()
            thread.join()
        assert (gated.metrics.cache_hits, gated.metrics.cache_misses) == (0, 1)
        assert (hitting.metrics.cache_hits, hitting.metrics.cache_misses) == (3, 0)
        assert (cache.stats.hits, cache.stats.misses) == (3, 4)


class TestEvictionUnderContention:
    def test_capacity_bound_holds_with_racing_writers(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), capacity=10)

        def run(offset):
            engine = ExecutionEngine(executor=SerialExecutor(), cache=cache)
            engine.run(_jobs(range(offset, offset + 25)))

        threads = [threading.Thread(target=run, args=(off,))
                   for off in (0, 25)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # eviction may transiently overshoot between the two writers,
        # but a final enforcement settles exactly at capacity — and
        # every surviving entry is readable and correct
        cache._enforce_capacity()
        assert len(cache) <= 10
        for key in cache.entries():
            path = cache._path(key)
            entry = json.loads(open(path).read())
            assert entry["key"] == key
            value = entry["payload"]["value"]
            assert entry["payload"]["squared"] == value * value

    def test_no_scratch_files_left_behind(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        threads = [
            threading.Thread(
                target=lambda off: ExecutionEngine(
                    executor=SerialExecutor(), cache=cache
                ).run(_jobs(range(off, off + 20))),
                args=(off,),
            )
            for off in (0, 5)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.remove_temp_files() == 0


class TestUnwritableCacheDegradation:
    def _squatted_cache(self, tmp_path):
        """A cache whose root path is occupied by a regular file, so
        every write attempt raises an OSError (works even as root,
        where permission bits would not stop us)."""
        squatter = tmp_path / "cache"
        squatter.write_text("i am a file, not a directory")
        return ResultCache(str(squatter))

    def test_put_degrades_to_passthrough_with_one_warning(self, tmp_path, capsys):
        cache = self._squatted_cache(tmp_path)
        engine = ExecutionEngine(executor=SerialExecutor(), cache=cache)
        results = engine.run(_jobs(range(4)))
        assert all(r.ok for r in results)  # campaign unaffected
        assert cache.read_only
        assert cache.stats.write_errors == 4
        assert cache.stats.puts == 0
        err = capsys.readouterr().err
        assert err.count("is unwritable") == 1  # warned exactly once

    def test_reads_still_served_after_degradation(self, tmp_path, capsys):
        cache = ResultCache(str(tmp_path / "cache"))
        warm = ExecutionEngine(executor=SerialExecutor(), cache=cache)
        warm.run(_jobs(range(3)))
        # now break writes only: mark read_only as the degradation does
        cache.read_only = True
        engine = ExecutionEngine(executor=SerialExecutor(), cache=cache)
        results = engine.run(_jobs(range(6)))
        assert all(r.ok for r in results)
        assert [r.cached for r in results] == [True] * 3 + [False] * 3

    def test_engine_interrupt_cleanup_is_safe_on_squatted_root(self, tmp_path):
        cache = self._squatted_cache(tmp_path)
        engine = ExecutionEngine(executor=SerialExecutor(), cache=cache)
        engine.abort()  # must not raise on the unusable root


class TestDeadlineAndCancelHooks:
    """The per-call overrides the daemon uses: ``engine.run(jobs,
    timeout=...)`` preempts, ``cancel`` stops between jobs, and
    cancelled work is visible in the metrics."""

    def test_per_call_timeout_overrides_executor_default(self):
        executor = ProcessExecutor(workers=1, serial_fallback=False,
                                   timeout=None)
        engine = ExecutionEngine(executor=executor, cache=None)
        (result,) = engine.run(
            [Job("test-cc-sleep", {"seconds": 5.0, "value": 0})],
            timeout=0.3,
        )
        assert result.error["kind"] == "timeout"
        assert engine.metrics.timeouts == 1

    def test_serial_cancel_marks_unstarted_jobs(self):
        cancel = threading.Event()

        @register("test-cc-cancelling")
        def _cancelling(params):
            cancel.set()  # first job pulls the plug for the rest
            return {"ran": params["value"]}

        engine = ExecutionEngine(executor=SerialExecutor(), cache=None)
        results = engine.run(
            [Job("test-cc-cancelling", {"value": v}) for v in range(3)],
            cancel=cancel,
        )
        assert results[0].ok
        assert [r.error["kind"] for r in results[1:]] == ["cancelled"] * 2
        assert engine.metrics.cancelled == 2

    def test_cache_hits_served_even_when_cancelled(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        jobs = _jobs(range(3))
        ExecutionEngine(executor=SerialExecutor(), cache=cache).run(jobs)
        cancelled = threading.Event()
        cancelled.set()
        engine = ExecutionEngine(executor=SerialExecutor(), cache=cache)
        results = engine.run(jobs, cancel=cancelled)
        assert all(r.ok and r.cached for r in results)

    def test_terminate_kills_live_pools(self):
        executor = ProcessExecutor(workers=1, serial_fallback=False)
        engine = ExecutionEngine(executor=executor, cache=None)
        done = {}

        def run():
            done["results"] = engine.run(
                [Job("test-cc-sleep", {"seconds": 30.0, "value": 0})]
            )

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.5)  # let the pool spin up and start the job
        engine.abort()
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "terminate() did not unblock the run"
        (result,) = done["results"]
        assert not result.ok  # killed work is an error, never a hang
