"""Determinism guarantees of the execution engine: serial and parallel
runs of the same campaign produce byte-identical reports, and a
cache-warm re-run answers everything from disk without changing a byte.
"""

import pytest

from repro.exec import (
    ExecutionEngine,
    Job,
    ProcessExecutor,
    ResultCache,
    SerialExecutor,
    register,
)
from repro.experiments import run_figure10, run_robustness
from repro.experiments.fuzzing import run_fuzz
from repro.experiments.robustness import FaultScenario

SLICE_SCENARIOS = [
    FaultScenario(
        name="drop-done", kind="drop", target="b*_done",
        count=1, expect="recover",
    ),
    FaultScenario(
        name="kill-memory", kind="kill", target="?mem*",
        count=1, expect="detect",
    ),
]


def _slice_robustness(spec, seed=1996, engine=None):
    return run_robustness(
        spec=spec,
        scenarios=SLICE_SCENARIOS,
        designs=("Design1",),
        models=("Model4",),
        seed=seed,
        engine=engine,
    )


@register("test-echo")
def _echo_task(params):
    return {"value": params["value"]}


class TestGridOrder:
    """Results come back in grid order — by job identity, never by
    completion order."""

    def _jobs(self):
        return [Job("test-echo", {"value": i}) for i in range(8)]

    def test_serial_order(self):
        results = ExecutionEngine(executor=SerialExecutor()).run(self._jobs())
        assert [r.payload["value"] for r in results] == list(range(8))

    @pytest.mark.parametrize("cached", [False, True])
    def test_each_job_is_keyed_once_per_run(self, monkeypatch, tmp_path,
                                            cached):
        calls = []
        key = Job.key

        def spy(job, *args, **kwargs):
            calls.append(job.params["value"])
            return key(job, *args, **kwargs)

        monkeypatch.setattr(Job, "key", spy)
        cache = ResultCache(str(tmp_path)) if cached else None
        engine = ExecutionEngine(executor=SerialExecutor(), cache=cache)
        jobs = self._jobs()
        for _ in range(2):  # cold, then (with a cache) warm
            calls.clear()
            results = engine.run(jobs)
            assert sorted(calls) == list(range(8))
            assert [r.key for r in results] == [key(j) for j in jobs]

    def test_process_order(self):
        engine = ExecutionEngine(executor=ProcessExecutor(workers=2))
        results = engine.run(self._jobs())
        assert [r.payload["value"] for r in results] == list(range(8))


class TestSerialVsProcessReports:
    """The tentpole guarantee: the executor is invisible in the
    report bytes."""

    @pytest.mark.parametrize("seed", [7, 1996, 2024])
    def test_robustness_slice_identical_across_seeds(self, medical_spec, seed):
        serial = _slice_robustness(medical_spec, seed=seed)
        process = _slice_robustness(
            medical_spec,
            seed=seed,
            engine=ExecutionEngine(executor=ProcessExecutor(workers=2)),
        )
        assert process.render() == serial.render()

    def test_figure9_identical(self, medical_spec, fig9):
        from repro.experiments import run_figure9

        process = run_figure9(
            spec=medical_spec,
            engine=ExecutionEngine(executor=ProcessExecutor(workers=2)),
        )
        assert process.render() == fig9.render()

    def test_fuzz_identical(self):
        serial = run_fuzz(seed=11, count=6, corpus=None)
        process = run_fuzz(
            seed=11, count=6, corpus=None,
            engine=ExecutionEngine(executor=ProcessExecutor(workers=2)),
        )
        assert process.render() == serial.render()


class TestWarmCacheReRun:
    def test_hit_only_and_byte_identical(self, medical_spec, tmp_path):
        cold_engine = ExecutionEngine(cache=ResultCache(str(tmp_path)))
        cold = _slice_robustness(medical_spec, engine=cold_engine)
        assert cold_engine.metrics.executed == cold_engine.metrics.jobs > 0

        warm_engine = ExecutionEngine(cache=ResultCache(str(tmp_path)))
        warm = _slice_robustness(medical_spec, engine=warm_engine)
        assert warm_engine.metrics.executed == 0
        assert warm_engine.metrics.cache_hits == warm_engine.metrics.jobs
        assert warm.render() == cold.render()

    def test_figure10_identical_through_shared_cache(self, medical_spec, tmp_path):
        """Figure 10 embeds refinement wall-clock, so its byte-identity
        guarantee goes through the cache: a warm re-run replays the
        measured times instead of re-measuring them."""
        cache_root = str(tmp_path / "fig10")
        cold = run_figure10(
            spec=medical_spec, check_equivalence=False,
            engine=ExecutionEngine(cache=ResultCache(cache_root)),
        )
        warm_engine = ExecutionEngine(
            executor=ProcessExecutor(workers=2),
            cache=ResultCache(cache_root),
        )
        warm = run_figure10(
            spec=medical_spec, check_equivalence=False, engine=warm_engine,
        )
        assert warm_engine.metrics.executed == 0
        assert warm.render() == cold.render()

    def test_refresh_recomputes_but_stays_identical(self, medical_spec, tmp_path):
        cold = _slice_robustness(
            medical_spec,
            engine=ExecutionEngine(cache=ResultCache(str(tmp_path))),
        )
        refresh_engine = ExecutionEngine(
            cache=ResultCache(str(tmp_path)), refresh=True
        )
        refreshed = _slice_robustness(medical_spec, engine=refresh_engine)
        assert refresh_engine.metrics.cache_hits == 0
        assert refresh_engine.metrics.executed == refresh_engine.metrics.jobs
        assert refreshed.render() == cold.render()
