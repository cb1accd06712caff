"""One :class:`repro.sim.interpreter.Simulator`, many runs.

A simulator keeps its compiled closures across :meth:`Simulator.run`
calls and rebuilds everything else (kernel, frames, trace) on each.
Every run on a reused simulator must therefore equal a fresh
simulator's run of the same stimulus: outputs, output trace, step
count, simulated time and every frame — also after a run that aborted
on a limit or on a setup error.  :func:`repro.fuzz.oracle.check_reuse_parity`
checks the same property on every fuzz case and corpus entry; the
mutation tests here show that it catches a run that leaks state.
"""

import pytest

from repro.errors import SimulationError, SimulationLimitExceeded
from repro.experiments.fuzzing import replay_corpus
from repro.fuzz import iter_corpus
from repro.fuzz.generator import (
    GeneratorConfig,
    generate_case,
    generate_input_vectors,
)
from repro.fuzz.oracle import check_reuse_parity, run_all_oracles
from repro.models import MODEL1, MODEL4
from repro.refine.refiner import Refiner
from repro.sim.interpreter import Simulator
from repro.sim.kernel import KernelLimits


def _observed(result):
    return {
        "completed": result.completed,
        "outputs": result.output_values(),
        "trace": [(e.step, e.variable, e.value) for e in result.trace],
        "steps": result.steps,
        "time": result.time,
        "frames": {
            name: frame.snapshot() for name, frame in result._frames.items()
        },
    }


def _assert_fresh(reused, spec, inputs):
    again = reused.run(inputs=dict(inputs))
    fresh = Simulator(spec).run(inputs=dict(inputs))
    assert _observed(again) == _observed(fresh)


@pytest.fixture(scope="module")
def medical_model4(medical_spec, medical_designs):
    from repro.apps.medical import MEDICAL_INPUTS
    from repro.exec.campaigns import sweep_inputs

    spec = Refiner(medical_spec, medical_designs["Design1"], MODEL4).run().spec
    stimuli = [
        sweep_inputs(spec, seed, dict(MEDICAL_INPUTS)) for seed in range(8)
    ]
    return spec, stimuli


@pytest.fixture(scope="module")
def signal_case():
    case = generate_case(5, GeneratorConfig(signals=True, waits=True))
    return case.spec, generate_input_vectors(case.spec, 5, count=8)


class TestSimulatorReuse:
    def test_medical_design1_model4_seeds(self, medical_model4):
        spec, stimuli = medical_model4
        reused = Simulator(spec)
        for inputs in stimuli:
            _assert_fresh(reused, spec, inputs)

    def test_fuzz_case_vectors(self, signal_case):
        spec, vectors = signal_case
        reused = Simulator(spec)
        for inputs in vectors:
            _assert_fresh(reused, spec, inputs)

    def test_run_after_max_steps_abort(self, medical_model4):
        spec, stimuli = medical_model4
        reused = Simulator(spec)
        with pytest.raises(SimulationLimitExceeded, match="max_steps=200"):
            reused.run(
                inputs=dict(stimuli[0]), limits=KernelLimits(max_steps=200)
            )
        _assert_fresh(reused, spec, stimuli[1])

    def test_run_after_unknown_input_error(self, medical_model4):
        spec, stimuli = medical_model4
        reused = Simulator(spec)
        with pytest.raises(SimulationError, match="unknown inputs"):
            reused.run(inputs={"no_such_input": 1})
        _assert_fresh(reused, spec, stimuli[2])


@pytest.fixture
def trace_leaking_run(monkeypatch):
    """A ``Simulator.run`` that prepends the previous run's trace."""
    original = Simulator.run

    def run(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        previous = getattr(self, "_leaked_trace", [])
        self._leaked_trace = list(result.trace)
        result.trace = previous + result.trace
        return result

    monkeypatch.setattr(Simulator, "run", run)


class TestReuseParityOracle:
    def test_trace_leak_is_a_reuse_failure(self, signal_case, trace_leaking_run):
        spec, vectors = signal_case
        failures = check_reuse_parity(spec, vectors)
        assert failures
        assert {f.oracle for f in failures} == {"reuse"}
        assert all("reused vs fresh simulator: trace" in f.detail
                   for f in failures)

    def test_one_vector_case_reruns_it(self, signal_case, trace_leaking_run):
        spec, vectors = signal_case
        failures = check_reuse_parity(spec, vectors[:1])
        assert failures
        assert all(f.inputs == vectors[0] for f in failures)

    def test_runs_on_every_generated_case(self, trace_leaking_run):
        case = generate_case(0)
        vectors = generate_input_vectors(case.spec, 0, count=3)
        result = run_all_oracles(case, vectors, models=[MODEL1])
        assert result.checks == 1 + 2 * len(vectors) + len(vectors)
        assert "reuse" in {f.oracle for f in result.failures}

    def test_runs_on_every_corpus_entry(self, monkeypatch):
        from repro.experiments import fuzzing

        judged = []

        def spy(spec, input_vectors, max_steps):
            judged.append(spec.name)
            return check_reuse_parity(spec, input_vectors, max_steps)

        monkeypatch.setattr(fuzzing, "check_reuse_parity", spy)
        assert replay_corpus("tests/corpus", models=[MODEL1]) == []
        assert len(judged) == len(iter_corpus("tests/corpus")) == 3
