"""Many stimuli through one compiled simulator: per-stimulus parity with
a fresh single-stimulus run, exact error text, determinism and wiring.

The contract under test is absolute: every lane of a
:class:`repro.sim.batch.BatchSimulator` batch must be bit-identical —
outputs, traces, step counts, simulated time, completion and error
messages — to a fresh :class:`repro.sim.interpreter.Simulator` run of
the same stimulus.
"""

import pytest

from repro.errors import DeadlockError, SimulationError, SimulationLimitExceeded
from repro.models.impl_models import ALL_MODELS
from repro.refine.refiner import Refiner
from repro.sim import KernelLimits, Simulator
from repro.sim.batch import BatchSimulator
from repro.spec.builder import (
    assign,
    conc,
    leaf,
    sassign,
    seq,
    spec,
    wait_until,
    while_,
)
from repro.spec.expr import var
from repro.spec.types import int_type
from repro.spec.variable import Role, signal, variable


def _single_runs(design, stimuli, **kwargs):
    return [Simulator(design).run(inputs=dict(s), **kwargs) for s in stimuli]


def _assert_result_parity(batch, singles):
    assert len(batch) == len(singles)
    for lane, single in zip(batch, singles):
        assert lane.ok, lane.error_text
        result = lane.result
        assert result.completed == single.completed
        assert result.steps == single.steps
        assert result.time == single.time
        assert result.output_values() == single.output_values()
        assert [
            (e.step, e.variable, e.value) for e in result.trace
        ] == [(e.step, e.variable, e.value) for e in single.trace]


def _loop_spec():
    """Root loops ``n`` times through a signal wait: runtime, step count
    and trace length all scale with the ``n`` input, so runs differ in
    length and trip limits independently."""
    return spec(
        "Loopy",
        leaf(
            "Main",
            while_(
                var("i") < var("n"),
                [
                    sassign("s", var("i") + 1),
                    wait_until(var("s").eq(var("i") + 1)),
                    assign("i", var("i") + 1),
                    assign("out", var("out") + var("i")),
                ],
            ),
        ),
        variables=[
            variable("n", int_type(), role=Role.INPUT, init=1),
            variable("i", int_type(), init=0),
            variable("out", int_type(), role=Role.OUTPUT, init=0),
            signal("s", int_type(), init=0),
        ],
    )


def _gate_spec():
    """Completes only when the ``go`` input is 1: the producer writes
    ``go`` onto a signal the waiter blocks on, so ``go=0`` runs go
    quiescent with the root unfinished (a deadlock under
    ``require_completion``)."""
    return spec(
        "Gated",
        conc(
            "Top",
            [
                leaf("Producer", sassign("gate", var("go"))),
                leaf("Waiter", wait_until(var("gate").eq(1))),
            ],
        ),
        variables=[
            variable("go", int_type(), role=Role.INPUT, init=0),
            signal("gate", int_type(), init=0),
        ],
    )


class TestLaneParity:
    def test_builder_spec_lanes_match_single_runs(self):
        design = _loop_spec()
        design.validate()
        stimuli = [{"n": n} for n in (0, 1, 5, 2, 9, 3)]
        batch = BatchSimulator(design).run_batch(stimuli)
        _assert_result_parity(batch, _single_runs(design, stimuli))

    def test_medical_refined_lanes_match_single_runs(
        self, medical_spec, medical_designs
    ):
        from repro.apps.medical import MEDICAL_INPUTS
        from repro.exec.campaigns import sweep_inputs

        partition = medical_designs["Design2"]
        design = Refiner(medical_spec, partition, ALL_MODELS[0]).run()
        stimuli = [
            sweep_inputs(design.spec, seed, dict(MEDICAL_INPUTS))
            for seed in range(4)
        ]
        batch = BatchSimulator(design.spec).run_batch(stimuli)
        _assert_result_parity(batch, _single_runs(design.spec, stimuli))

    def test_walker_mode_batch_matches_walker_single(self):
        design = _loop_spec()
        design.validate()
        stimuli = [{"n": n} for n in (2, 4, 1)]
        batch = BatchSimulator(design, compile_cache=False).run_batch(stimuli)
        singles = [
            Simulator(design, compile_cache=False).run(inputs=dict(s))
            for s in stimuli
        ]
        _assert_result_parity(batch, singles)

    def test_determinism_across_stimulus_order(self):
        design = _loop_spec()
        design.validate()
        stimuli = [{"n": n} for n in (7, 0, 3, 5)]

        def snapshot(batch):
            return [
                (
                    lane.result.steps,
                    lane.result.output_values(),
                    [(e.step, e.variable, e.value) for e in lane.result.trace],
                )
                for lane in batch
            ]

        reference = snapshot(BatchSimulator(design).run_batch(stimuli))
        # runs share nothing mutable: permuting stimuli permutes
        # outcomes with them
        rev = BatchSimulator(design).run_batch(list(reversed(stimuli)))
        assert snapshot(rev) == list(reversed(reference))

    def test_one_simulator_many_batches(self):
        design = _loop_spec()
        design.validate()
        batcher = BatchSimulator(design)
        first = batcher.run_batch([{"n": 3}, {"n": 1}])
        second = batcher.run_batch([{"n": 3}, {"n": 1}])
        _assert_result_parity(second, [lane.result for lane in first])


class TestSimulatorReuse:
    def test_run_b_after_a_matches_fresh_simulator(self):
        # signals + waits: every suspension goes through the kernel's
        # sensitivity index.  The wait reads a variable, so each
        # execution builds its own request and resolves its buckets in
        # that run's kernel; run B gets a new kernel and must not see
        # anything run A left behind
        design = _loop_spec()
        design.validate()
        reused = Simulator(design)
        first = reused.run(inputs={"n": 6})
        second = reused.run(inputs={"n": 4})
        fresh = Simulator(design).run(inputs={"n": 4})
        assert second.kernel is not first.kernel
        assert second.completed == fresh.completed
        assert second.steps == fresh.steps
        assert second.time == fresh.time
        assert second.output_values() == fresh.output_values()
        assert [(e.step, e.variable, e.value) for e in second.trace] == [
            (e.step, e.variable, e.value) for e in fresh.trace
        ]


class TestErrorLanes:
    def test_limit_trips_per_lane_with_exact_message(self):
        design = _loop_spec()
        design.validate()
        limits = KernelLimits(max_steps=20)
        stimuli = [{"n": 2}, {"n": 500}, {"n": 3}]
        batch = BatchSimulator(design).run_batch(stimuli, limits=limits)
        sim = Simulator(design)

        healthy = [0, 2]
        for index in healthy:
            single = sim.run(inputs=dict(stimuli[index]), limits=limits)
            assert batch[index].ok
            assert batch[index].result.output_values() == single.output_values()

        assert not batch[1].ok
        with pytest.raises(SimulationLimitExceeded) as excinfo:
            sim.run(inputs=dict(stimuli[1]), limits=limits)
        assert batch[1].error_text == (
            f"{type(excinfo.value).__name__}: {excinfo.value}"
        )

    def test_deadlocked_lane_matches_single_lane_deadlock(self):
        design = _gate_spec()
        design.validate()
        stimuli = [{"go": 1}, {"go": 0}, {"go": 1}]
        batch = BatchSimulator(design).run_batch(
            stimuli, require_completion=True
        )
        assert batch[0].ok and batch[2].ok
        assert not batch[1].ok
        assert isinstance(batch[1].error, DeadlockError)
        with pytest.raises(DeadlockError) as excinfo:
            Simulator(design).run(inputs={"go": 0}, require_completion=True)
        assert batch[1].error_text == (
            f"{type(excinfo.value).__name__}: {excinfo.value}"
        )

    def test_setup_error_is_exact_and_lane_local(self):
        design = _loop_spec()
        design.validate()
        batch = BatchSimulator(design).run_batch(
            [{"n": 2}, {"bogus": 1}, {"out": 3}]
        )
        assert batch[0].ok
        assert batch[1].error_text == "SimulationError: unknown inputs: ['bogus']"
        assert batch[2].error_text == (
            "SimulationError: 'out' is not an input variable"
        )

    def test_raise_first_error(self, medical_spec, medical_designs):
        # check_equivalence_batch re-raises the first faulted run's error
        from repro.sim.equivalence import check_equivalence_batch

        design = Refiner(
            medical_spec, medical_designs["Design1"], ALL_MODELS[0]
        ).run()
        with pytest.raises(SimulationError, match="unknown inputs"):
            check_equivalence_batch(design, [{}, {"bogus": 1}])


class TestEquivalenceBatch:
    def test_reports_match_serial_equivalence(
        self, medical_spec, medical_designs
    ):
        from repro.apps.medical import MEDICAL_INPUTS
        from repro.exec.campaigns import sweep_inputs
        from repro.sim.equivalence import (
            check_equivalence,
            check_equivalence_batch,
        )

        design = Refiner(
            medical_spec, medical_designs["Design1"], ALL_MODELS[1]
        ).run()
        vectors = [
            sweep_inputs(design.spec, seed, dict(MEDICAL_INPUTS))
            for seed in range(3)
        ]
        reports = check_equivalence_batch(design, vectors)
        for vector, report in zip(vectors, reports):
            serial = check_equivalence(design, vector)
            assert report.equivalent == serial.equivalent
            assert [str(m) for m in report.mismatches] == [
                str(m) for m in serial.mismatches
            ]
            assert report.refined_run.steps == serial.refined_run.steps
            assert report.describe() == serial.describe()


class TestExecWiring:
    def test_batch_cell_payload_matches_sweep_cells(self, medical_spec):
        from repro.apps.medical import MEDICAL_INPUTS, all_designs
        from repro.exec import canonical_partition, canonical_spec_text
        from repro.exec.campaigns import get_task

        catalog = all_designs(medical_spec)
        base = {
            "spec": canonical_spec_text(medical_spec),
            "partition": canonical_partition(catalog["Design1"]),
            "design": "Design1",
            "model": "Model3",
            "protocol": "handshake",
            "inputs": dict(MEDICAL_INPUTS),
            "limits": None,
        }
        seeds = [0, 1, 2]
        batched = get_task("batch-cell")(dict(base, seeds=seeds))
        assert [cell["seed"] for cell in batched["cells"]] == seeds
        for seed, cell in zip(seeds, batched["cells"]):
            serial = get_task("sweep-cell")(dict(base, seed=seed))
            assert cell["kernel"] == "batched"
            assert serial["kernel"] == "compiled"
            for key in ("refined_lines", "equivalent", "inputs", "steps"):
                assert cell[key] == serial[key], key

    def test_run_sweep_batched_table_is_byte_identical(
        self, medical_spec, monkeypatch
    ):
        from repro.exec import ExecutionEngine
        from repro.experiments import sweep
        from repro.experiments.sweep import run_sweep

        # two seeds per job, so the 3-seed grid spans two chunks
        monkeypatch.setattr(sweep, "BATCH_LANES", 2)
        kwargs = dict(
            spec=medical_spec,
            designs=["Design1"],
            models=["Model1", "Model2"],
            seeds=[0, 1, 2],
        )
        serial = run_sweep(**kwargs)
        engine = ExecutionEngine()
        batched = run_sweep(batch=True, engine=engine, **kwargs)
        assert engine.metrics.jobs == 4  # 2 models x 2 seed chunks
        assert batched.render() == serial.render()
        assert serial.kernel_counts() == {"compiled": 6}
        assert batched.kernel_counts() == {"batched": 6}
        assert '"kernel": "batched"' in batched.as_json()

    def test_code_version_salt_covers_batch_module(self):
        import hashlib
        import os

        import repro
        from repro.exec.job import code_version_salt

        root = os.path.dirname(os.path.abspath(repro.__file__))

        def digest(skip=None):
            value = hashlib.sha256()
            for dirpath, dirnames, filenames in sorted(os.walk(root)):
                dirnames.sort()
                for filename in sorted(filenames):
                    if not filename.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, filename)
                    rel = os.path.relpath(path, root)
                    if rel == skip:
                        continue
                    value.update(rel.encode())
                    with open(path, "rb") as handle:
                        value.update(handle.read())
            return value.hexdigest()

        batch_rel = os.path.join("sim", "batch.py")
        assert os.path.exists(os.path.join(root, batch_rel))
        # the salt is exactly the all-files digest, and dropping the
        # batch module changes it: editing batch.py orphans every
        # cached batched result
        assert code_version_salt() == digest()
        assert digest(skip=batch_rel) != digest()
