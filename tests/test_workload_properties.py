"""Property tests over the workload registry (Hypothesis).

Two invariants every registry entry advertises, exercised with
generated stimuli instead of the single default vector:

* the default design refines to an *equivalent* implementation under
  every one of the four implementation models;
* one simulator reused across the vectors is indistinguishable,
  vector for vector, from a fresh simulator per vector.

Refined designs are cached per (workload, model) at module level —
refinement is deterministic and read-only under co-simulation, so one
build serves every Hypothesis example.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fuzz import check_reuse_parity
from repro.models import ALL_MODELS
from repro.refine import Refiner
from repro.sim.equivalence import check_equivalence

_SPECS = {}
_REFINED = {}

_COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _spec(workload):
    if workload.id not in _SPECS:
        spec = workload.spec()
        spec.validate()
        _SPECS[workload.id] = spec
    return _SPECS[workload.id]


def _refined(workload, model):
    key = (workload.id, model.name)
    if key not in _REFINED:
        spec = _spec(workload)
        partition = workload.designs(spec)[workload.default_design]
        _REFINED[key] = Refiner(spec, partition, model).run()
    return _REFINED[key]


class TestRegistryProperties:
    @settings(max_examples=8, **_COMMON)
    @given(model=st.sampled_from(ALL_MODELS), seed=st.integers(0, 2**16))
    def test_equivalent_under_every_model(self, workload, model, seed):
        """check_equivalence holds for the default design across all
        four models and generated input vectors."""
        design = _refined(workload, model)
        inputs = workload.input_vectors(seed, count=1)[0]
        report = check_equivalence(design, inputs=inputs)
        assert report.equivalent, (
            f"{workload.id}/{model.name} seed={seed}: {report.describe()}"
        )

    @settings(max_examples=4, **_COMMON)
    @given(seed=st.integers(0, 2**16))
    def test_batch_kernel_matches_single_lane(self, workload, seed):
        """One batch of generated vectors through a reused simulator
        produces exactly the fresh-simulator outcomes, vector by
        vector (the always-on fuzz oracle ``check_reuse_parity``)."""
        vectors = workload.input_vectors(seed, count=4)
        failures = check_reuse_parity(_spec(workload), vectors)
        assert failures == [], "\n".join(f.detail for f in failures)
