"""Hypothesis property tests: the automatic partitioners over
fuzz-generated specifications, and the exploration frontier's
dominance invariants.

The fuzz generator builds valid specs with distinct behavior/variable
namespaces by construction, so every generated case must partition
cleanly under all three algorithms — coverage of the whole move space,
no regression past the round-robin start, and seeded determinism.

The compiled :class:`PartitionObjective` must price any valid
assignment — composite keys, unkeyed leaves, any key order — exactly
(``==``) as the per-``Partition`` reference metrics do.
"""

from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.apps.workloads import resolve_workload
from repro.exec import canonical_partition
from repro.experiments.explore import DesignPoint, ParetoFrontier, _dominates
from repro.fuzz.generator import GeneratorConfig, generate_case
from repro.graph.access_graph import AccessGraph
from repro.partition.auto import (
    annealed_partition,
    greedy_partition,
    kl_partition,
    movable_objects,
)
from repro.partition.metrics import (
    PartitionObjective,
    balance_penalty,
    cut_weight,
    partition_cost,
)
from repro.partition.partition import Partition

CONFIG = GeneratorConfig(budget=14)
COMPONENTS = ("SW", "HW")

ALGORITHMS = {
    "greedy": lambda spec, graph: greedy_partition(
        spec, COMPONENTS, graph=graph
    ),
    "kl": lambda spec, graph: kl_partition(
        spec, COMPONENTS, graph=graph, max_passes=3
    ),
    "annealed": lambda spec, graph: annealed_partition(
        spec, COMPONENTS, graph=graph, seed=11, steps=200
    ),
}

seeds = st.integers(min_value=0, max_value=60)
algorithms = st.sampled_from(sorted(ALGORITHMS))


@lru_cache(maxsize=None)
def generated(seed):
    case = generate_case(seed, CONFIG)
    graph = AccessGraph.from_specification(case.spec)
    return case.spec, graph


def round_robin(spec, graph):
    objects = movable_objects(spec, graph)
    return Partition(
        spec,
        {
            obj: COMPONENTS[index % len(COMPONENTS)]
            for index, obj in enumerate(objects)
        },
        name="round-robin",
    )


class TestPartitionerProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, algorithm=algorithms)
    def test_covers_every_leaf_and_variable(self, seed, algorithm):
        spec, graph = generated(seed)
        result = ALGORITHMS[algorithm](spec, graph)
        expected = set(movable_objects(spec, graph))
        assert set(result.assignment) == expected
        for leaf in spec.leaf_behaviors():
            result.component_of_behavior(leaf.name)  # must resolve
        assert set(result.components()) <= set(COMPONENTS)

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, algorithm=algorithms)
    def test_cost_not_worse_than_round_robin(self, seed, algorithm):
        spec, graph = generated(seed)
        result = ALGORITHMS[algorithm](spec, graph)
        baseline = round_robin(spec, graph)
        assert (
            partition_cost(graph, result)
            <= partition_cost(graph, baseline) + 1e-9
        )

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, algorithm=algorithms)
    def test_seeded_determinism(self, seed, algorithm):
        spec, graph = generated(seed)
        first = ALGORITHMS[algorithm](spec, graph)
        second = ALGORITHMS[algorithm](spec, graph)
        assert repr(canonical_partition(first)) == repr(
            canonical_partition(second)
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_partitioners_never_mutate_their_seed(self, seed):
        spec, graph = generated(seed)
        base = greedy_partition(spec, COMPONENTS, graph=graph)
        keep = Partition(spec, base.assignment, name="pinned")
        kl_partition(spec, COMPONENTS, graph=graph, seed_partition=keep)
        annealed_partition(
            spec, COMPONENTS, graph=graph, steps=50, seed_partition=keep
        )
        assert keep.name == "pinned"
        assert keep.assignment == base.assignment


WORKLOADS = ("medical", "pcm_pwm", "answering")


@lru_cache(maxsize=None)
def workload_spec(workload_id):
    spec = resolve_workload(workload_id).spec()
    return spec, AccessGraph.from_specification(spec)


def _source(key):
    return workload_spec(key) if isinstance(key, str) else generated(key)


@st.composite
def assignments(draw, spec, graph, components):
    """A valid assignment in random key order: a random set of keyed
    composites, every leaf without a keyed ancestor keyed (the others
    sometimes), and every partitionable variable."""
    component = st.sampled_from(components)
    composites = [b.name for b in spec.behaviors() if not b.is_leaf]
    keyed = draw(st.lists(st.sampled_from(composites), unique=True))
    assignment = {name: draw(component) for name in keyed}
    for leaf in spec.leaf_behaviors():
        covered = any(a.name in assignment for a in leaf.ancestors())
        if not covered or draw(st.booleans()):
            assignment[leaf.name] = draw(component)
    leaves = {leaf.name for leaf in spec.leaf_behaviors()}
    for obj in movable_objects(spec, graph):
        if obj not in leaves:
            assignment[obj] = draw(component)
    order = draw(st.permutations(list(assignment)))
    return {name: assignment[name] for name in order}


class TestObjectiveParity:
    @settings(max_examples=60, deadline=None)
    @given(
        source=st.one_of(st.sampled_from(WORKLOADS), seeds),
        components=st.sampled_from([("SW", "HW"), ("SW", "HW", "ACC")]),
        balance_weight=st.sampled_from([0, 0.35, 1]),
        pass_k=st.booleans(),
        data=st.data(),
    )
    def test_cost_equals_reference_metrics(
        self, source, components, balance_weight, pass_k, data
    ):
        spec, graph = _source(source)
        k = len(components) if pass_k else None
        total_weight = sum(c.weight for c in graph.data_channels()) or 1.0
        objective = PartitionObjective(spec, graph, balance_weight, k)

        def check(assignment):
            partition = Partition(spec, assignment, name="drawn")
            expected = (
                cut_weight(graph, partition) / total_weight
                + balance_weight * balance_penalty(partition, k)
            )
            assert objective.cost(assignment) == expected
            assert partition_cost(graph, partition, balance_weight, k) == expected

        # one objective across several key sets, including a move that
        # adds a key and the assignment without it scored again after
        for _ in range(3):
            assignment = data.draw(assignments(spec, graph, components))
            check(assignment)
            unkeyed = [
                leaf.name for leaf in spec.leaf_behaviors()
                if leaf.name not in assignment
            ]
            if unkeyed:
                moved = dict(assignment)
                moved[data.draw(st.sampled_from(unkeyed))] = data.draw(
                    st.sampled_from(components)
                )
                check(moved)
                check(assignment)


objective_vectors = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=1, max_value=50),
        st.floats(
            min_value=0.0, max_value=100.0,
            allow_nan=False, allow_infinity=False,
        ),
    ),
    min_size=1,
    max_size=24,
)


def _points(vectors):
    return [
        DesignPoint(
            allocation="a", recipe=f"r{index}", model="m", protocol="p",
            traffic=traffic, refined_lines=lines, cost=cost,
        )
        for index, (traffic, lines, cost) in enumerate(vectors)
    ]


class TestFrontierProperties:
    @settings(max_examples=80, deadline=None)
    @given(vectors=objective_vectors)
    def test_frontier_is_mutually_non_dominated(self, vectors):
        frontier = ParetoFrontier()
        for point in _points(vectors):
            frontier.add(point)
        members = frontier.points
        for a in members:
            for b in members:
                if a is not b:
                    assert not _dominates(a.objectives(), b.objectives())
                    assert a.objectives() != b.objectives()

    @settings(max_examples=80, deadline=None)
    @given(vectors=objective_vectors)
    def test_every_candidate_is_covered_by_the_frontier(self, vectors):
        """Every seen point is on the frontier, or some member is at
        least as good on every objective."""
        frontier = ParetoFrontier()
        points = _points(vectors)
        for point in points:
            frontier.add(point)
        for point in points:
            objectives = point.objectives()
            assert any(
                all(m <= o for m, o in zip(member.objectives(), objectives))
                for member in frontier.points
            )

    @settings(max_examples=80, deadline=None)
    @given(vectors=objective_vectors)
    def test_insertion_order_does_not_change_the_vector_set(self, vectors):
        forward = ParetoFrontier()
        for point in _points(vectors):
            forward.add(point)
        backward = ParetoFrontier()
        for point in reversed(_points(vectors)):
            backward.add(point)
        assert {p.objectives() for p in forward.points} == {
            p.objectives() for p in backward.points
        }
