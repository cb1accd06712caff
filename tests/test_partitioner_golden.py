"""Golden partitioner outputs: every call the explore campaign can make
on the medical and pcm_pwm workloads, plus KL and annealing seeded from
the medical hand partitions, must reproduce
``tests/golden/partitioners.txt`` byte for byte — name, mapping *and*
assignment order.

The hand partitions key composites (``Acquire``, ``Compute``) and leave
their leaves unkeyed; a search seeded from one completes the seed by
appending each unkeyed leaf on the component it resolves to.  The
``+leaves`` seeds do that completion by hand, so the two lines of each
pair must agree.

Refresh with ``pytest tests/test_partitioner_golden.py --update-golden``
only when a search change is intended.
"""

import json
from pathlib import Path

from repro.apps.workloads import resolve_workload
from repro.exec import canonical_partition
from repro.experiments.explore import (
    DEFAULT_ANNEAL_SEEDS,
    DEFAULT_REANNEAL_SEEDS,
    explore_allocations,
)
from repro.graph.access_graph import AccessGraph
from repro.partition.auto import (
    annealed_partition,
    greedy_partition,
    kl_partition,
)
from repro.partition.metrics import partition_cost
from repro.partition.partition import Partition

GOLDEN = Path(__file__).parent / "golden" / "partitioners.txt"
ALLOCATIONS = ("paper", "dual-asic")


def _line(label, partition):
    pairs = json.dumps(canonical_partition(partition), separators=(",", ":"))
    return f"{label} {partition.name} {pairs}"


def _outcome(label, search):
    try:
        partition = search()
    except Exception as exc:
        return f"{label} error {type(exc).__name__}: {exc}"
    return _line(label, partition)


def render_partitioner_calls():
    catalog = explore_allocations()
    lines = []
    for workload_id in ("medical", "pcm_pwm"):
        workload = resolve_workload(workload_id)
        spec = workload.spec()
        graph = AccessGraph.from_specification(spec)
        for alloc in ALLOCATIONS:
            comps = list(catalog[alloc].components)
            prefix = f"{workload_id}/{alloc}"
            layer1 = [("greedy", greedy_partition(spec, comps, graph=graph))]
            for seed in DEFAULT_ANNEAL_SEEDS:
                layer1.append((
                    f"annealed@{seed}",
                    annealed_partition(spec, comps, graph=graph, seed=seed),
                ))
            for recipe, partition in layer1:
                lines.append(_line(f"{prefix}/{recipe}", partition))
            for recipe, partition in layer1:
                lines.append(_line(
                    f"{prefix}/kl<{recipe}",
                    kl_partition(
                        spec, comps, graph=graph, seed_partition=partition
                    ),
                ))
                for seed in DEFAULT_REANNEAL_SEEDS:
                    lines.append(_line(
                        f"{prefix}/reanneal@{seed}<{recipe}",
                        annealed_partition(
                            spec, comps, graph=graph, seed=seed,
                            seed_partition=partition,
                        ),
                    ))
        if workload_id != "medical":
            continue
        seeds = []
        for design, partition in workload.designs(spec).items():
            completed = dict(partition.assignment)
            for leaf in spec.leaf_behaviors():
                completed.setdefault(
                    leaf.name, partition.component_of_behavior(leaf.name)
                )
            seeds.append((design, partition))
            seeds.append((
                f"{design}+leaves", Partition(spec, completed, name=design)
            ))
        for design, partition in seeds:
            for alloc in ALLOCATIONS:
                comps = list(catalog[alloc].components)
                prefix = f"{workload_id}/{alloc}"
                lines.append(_outcome(
                    f"{prefix}/kl<{design}",
                    lambda: kl_partition(
                        spec, comps, graph=graph, seed_partition=partition
                    ),
                ))
                lines.append(_outcome(
                    f"{prefix}/annealed@{DEFAULT_ANNEAL_SEEDS[0]}<{design}",
                    lambda: annealed_partition(
                        spec, comps, graph=graph,
                        seed=DEFAULT_ANNEAL_SEEDS[0],
                        seed_partition=partition,
                    ),
                ))
    return "\n".join(lines) + "\n"


def test_partitioners_reproduce_golden(request):
    rendered = render_partitioner_calls()
    if request.config.getoption("--update-golden"):
        GOLDEN.write_text(rendered)
        return
    assert rendered == GOLDEN.read_text(), (
        "partitioner output drifted from tests/golden/partitioners.txt; "
        "refresh with pytest --update-golden only if intentional"
    )


def test_seeded_searches_never_worsen_the_hand_partitions():
    catalog = explore_allocations()
    workload = resolve_workload("medical")
    spec = workload.spec()
    graph = AccessGraph.from_specification(spec)
    for design, seed in workload.designs(spec).items():
        for alloc in ALLOCATIONS:
            comps = list(catalog[alloc].components)
            seed_cost = partition_cost(graph, seed, 0.35, len(comps))
            for search in (kl_partition, annealed_partition):
                result = search(spec, comps, graph=graph, seed_partition=seed)
                assert isinstance(result, Partition), (design, alloc)
                # a valid partition: every leaf resolves to a component
                for leaf in spec.leaf_behaviors():
                    assert result.component_of_behavior(leaf.name) in comps
                cost = partition_cost(graph, result, 0.35, len(comps))
                assert cost <= seed_cost, (design, alloc, search.__name__)
