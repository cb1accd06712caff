"""Automatic partitioners — baselines standing in for SpecSyn's [5].

Three algorithms over the same move space (reassign one leaf behavior
or one variable to another component) and the same objective
(:class:`repro.partition.metrics.PartitionObjective`, the compiled form
of :func:`repro.partition.metrics.partition_cost`):

* :func:`greedy_partition` — constructive: start with everything on the
  first component, repeatedly take the single move that most reduces
  the cost until no move helps;
* :func:`kl_partition` — Kernighan-Lin-flavoured passes: within a pass
  every object moves exactly once (always the currently best move, even
  if locally worsening), then the best prefix of the pass is kept;
* :func:`annealed_partition` — simulated annealing with a geometric
  cooling schedule and a seeded RNG (runs are reproducible).

The searches work on plain ``{object: component}`` dicts scored by one
objective built per call, and each returns one validated
:class:`Partition` covering every leaf and every partitionable variable.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PartitionError
from repro.graph.access_graph import AccessGraph
from repro.partition.metrics import PartitionObjective
# re-exported under its historical name: perfbench/layers.py wraps
# ``repro.partition.auto.partition_cost`` by attribute
from repro.partition.metrics import partition_cost  # noqa: F401
from repro.partition.partition import Partition
from repro.spec.specification import Specification

__all__ = ["movable_objects", "greedy_partition", "kl_partition",
           "annealed_partition"]


def movable_objects(spec: Specification, graph: Optional[AccessGraph] = None):
    """The move space: every leaf behavior and partitionable variable.

    ``Partition.assignment`` keys objects by bare name, so a variable
    that shares a name with a behavior would collapse into one key and
    silently co-assign both.  Rather than guess which one the caller
    meant, refuse with a structured :class:`PartitionError` whose
    ``objects`` attribute lists the colliding names.
    """
    graph = graph or AccessGraph.from_specification(spec)
    leaves = [leaf.name for leaf in spec.leaf_behaviors()]
    variables = sorted(graph.variable_names)
    behavior_names = {behavior.name for behavior in spec.behaviors()}
    collisions = sorted(behavior_names & set(variables))
    if collisions:
        raise PartitionError(
            "ambiguous move space: variable name(s) "
            f"{collisions} shadow behavior names; partition assignment "
            "keys are flat, so these objects cannot be assigned "
            "independently — rename one side",
            objects=collisions,
        )
    return leaves + variables


def _move_space(spec: Specification, graph: AccessGraph) -> List[str]:
    """``movable_objects`` plus the empty-space guard shared by all
    three algorithms: an empty move space previously crashed annealing
    with a bare ``IndexError`` and let greedy/KL return an invalid
    empty-assignment partition."""
    objects = movable_objects(spec, graph)
    if not objects:
        raise PartitionError(
            "specification has no movable objects (no leaf behaviors "
            "and no partitionable variables); nothing to partition"
        )
    return objects


def _start(
    spec: Specification,
    objects: Sequence[str],
    components,
    seed_partition: Optional[Partition] = None,
) -> Dict[str, str]:
    """The working assignment a search moves: a copy of the seed's (so
    the caller's partition is never touched) or the round-robin start.

    A seed may key a composite and leave its leaves unkeyed (the
    medical hand partitions do); the copy appends each such leaf, in
    move-space order, on the component it already resolves to, so every
    object the search can pick has a key and the seed's cost is
    unchanged.  Round robin is balanced, so descent spends its moves
    reducing the cut instead of fixing a lopsided load; it is validated
    once as a :class:`Partition` (named ``auto``), so a move space the
    specification cannot partition fails with a
    :class:`PartitionError`."""
    if seed_partition:
        assignment = dict(seed_partition.assignment)
        for obj in objects:
            if obj not in assignment:
                assignment[obj] = seed_partition.component_of_behavior(obj)
        return assignment
    assignment = {
        obj: components[index % len(components)]
        for index, obj in enumerate(objects)
    }
    return Partition(spec, assignment, name="auto").assignment


def _moved(assignment: Dict[str, str], obj: str, component: str) -> Dict[str, str]:
    """``assignment`` with ``obj`` reassigned, key order preserved (a
    new key goes last, as :meth:`Partition.moved` would place it)."""
    candidate = dict(assignment)
    candidate[obj] = component
    return candidate


def greedy_partition(
    spec: Specification,
    components: Sequence[str] = ("SW", "HW"),
    graph: Optional[AccessGraph] = None,
    balance_weight: float = 0.35,
    max_rounds: int = 200,
) -> Partition:
    """Steepest-descent constructive partitioning."""
    if len(components) < 2:
        raise PartitionError("need at least two components to partition")
    graph = graph or AccessGraph.from_specification(spec)
    objects = _move_space(spec, graph)
    objective = PartitionObjective(spec, graph, balance_weight, len(components))
    current = _start(spec, objects, components)
    current_cost = objective.cost(current)

    for _ in range(max_rounds):
        best_move: Optional[Tuple[str, str]] = None
        best_cost = current_cost
        for obj in objects:
            here = current[obj]
            for component in components:
                if component == here:
                    continue
                cost = objective.cost(_moved(current, obj, component))
                if cost < best_cost - 1e-12:
                    best_cost = cost
                    best_move = (obj, component)
        if best_move is None:
            break
        current = _moved(current, *best_move)
        current_cost = best_cost
    return Partition(spec, current, name="greedy")


def kl_partition(
    spec: Specification,
    components: Sequence[str] = ("SW", "HW"),
    graph: Optional[AccessGraph] = None,
    balance_weight: float = 0.35,
    max_passes: int = 8,
    seed_partition: Optional[Partition] = None,
) -> Partition:
    """Kernighan-Lin-style iterative improvement with per-pass locking
    and best-prefix rollback."""
    if len(components) < 2:
        raise PartitionError("need at least two components to partition")
    graph = graph or AccessGraph.from_specification(spec)
    objects = _move_space(spec, graph)
    objective = PartitionObjective(spec, graph, balance_weight, len(components))
    current = _start(spec, objects, components, seed_partition)
    current_cost = objective.cost(current)

    for _ in range(max_passes):
        locked: set = set()
        trail: List[Tuple[Dict[str, str], float]] = []
        working = current
        while len(locked) < len(objects):
            best_move = None
            best_cost = math.inf
            for obj in objects:
                if obj in locked:
                    continue
                here = working[obj]
                for component in components:
                    if component == here:
                        continue
                    candidate = _moved(working, obj, component)
                    cost = objective.cost(candidate)
                    if cost < best_cost:
                        best_cost = cost
                        best_move = (obj, candidate)
            if best_move is None:
                break
            obj, working = best_move
            locked.add(obj)
            trail.append((working, best_cost))
        if not trail:
            break
        prefix_best = min(trail, key=lambda item: item[1])
        if prefix_best[1] < current_cost - 1e-12:
            current, current_cost = prefix_best
        else:
            break
    return Partition(spec, current, name="kl")


def annealed_partition(
    spec: Specification,
    components: Sequence[str] = ("SW", "HW"),
    graph: Optional[AccessGraph] = None,
    balance_weight: float = 0.35,
    seed: int = 1996,
    steps: int = 2000,
    start_temperature: float = 0.25,
    cooling: float = 0.995,
    seed_partition: Optional[Partition] = None,
) -> Partition:
    """Simulated annealing over the same move space (seeded,
    reproducible).  ``seed_partition`` starts the walk from an
    existing partition instead of the round-robin initial — the
    exploration campaign uses this to re-anneal frontier members."""
    if len(components) < 2:
        raise PartitionError("need at least two components to partition")
    graph = graph or AccessGraph.from_specification(spec)
    objects = _move_space(spec, graph)
    objective = PartitionObjective(spec, graph, balance_weight, len(components))
    rng = random.Random(seed)
    current = _start(spec, objects, components, seed_partition)
    current_cost = objective.cost(current)
    best, best_cost = current, current_cost
    temperature = start_temperature

    for _ in range(steps):
        obj = rng.choice(objects)
        here = current[obj]
        target = rng.choice([c for c in components if c != here])
        candidate = _moved(current, obj, target)
        cost = objective.cost(candidate)
        delta = cost - current_cost
        if delta <= 0 or rng.random() < math.exp(-delta / max(temperature, 1e-9)):
            current, current_cost = candidate, cost
            if cost < best_cost:
                best, best_cost = candidate, cost
        temperature *= cooling
    return Partition(spec, best, name="annealed")
