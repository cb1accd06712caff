"""Cost metrics for automatic partitioning.

The paper takes the partition as an input (SpecSyn [5] produced it);
these metrics give the baseline partitioners an objective in the same
spirit: minimise the *cut* (cross-partition channel weight, which is
precisely the traffic data-related refinement will turn into bus
transactions) while keeping the computational load balanced across
components.

:func:`cut_weight`, :func:`load_by_component` and
:func:`balance_penalty` are the plain per-:class:`Partition` reference
definitions.  The partitioners score candidates through
:class:`PartitionObjective` instead, which resolves the spec and graph
once and then prices a bare assignment dict with the same arithmetic;
:func:`partition_cost` is a one-shot use of it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.errors import PartitionError
from repro.graph.access_graph import AccessGraph
from repro.partition.partition import Partition
from repro.spec.behavior import Behavior
from repro.spec.specification import Specification
from repro.spec.visitor import count_statements

__all__ = [
    "cut_weight",
    "load_by_component",
    "balance_penalty",
    "partition_cost",
    "PartitionObjective",
]


def cut_weight(graph: AccessGraph, partition: Partition) -> float:
    """Total static weight of channels whose behavior and variable live
    on different components."""
    total = 0.0
    for channel in graph.data_channels():
        behavior_side = partition.effective_component_of_behavior(channel.behavior)
        variable_side = partition.component_of_variable(channel.variable)
        if behavior_side != variable_side:
            total += channel.weight
    return total


def load_by_component(partition: Partition) -> Dict[str, int]:
    """Statement count each component executes (a crude area/time
    proxy)."""
    load: Dict[str, int] = {c: 0 for c in partition.components()}
    for leaf in partition.spec.leaf_behaviors():
        component = partition.effective_component_of_behavior(leaf.name)
        load[component] = load.get(component, 0) + count_statements(leaf.stmt_body)
    return load


def balance_penalty(
    partition: Partition, expected_components: Optional[int] = None
) -> float:
    """Imbalance of the computational load: 0 for perfect balance,
    approaching 1 when one component does everything.

    ``expected_components`` is the number of components the partitioner
    *wants* to use; without it a partition that collapsed everything
    onto one component would score perfect balance (its fair share
    would be computed over the single surviving component)."""
    load = load_by_component(partition)
    total = sum(load.values())
    if total == 0:
        return 0.0
    biggest = max(load.values())
    fair_share = total / max(expected_components or len(load), 1)
    return (biggest - fair_share) / total


#: per key set: ``(channels, leaves)`` with each behavior replaced by
#: the assignment key it reads its component through
_Resolved = Tuple[List[Tuple[str, str, float]], List[Tuple[str, int]]]


class PartitionObjective:
    """The partitioners' objective, compiled once per search: normalised
    cut plus weighted imbalance of a plain ``{object: component}``
    assignment.  Lower is better.

    Construction resolves everything that does not depend on the
    assignment: the data channels as ``(behavior, variable, weight)``
    in :meth:`AccessGraph.data_channels` order, the per-leaf statement
    counts and the total channel weight.  Which *key* a behavior reads
    its component through (itself, an assigned ancestor, or for an
    unassigned composite its initial-child chain — the resolution of
    :meth:`Partition.effective_component_of_behavior`) depends only on
    the assignment's key set, so it is resolved once per distinct key
    set and cached under it; a move that adds a key therefore never
    changes the resolution seen by assignments without that key.

    :meth:`cost` recomputes the cut in channel order and the load in
    first-appearance component order on every call (no incremental
    deltas), so it equals ``cut_weight / total_weight + balance_weight *
    balance_penalty`` of the same assignment bit for bit.  Assignments
    are trusted to be valid (every leaf resolves, every channel variable
    is assigned) — the partitioners validate their start and result.
    """

    def __init__(
        self,
        spec: Specification,
        graph: AccessGraph,
        balance_weight: float = 0.35,
        expected_components: Optional[int] = None,
    ):
        self.balance_weight = balance_weight
        self.expected_components = expected_components
        channels = graph.data_channels()
        self.total_weight = sum(c.weight for c in channels) or 1.0
        self._channels = [(c.behavior, c.variable, c.weight) for c in channels]
        self._leaves = [
            (leaf.name, count_statements(leaf.stmt_body))
            for leaf in spec.leaf_behaviors()
        ]
        self._spec = spec
        self._nodes: Dict[str, Behavior] = {}
        for node in spec.behaviors():
            self._nodes.setdefault(node.name, node)
        self._resolved: Dict[FrozenSet[str], _Resolved] = {}

    def _key_of(self, behavior_name: str, keys: FrozenSet[str]) -> str:
        """The key ``behavior_name`` resolves through under ``keys``."""
        node = self._nodes.get(behavior_name)
        if node is None:
            self._spec.find_behavior(behavior_name)  # raises SpecError
        while True:
            probe = node
            while probe is not None:
                if probe.name in keys:
                    return probe.name
                probe = probe.parent
            if getattr(node, "subs", None) is None:
                raise PartitionError(
                    f"behavior {behavior_name!r} resolves to no component"
                )
            node = self._nodes[node.initial]

    def _resolve(self, assignment: Mapping[str, str]) -> _Resolved:
        keys = frozenset(assignment)
        resolved = self._resolved.get(keys)
        if resolved is None:
            resolved = (
                [
                    (self._key_of(behavior, keys), variable, weight)
                    for behavior, variable, weight in self._channels
                ],
                [(self._key_of(name, keys), count) for name, count in self._leaves],
            )
            self._resolved[keys] = resolved
        return resolved

    def cost(self, assignment: Mapping[str, str]) -> float:
        """:func:`partition_cost` of ``assignment``."""
        channels, leaves = self._resolve(assignment)
        cut = 0.0
        for key, variable, weight in channels:
            if assignment[key] != assignment[variable]:
                cut += weight
        load = dict.fromkeys(assignment.values(), 0)  # first-appearance order
        for key, count in leaves:
            load[assignment[key]] += count
        total = sum(load.values())
        if total == 0:
            penalty = 0.0
        else:
            fair_share = total / max(self.expected_components or len(load), 1)
            penalty = (max(load.values()) - fair_share) / total
        return cut / self.total_weight + self.balance_weight * penalty


def partition_cost(
    graph: AccessGraph,
    partition: Partition,
    balance_weight: float = 0.35,
    expected_components: Optional[int] = None,
) -> float:
    """The partitioners' objective (see :class:`PartitionObjective`)
    for one partition.  Lower is better."""
    objective = PartitionObjective(
        partition.spec, graph, balance_weight, expected_components
    )
    return objective.cost(partition.assignment)
