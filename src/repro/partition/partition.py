"""The partition data model.

A partition assigns *partitionable objects* — behaviors and
specification-scope variables — to named system components (the result
of the paper's partitioning task, which model refinement takes as
input; Figure 1c, Figure 2).

Behaviors may be assigned at any granularity: assigning a composite
assigns its whole subtree.  Every leaf behavior must resolve to a
component via itself or its nearest assigned ancestor, and every
partitionable variable must be assigned explicitly (variables have a
*home* component even in models that later map them to global memory —
the home decides which local memory holds them in Model4 and which
global memory module they land in for Model2/Model3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import PartitionError
from repro.spec.behavior import Behavior
from repro.spec.specification import Specification
from repro.spec.variable import StorageClass

__all__ = ["Partition"]


class Partition:
    """An assignment of behaviors and variables to components.

    ``assignment`` maps object names (behavior names and global variable
    names) to component names.  Component order follows first
    appearance, so callers can rely on a stable "partition 1, partition
    2, ..." numbering (the p of the bus-count formulas).
    """

    def __init__(
        self,
        spec: Specification,
        assignment: Dict[str, str],
        name: str = "partition",
    ):
        self.spec = spec
        self.name = name
        self.assignment: Dict[str, str] = dict(assignment)
        self._validate()

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_mapping(
        cls,
        spec: Specification,
        assignment: Dict[str, str],
        name: str = "partition",
    ) -> "Partition":
        """Build and validate a partition from a plain mapping."""
        return cls(spec, assignment, name=name)

    def _validate(self) -> None:
        from repro.spec.variable import Role

        known_vars = {
            v.name
            for v in self.spec.variables
            if v.kind is StorageClass.VARIABLE and v.role is Role.INTERNAL
        }
        behavior_names = self._behavior_names()
        for obj in self.assignment:
            if obj in behavior_names or obj in known_vars:
                continue
            raise PartitionError(
                f"{self.name}: {obj!r} is neither a behavior nor a "
                "partitionable variable of the specification"
            )
        # every leaf must resolve through an assigned ancestor
        for leaf in self.spec.leaf_behaviors():
            if self._component_of_behavior_or_none(leaf.name) is None:
                raise PartitionError(
                    f"{self.name}: leaf behavior {leaf.name!r} has no "
                    "assigned component (assign it or an ancestor)"
                )
        for var_name in known_vars:
            if var_name not in self.assignment:
                raise PartitionError(
                    f"{self.name}: variable {var_name!r} is unassigned"
                )

    def _behavior_names(self) -> Set[str]:
        """Every behavior name of the specification (one tree walk)."""
        return {behavior.name for behavior in self.spec.behaviors()}

    # -- lookups ------------------------------------------------------------------

    def components(self) -> List[str]:
        """Component names in first-appearance order."""
        seen: List[str] = []
        for component in self.assignment.values():
            if component not in seen:
                seen.append(component)
        return seen

    @property
    def p(self) -> int:
        """Number of partitions (the p of the paper's bus formulas)."""
        return len(self.components())

    def component_of_behavior(self, behavior_name: str) -> str:
        """Component a behavior executes on (nearest assigned
        ancestor-or-self)."""
        component = self._component_of_behavior_or_none(behavior_name)
        if component is None:
            raise PartitionError(
                f"{self.name}: behavior {behavior_name!r} resolves to no component"
            )
        return component

    def _component_of_behavior_or_none(self, behavior_name: str) -> Optional[str]:
        node: Optional[Behavior] = self.spec.find_behavior(behavior_name)
        while node is not None:
            direct = self.assignment.get(node.name)
            if direct is not None:
                return direct
            node = node.parent
        return None

    def effective_component_of_behavior(self, behavior_name: str) -> str:
        """Like :meth:`component_of_behavior`, but an unassigned
        root-path composite resolves through its *initial* child — the
        side the composite's control structure lives on.  This is the
        resolution refinement and estimation share for composite
        behaviors (e.g. a top-level sequencer nobody assigned
        explicitly)."""
        name = behavior_name
        while True:
            try:
                return self.component_of_behavior(name)
            except PartitionError:
                behavior = self.spec.find_behavior(name)
                subs = getattr(behavior, "subs", None)
                if subs is None:
                    raise
                name = behavior.initial

    def component_of_variable(self, var_name: str) -> str:
        """Home component of a partitionable variable."""
        component = self.assignment.get(var_name)
        if component is None:
            raise PartitionError(
                f"{self.name}: variable {var_name!r} is unassigned"
            )
        return component

    def behaviors_of(self, component: str) -> List[str]:
        """Directly assigned behavior names on ``component``."""
        behavior_names = self._behavior_names()
        return [
            obj
            for obj, comp in self.assignment.items()
            if comp == component and obj in behavior_names
        ]

    def variables_of(self, component: str) -> List[str]:
        """Variables homed on ``component``."""
        behavior_names = self._behavior_names()
        return [
            obj
            for obj, comp in self.assignment.items()
            if comp == component and obj not in behavior_names
        ]

    def leaves_of(self, component: str) -> List[str]:
        """All leaf behaviors that execute on ``component``."""
        return [
            leaf.name
            for leaf in self.spec.leaf_behaviors()
            if self.component_of_behavior(leaf.name) == component
        ]

    def moved(self, obj: str, component: str) -> "Partition":
        """A new partition with ``obj`` reassigned to ``component``
        (used by the iterative-improvement partitioners)."""
        assignment = dict(self.assignment)
        assignment[obj] = component
        return Partition(self.spec, assignment, name=self.name)

    def __repr__(self) -> str:
        return f"<Partition {self.name!r} p={self.p}>"

    def describe(self) -> str:
        """Human-readable component-by-component listing."""
        lines = [f"partition {self.name} ({self.p} components)"]
        for component in self.components():
            behaviors = ", ".join(sorted(self.behaviors_of(component))) or "-"
            variables = ", ".join(sorted(self.variables_of(component))) or "-"
            lines.append(f"  {component}: behaviors [{behaviors}] variables [{variables}]")
        return "\n".join(lines)
