"""Functional-equivalence checking of original vs refined designs.

The paper's third motivation for refinement: "the interface design of
the refinement makes the partitioned specification simulatable,
allowing the designer to verify the system's functional correctness
after a design step".  This module performs that verification:

* run the original specification and the refined one on the same
  inputs;
* compare (a) the write *traces* of every output variable (observable
  behaviour, order-sensitive), (b) the final values of the outputs, and
  (c) the final values of every relocated internal variable, read out
  of the memory behavior's storage through the refined design's
  observation map.

The refined run completes at kernel quiescence with the root process
finished; the endless server behaviors (memories, arbiters, interfaces,
``B_NEW`` wrappers) legitimately remain blocked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import EquivalenceError
from repro.refine.refiner import RefinedDesign
from repro.sim.interpreter import SimulationResult, Simulator

__all__ = [
    "Mismatch",
    "EquivalenceReport",
    "check_equivalence",
    "check_equivalence_batch",
    "compare_runs",
]


@dataclass
class Mismatch:
    """One observed divergence."""

    kind: str  # "output-trace" | "output-value" | "memory-value" | "completion"
    name: str
    original: object
    refined: object

    def __str__(self) -> str:
        return (
            f"{self.kind} mismatch on {self.name!r}: "
            f"original={self.original!r} refined={self.refined!r}"
        )


class EquivalenceReport:
    """Outcome of one equivalence check."""

    def __init__(
        self,
        design: RefinedDesign,
        inputs: Dict[str, object],
        original_run: SimulationResult,
        refined_run: SimulationResult,
    ):
        self.design = design
        self.inputs = dict(inputs)
        self.original_run = original_run
        self.refined_run = refined_run
        self.mismatches: List[Mismatch] = []

    @property
    def equivalent(self) -> bool:
        return not self.mismatches

    def raise_if_mismatched(self) -> "EquivalenceReport":
        if not self.equivalent:
            raise EquivalenceError(
                f"{self.design.model.name} refinement of "
                f"{self.design.original.name!r} diverges: "
                + "; ".join(str(m) for m in self.mismatches[:5])
            )
        return self

    def describe(self) -> str:
        verdict = "EQUIVALENT" if self.equivalent else "MISMATCH"
        lines = [
            f"{verdict}: {self.design.original.name} vs "
            f"{self.design.model.name} (inputs={self.inputs or '{}'})"
        ]
        lines.extend(f"  {m}" for m in self.mismatches)
        return "\n".join(lines)


def check_equivalence(
    design: RefinedDesign,
    inputs: Optional[Dict[str, object]] = None,
    limits=None,
    injector=None,
    require_completion: bool = False,
) -> EquivalenceReport:
    """Co-simulate and compare original vs refined.

    ``limits`` (a :class:`repro.sim.kernel.KernelLimits`) bounds both
    runs.  ``injector`` attaches a fault injector to the *refined* run only
    (the original is the golden reference), and with
    ``require_completion=True`` a refined run that goes quiescent
    without finishing raises :class:`repro.errors.DeadlockError`
    instead of reporting a completion mismatch — the fault-injection
    campaign's detection path.
    """
    inputs = dict(inputs or {})
    original_run = Simulator(design.original).run(inputs=inputs, limits=limits)
    refined_run = Simulator(design.spec).run(
        inputs=inputs,
        limits=limits,
        injector=injector,
        require_completion=require_completion,
    )
    return compare_runs(design, inputs, original_run, refined_run)


def compare_runs(
    design: RefinedDesign,
    inputs: Dict[str, object],
    original_run: SimulationResult,
    refined_run: SimulationResult,
) -> EquivalenceReport:
    """Build the :class:`EquivalenceReport` for one original/refined
    run pair — the comparison half of :func:`check_equivalence`,
    shared with the batched checker."""
    report = EquivalenceReport(design, inputs, original_run, refined_run)

    if original_run.completed != refined_run.completed:
        report.mismatches.append(
            Mismatch(
                "completion",
                design.spec.top.name,
                original_run.completed,
                refined_run.completed,
            )
        )
        return report

    for output in design.original.outputs():
        original_trace = [e.value for e in original_run.output_trace(output.name)]
        refined_trace = [e.value for e in refined_run.output_trace(output.name)]
        if original_trace != refined_trace:
            report.mismatches.append(
                Mismatch("output-trace", output.name, original_trace, refined_trace)
            )
        original_value = original_run.value_of(output.name)
        refined_value = refined_run.value_of(output.name)
        if original_value != refined_value:
            report.mismatches.append(
                Mismatch("output-value", output.name, original_value, refined_value)
            )

    for variable, holder in sorted(design.observation_map.items()):
        original_value = original_run.value_of(variable)
        refined_value = refined_run.value_of(variable, behavior=holder)
        if original_value != refined_value:
            report.mismatches.append(
                Mismatch("memory-value", variable, original_value, refined_value)
            )
    return report


def check_equivalence_batch(
    design: RefinedDesign,
    input_vectors: Sequence[Optional[Dict[str, object]]],
    limits=None,
    require_completion: bool = False,
) -> List[EquivalenceReport]:
    """Co-simulate many input vectors of one design, batched.

    The batched analogue of calling :func:`check_equivalence` once per
    vector: the original and the refined specification each run every
    vector through one reused :class:`repro.sim.batch.BatchSimulator`
    (compiled once), and each run pair is compared with the identical
    :func:`compare_runs` logic — reports are byte-for-byte what the
    serial calls produce.  The first faulted run's error is re-raised,
    matching the serial path's propagation.  Fault injection is not
    supported here; use :func:`check_equivalence`.
    """
    from repro.sim.batch import BatchSimulator

    vectors = [dict(v or {}) for v in input_vectors]
    original_batch = BatchSimulator(design.original).run_batch(
        vectors, limits=limits
    )
    refined_batch = BatchSimulator(design.spec).run_batch(
        vectors,
        limits=limits,
        require_completion=require_completion,
    )
    for lane in original_batch + refined_batch:
        if lane.error is not None:
            raise lane.error
    return [
        compare_runs(
            design,
            vectors[i],
            original_batch[i].result,
            refined_batch[i].result,
        )
        for i in range(len(vectors))
    ]
