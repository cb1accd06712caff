"""Figure 10 reproduction: refined-specification size and refinement
CPU time for 3 designs x 4 models.

The paper measures "# lines in the refined specification / CPU time for
the refinement" on a SPARC5, observing refined specs 11-19x the
226-line original and times of 33-39 s.  We run the same sweep with our
refiner; absolute CPU seconds differ by three decades of hardware, so
the claims under test are the *relative* ones: every refined model is
an order of magnitude larger than the input (the 10x productivity
argument), Model4 is the largest for global-heavy designs (interfaces
and their protocol machinery), and the refinement itself is fast and
roughly model-independent.

Each cell's refined specification is validated, and optionally
co-simulated against the original for functional equivalence — the
paper's correctness argument, checkable here because the refined model
is executable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.experiments.figure9 import default_allocation
from repro.experiments.paperdata import (
    PAPER_FIGURE10_LINES,
    PAPER_FIGURE10_SECONDS,
    PAPER_ORIGINAL_LINES,
)
from repro.experiments.tables import render_table
from repro.models.impl_models import ALL_MODELS
from repro.refine.refiner import RefinedDesign
from repro.spec.specification import Specification

__all__ = ["Figure10Cell", "Figure10Result", "run_figure10"]


@dataclass
class Figure10Cell:
    """One (design, model) cell of Figure 10.

    ``procedure_seconds`` carries the per-procedure breakdown of
    ``refinement_seconds``; ``refined`` holds the full
    :class:`RefinedDesign` only when the cell was computed in-process
    (a job dispatched to a worker or answered from the result cache
    returns measurements, not the refined object).
    """

    design: str
    model: str
    refined_lines: int
    refinement_seconds: float
    ratio: float
    equivalent: Optional[bool]
    procedure_seconds: Dict[str, float] = field(default_factory=dict)
    refined: Optional[RefinedDesign] = None


class Figure10Result:
    """The full sweep plus the original size it is measured against."""

    def __init__(self, original_lines: int):
        self.original_lines = original_lines
        self.cells: Dict[str, Dict[str, Figure10Cell]] = {}

    def cell(self, design: str, model: str) -> Figure10Cell:
        return self.cells[design][model]

    def min_ratio(self) -> float:
        return min(
            cell.ratio for row in self.cells.values() for cell in row.values()
        )

    def max_ratio(self) -> float:
        return max(
            cell.ratio for row in self.cells.values() for cell in row.values()
        )

    def render(self, include_paper: bool = True) -> str:
        headers = ["Design", "Model1", "Model2", "Model3", "Model4"]
        rows = []
        for design, row in self.cells.items():
            cells = []
            for model in ("Model1", "Model2", "Model3", "Model4"):
                cell = row[model]
                eq = ""
                if cell.equivalent is not None:
                    eq = " OK" if cell.equivalent else " MISMATCH"
                cells.append(
                    f"{cell.refined_lines}/{cell.refinement_seconds * 1e3:.0f}ms"
                    f" ({cell.ratio:.1f}x){eq}"
                )
            rows.append([design] + cells)
            # paper reference rows exist only for the medical designs
            if include_paper and design in PAPER_FIGURE10_LINES:
                rows.append(
                    ["  (paper)"]
                    + [
                        f"{PAPER_FIGURE10_LINES[design][m]}/"
                        f"{PAPER_FIGURE10_SECONDS[design][m]}s "
                        f"({PAPER_FIGURE10_LINES[design][m] / PAPER_ORIGINAL_LINES:.1f}x)"
                        for m in ("Model1", "Model2", "Model3", "Model4")
                    ]
                )
        title = (
            "Figure 10: refined spec size / refinement CPU time "
            f"(original: {self.original_lines} lines; "
            f"paper original: {PAPER_ORIGINAL_LINES})"
        )
        return render_table(headers, rows, title=title)

    def render_breakdown(self) -> str:
        """The refinement CPU time of every cell decomposed per
        refinement procedure (the provenance of the Figure 10
        seconds)."""
        procedures: list = []
        for row in self.cells.values():
            for cell in row.values():
                for name in cell.procedure_seconds:
                    if name not in procedures:
                        procedures.append(name)
        if not procedures:
            return "no per-procedure timings recorded"
        headers = ["Design / Model"] + procedures + ["total"]
        rows = []
        for design, row in self.cells.items():
            for model in ("Model1", "Model2", "Model3", "Model4"):
                cell = row[model]
                seconds = cell.procedure_seconds
                total = sum(seconds.values())
                rows.append(
                    [f"{design} {model}"]
                    + [f"{seconds.get(p, 0.0) * 1e3:.2f}" for p in procedures]
                    + [f"{total * 1e3:.2f}"]
                )
        return render_table(
            headers,
            rows,
            title="Figure 10 breakdown: refinement milliseconds per procedure",
        )


def run_figure10(
    spec: Optional[Specification] = None,
    check_equivalence: bool = False,
    inputs: Optional[Dict[str, int]] = None,
    engine=None,
    workload=None,
) -> Figure10Result:
    """Run the full Figure 10 sweep.

    ``workload`` names a :mod:`repro.apps.workloads` registry entry
    (default ``medical``) supplying the specification, design set and
    default stimulus; its id lands in every job's cache key.  Every
    cell refines under the paper's :func:`default_allocation`.

    ``check_equivalence=True`` additionally co-simulates each refined
    design against the original (slower; used by the test suite and the
    benchmark harness rather than quick looks).

    The twelve cells are dispatched as ``figure10-cell`` jobs through
    ``engine`` (an :class:`repro.exec.ExecutionEngine`; default: the
    serial, uncached reference).  Note the report embeds wall-clock
    refinement times, so two *cold* runs differ in the timing digits;
    byte-reproducibility across executors comes from a shared result
    cache (the second run replays the first run's measurements).
    """
    from repro.exec import Job, canonical_partition
    from repro.exec.campaigns import allocation_to_params
    from repro.experiments._campaign import bracket, prologue

    setup = prologue(workload, spec, inputs, engine)
    original_lines = setup.spec.line_count()
    allocation_data = allocation_to_params(default_allocation())
    designs = setup.workload.designs(setup.spec)
    jobs = [
        Job(
            "figure10-cell",
            {
                "workload": setup.workload.id,
                "spec": setup.spec_text,
                "partition": canonical_partition(partition),
                "design": design_name,
                "model": model.name,
                "allocation": allocation_data,
                "check_equivalence": bool(check_equivalence),
                "inputs": setup.inputs,
            },
            label=f"figure10:{design_name}:{model.name}",
        )
        for design_name, partition in designs.items()
        for model in ALL_MODELS
    ]

    result = Figure10Result(original_lines)
    with bracket(
        setup.engine, "figure10", jobs=len(jobs), designs=len(designs),
        models=len(ALL_MODELS),
    ) as complete:
        measured = iter(setup.engine.run(jobs))
        for design_name in designs:
            result.cells[design_name] = {}
            for model in ALL_MODELS:
                payload = next(measured).require()
                result.cells[design_name][model.name] = Figure10Cell(
                    design=design_name,
                    model=model.name,
                    refined_lines=payload["refined_lines"],
                    refinement_seconds=payload["refinement_seconds"],
                    ratio=payload["refined_lines"] / max(original_lines, 1),
                    equivalent=payload["equivalent"],
                    procedure_seconds=dict(payload["procedure_seconds"]),
                )
        complete["cells"] = len(jobs)
    return result
