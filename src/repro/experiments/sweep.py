"""``repro sweep``: a cross-product campaign over designs x models x
protocols x seeds.

Each cell refines one (design, model, protocol) combination and
co-simulates it against the original under a seeded input stimulus
(seed 0 is the baseline vector; other seeds re-roll every data input
deterministically — see :func:`repro.exec.campaigns.sweep_inputs`).
The grid runs through the :mod:`repro.exec` engine, so ``--executor
process`` parallelises it and a result cache makes warm re-runs free.

The rendered table carries no wall-clock, so any executor produces a
byte-identical report for the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.experiments.tables import render_table
from repro.models.impl_models import ALL_MODELS
from repro.obs.events import (
    NULL_JOURNAL,
    bind_request_id,
    current_request_id,
    new_request_id,
)
from repro.sim.kernel import KernelLimits
from repro.spec.specification import Specification

__all__ = ["SweepCell", "SweepResult", "run_sweep"]

DEFAULT_PROTOCOLS = ("handshake",)
DEFAULT_SEEDS = (0,)
#: seeds per ``batch-cell`` job of a ``batch=True`` sweep
BATCH_LANES = 8


@dataclass
class SweepCell:
    """One (design, model, protocol, seed) point of the sweep."""

    design: str
    model: str
    protocol: str
    seed: int
    refined_lines: int
    steps: int
    equivalent: bool
    #: which simulation kernel produced this cell's verdict
    #: ("compiled" for sweep-cell jobs, "batched" for batch-cell lanes)
    kernel: str = "compiled"


@dataclass
class SweepResult:
    """All cells, in grid order (design, model, protocol, seed)."""

    cells: List[SweepCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.equivalent for cell in self.cells)

    def failures(self) -> List[SweepCell]:
        return [cell for cell in self.cells if not cell.equivalent]

    def render(self) -> str:
        headers = ["Design", "Model", "Protocol", "Seed",
                   "refined lines", "steps", "equivalent"]
        rows = [
            [
                cell.design, cell.model, cell.protocol, str(cell.seed),
                str(cell.refined_lines), str(cell.steps),
                "OK" if cell.equivalent else "MISMATCH",
            ]
            for cell in self.cells
        ]
        failed = len(self.failures())
        lines = [
            render_table(
                headers, rows,
                title="Sweep: designs x models x protocols x seeds",
            ),
            "",
            f"cells: {len(self.cells)}, equivalent: "
            f"{len(self.cells) - failed}, mismatched: {failed}",
        ]
        return "\n".join(lines)

    def kernel_counts(self) -> Dict[str, int]:
        """How many cells each kernel variant produced — the audit
        trail for mixed batched/serial (or cache-hit) campaigns."""
        counts: Dict[str, int] = {}
        for cell in self.cells:
            counts[cell.kernel] = counts.get(cell.kernel, 0) + 1
        return counts

    def as_json(self) -> str:
        """The machine-readable report (``repro sweep --json``): every
        cell with its kernel variant, plus per-variant counts.  The
        cell list is byte-identical between serial and batched runs
        except for the ``kernel`` tags themselves."""
        import json

        return json.dumps(
            {
                "cells": [
                    {
                        "design": cell.design,
                        "model": cell.model,
                        "protocol": cell.protocol,
                        "seed": cell.seed,
                        "refined_lines": cell.refined_lines,
                        "steps": cell.steps,
                        "equivalent": cell.equivalent,
                        "kernel": cell.kernel,
                    }
                    for cell in self.cells
                ],
                "kernels": self.kernel_counts(),
                "equivalent": len(self.cells) - len(self.failures()),
                "mismatched": len(self.failures()),
            },
            indent=2,
            sort_keys=True,
        )


def run_sweep(
    spec: Optional[Specification] = None,
    designs: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
    protocols: Optional[Sequence[str]] = None,
    seeds: Optional[Sequence[int]] = None,
    inputs: Optional[Dict[str, int]] = None,
    limits: Optional[KernelLimits] = None,
    engine=None,
    batch: bool = False,
    workload=None,
) -> SweepResult:
    """Cross-product sweep; every cell is one ``sweep-cell`` job.

    ``workload`` names a :mod:`repro.apps.workloads` registry entry
    (default ``medical``) supplying the specification, design catalog
    and baseline stimulus; its id lands in every job's cache key.
    ``designs``/``models``/``protocols``/``seeds`` default to all of
    the workload's designs, all four models, the plain handshake
    protocol and the baseline stimulus (seed 0).  Jobs are dispatched
    through ``engine`` (an :class:`repro.exec.ExecutionEngine`;
    default: the serial, uncached reference).

    With ``batch=True`` the grid's seeds are grouped per (design,
    model, protocol) cell-family into ``batch-cell`` jobs of up to
    :data:`BATCH_LANES` seeds each — one refinement and one batched
    co-simulation per job instead of one per seed.  The resulting
    cells (and the rendered table) are byte-identical to the serial
    sweep; only the :attr:`SweepCell.kernel` tags differ.
    """
    from repro.exec import ExecutionEngine, Job, canonical_partition
    from repro.exec import canonical_spec_text
    from repro.exec.campaigns import limits_to_params

    from repro.apps.workloads import resolve_workload

    workload = resolve_workload(workload)
    spec = spec or workload.spec()
    spec.validate()
    inputs = dict(inputs if inputs is not None else workload.default_inputs)
    engine = engine if engine is not None else ExecutionEngine()

    catalog = workload.designs(spec)
    design_names = list(designs) if designs else sorted(catalog)
    unknown = sorted(set(design_names) - set(catalog))
    if unknown:
        raise ReproError(
            f"unknown design(s) {unknown}; choose from {sorted(catalog)}"
        )
    known_models = {model.name for model in ALL_MODELS}
    model_names = list(models) if models else sorted(known_models)
    unknown = sorted(set(model_names) - known_models)
    if unknown:
        raise ReproError(
            f"unknown model(s) {unknown}; choose from {sorted(known_models)}"
        )
    protocol_names = list(protocols) if protocols else list(DEFAULT_PROTOCOLS)
    seed_list = list(seeds) if seeds is not None else list(DEFAULT_SEEDS)

    spec_text = canonical_spec_text(spec)
    limits_data = limits_to_params(limits)

    # Campaign correlation: reuse the bound request ID when running
    # inside a daemon request, else mint a "sweep-" run ID so the
    # grid's job events and campaign events share one spine.
    journal = getattr(engine, "journal", NULL_JOURNAL)
    run_id = current_request_id()
    if not run_id and journal.enabled:
        run_id = "sweep-" + new_request_id()

    def _dispatch(jobs):
        with bind_request_id(run_id):
            journal.emit(
                "campaign-start", campaign="sweep", jobs=len(jobs),
                designs=len(design_names), models=len(model_names),
                protocols=len(protocol_names), seeds=len(seed_list),
            )
            return engine.run(jobs)

    def _finish(result: SweepResult) -> SweepResult:
        journal.emit(
            "campaign-complete", request_id=run_id, campaign="sweep",
            cells=len(result.cells), mismatched=len(result.failures()),
        )
        return result

    if batch:
        families = [
            (design, model, protocol)
            for design in design_names
            for model in model_names
            for protocol in protocol_names
        ]
        chunks = [
            seed_list[i : i + BATCH_LANES]
            for i in range(0, len(seed_list), BATCH_LANES)
        ]
        jobs = [
            Job(
                "batch-cell",
                {
                    "workload": workload.id,
                    "spec": spec_text,
                    "partition": canonical_partition(catalog[design]),
                    "design": design,
                    "model": model,
                    "protocol": protocol,
                    "seeds": chunk,
                    "inputs": inputs,
                    "limits": limits_data,
                },
                label=(
                    f"sweep:{design}:{model}:{protocol}:"
                    f"s{chunk[0]}-s{chunk[-1]}x{len(chunk)}"
                ),
            )
            for design, model, protocol in families
            for chunk in chunks
        ]
        result = SweepResult()
        job_results = iter(_dispatch(jobs))
        for design, model, protocol in families:
            for chunk in chunks:
                payload = next(job_results).require()
                for seed, cell in zip(chunk, payload["cells"]):
                    if "error" in cell:
                        raise ReproError(
                            f"sweep:{design}:{model}:{protocol}:s{seed} "
                            f"failed: {cell['error']}"
                        )
                    result.cells.append(
                        SweepCell(
                            design=design,
                            model=model,
                            protocol=protocol,
                            seed=seed,
                            refined_lines=cell["refined_lines"],
                            steps=cell["steps"],
                            equivalent=cell["equivalent"],
                            kernel=cell["kernel"],
                        )
                    )
        return _finish(result)

    grid = [
        (design, model, protocol, seed)
        for design in design_names
        for model in model_names
        for protocol in protocol_names
        for seed in seed_list
    ]
    jobs = [
        Job(
            "sweep-cell",
            {
                "workload": workload.id,
                "spec": spec_text,
                "partition": canonical_partition(catalog[design]),
                "design": design,
                "model": model,
                "protocol": protocol,
                "seed": seed,
                "inputs": inputs,
                "limits": limits_data,
            },
            label=f"sweep:{design}:{model}:{protocol}:s{seed}",
        )
        for design, model, protocol, seed in grid
    ]

    result = SweepResult()
    for (design, model, protocol, seed), job_result in zip(
        grid, _dispatch(jobs)
    ):
        payload = job_result.require()
        result.cells.append(
            SweepCell(
                design=design,
                model=model,
                protocol=protocol,
                seed=seed,
                refined_lines=payload["refined_lines"],
                steps=payload["steps"],
                equivalent=payload["equivalent"],
                kernel=payload.get("kernel", "compiled"),
            )
        )
    return _finish(result)
