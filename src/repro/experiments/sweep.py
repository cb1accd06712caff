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
    from repro.exec import Job, canonical_partition
    from repro.exec.campaigns import limits_to_params
    from repro.experiments._campaign import bracket, prologue, select

    setup = prologue(workload, spec, inputs, engine)
    catalog = setup.workload.designs(setup.spec)
    design_names = select("design", designs, catalog)
    model_names = select("model", models, [model.name for model in ALL_MODELS])
    protocol_names = list(protocols) if protocols else list(DEFAULT_PROTOCOLS)
    seed_list = list(seeds) if seeds is not None else list(DEFAULT_SEEDS)
    limits_data = limits_to_params(limits)

    # one job per (family, chunk): a chunk is up to BATCH_LANES seeds
    # of one batch-cell job, or the single seed of one sweep-cell job
    if batch:
        chunks = [
            seed_list[i : i + BATCH_LANES]
            for i in range(0, len(seed_list), BATCH_LANES)
        ]
    else:
        chunks = [[seed] for seed in seed_list]
    grid = [
        (design, model, protocol, chunk)
        for design in design_names
        for model in model_names
        for protocol in protocol_names
        for chunk in chunks
    ]
    jobs = []
    for design, model, protocol, chunk in grid:
        params = {
            "workload": setup.workload.id,
            "spec": setup.spec_text,
            "partition": canonical_partition(catalog[design]),
            "design": design,
            "model": model,
            "protocol": protocol,
            "inputs": setup.inputs,
            "limits": limits_data,
        }
        label = f"sweep:{design}:{model}:{protocol}:"
        if batch:
            params["seeds"] = chunk
            label += f"s{chunk[0]}-s{chunk[-1]}x{len(chunk)}"
        else:
            params["seed"] = chunk[0]
            label += f"s{chunk[0]}"
        jobs.append(
            Job("batch-cell" if batch else "sweep-cell", params, label=label)
        )

    result = SweepResult()
    with bracket(
        setup.engine, "sweep", jobs=len(jobs), designs=len(design_names),
        models=len(model_names), protocols=len(protocol_names),
        seeds=len(seed_list),
    ) as complete:
        for (design, model, protocol, chunk), job_result in zip(
            grid, setup.engine.run(jobs)
        ):
            payload = job_result.require()
            cells = payload["cells"] if batch else [payload]
            for seed, cell in zip(chunk, cells):
                result.cells.append(
                    _sweep_cell(design, model, protocol, seed, cell)
                )
        complete["cells"] = len(result.cells)
        complete["mismatched"] = len(result.failures())
    return result


def _sweep_cell(design, model, protocol, seed, payload) -> SweepCell:
    """One grid point from its ``sweep-cell`` payload (or its lane of
    a ``batch-cell`` payload)."""
    if "error" in payload:
        raise ReproError(
            f"sweep:{design}:{model}:{protocol}:s{seed} "
            f"failed: {payload['error']}"
        )
    return SweepCell(
        design=design,
        model=model,
        protocol=protocol,
        seed=seed,
        refined_lines=payload["refined_lines"],
        steps=payload["steps"],
        equivalent=payload["equivalent"],
        kernel=payload.get("kernel", "compiled"),
    )
