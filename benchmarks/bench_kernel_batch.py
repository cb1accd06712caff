"""Batched sweep: refine and compile once per family, reuse the simulator.

Runs the full production sweep unit for the 3-designs x 4-models
medical grid with ``LANES`` seeds per cell, two ways:

* ``serial`` — one job per (cell, seed), each job refining the design
  and running :func:`check_equivalence` with fresh compiled
  :class:`Simulator`\\ s (exactly what a ``sweep-cell`` task does);
* ``batched`` — the ``batch-cell`` path: refine once per cell, then
  :func:`check_equivalence_batch` runs every seed through one reused
  :class:`BatchSimulator` pair (original + refined).  Each pair wraps
  one :class:`Simulator` whose generated body functions persist across
  ``run()`` calls, so compilation is paid once per cell, not per seed.

Before timing, every seed's outputs, traces, steps and equivalence
verdicts are checked byte-identical to the serial runs — the speedup
only counts if the results are exactly the work the serial path
produces.  Timing uses ``time.process_time`` (CPU seconds) and
interleaves the two modes cell by cell over ``REPS`` repetitions; each
mode's time is the sum over cells of the per-cell minimum, and the
speedup is min-serial over min-batched.

Floor: >= 1.5x at 8 lanes, enforced on every CPU count (the
measurement is single-process CPU time, so core count does not enter
it); ``REPRO_BENCH_INFORMATIONAL=1`` reports without enforcing.
Writes ``kernel_batch.txt`` and ``kernel_batch.json`` under
``benchmarks/output/``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

from repro.apps.medical import MEDICAL_INPUTS, all_designs, medical_specification
from repro.exec.campaigns import sweep_inputs
from repro.models.impl_models import ALL_MODELS
from repro.refine.refiner import Refiner
from repro.sim.equivalence import check_equivalence, check_equivalence_batch

#: Seeds per (design, model) cell-family.
LANES = 8

#: Interleaved repetitions per mode; min-of-REPS is reported.
REPS = 5

MIN_SPEEDUP = 1.5


def _cells():
    spec = medical_specification()
    spec.validate()
    return spec, [
        (design_name, model, partition)
        for design_name, partition in all_designs(spec).items()
        for model in ALL_MODELS
    ]


def _vectors(spec) -> List[Dict[str, object]]:
    return [
        sweep_inputs(spec, seed, dict(MEDICAL_INPUTS)) for seed in range(LANES)
    ]


def _report_key(report):
    """Everything a sweep report derives from one equivalence check."""
    refined = report.refined_run
    return (
        report.equivalent,
        tuple(str(m) for m in report.mismatches),
        report.original_run.steps,
        refined.steps,
        refined.completed,
        tuple(sorted(refined.output_values().items())),
        tuple(
            (event.step, event.variable, event.value)
            for event in refined.trace
        ),
    )


def _serial_sweep(spec, cells):
    """One job per (cell, seed): refine + single-lane equivalence."""
    out = []
    for design_name, model, partition in cells:
        for seed in range(LANES):
            design = Refiner(spec, partition, model).run()
            vector = sweep_inputs(design.spec, seed, dict(MEDICAL_INPUTS))
            report = check_equivalence(design, vector)
            out.append((design_name, model.name, seed, _report_key(report)))
    return out


def _batched_sweep(spec, cells):
    """One job per cell-family: refine once, all seeds as lanes."""
    out = []
    for design_name, model, partition in cells:
        design = Refiner(spec, partition, model).run()
        reports = check_equivalence_batch(design, _vectors(design.spec))
        for seed, report in enumerate(reports):
            out.append((design_name, model.name, seed, _report_key(report)))
    return out


def run_batch_benchmark(reps: int = REPS) -> Dict[str, object]:
    """Time the two sweep modes; verify per-lane byte-identity first."""
    spec, cells = _cells()

    # correctness first: every seed byte-identical to its serial run
    # (this also warms allocator/caches for the timed section)
    serial_results = _serial_sweep(spec, cells)
    batched_results = _batched_sweep(spec, cells)
    lanes_identical = serial_results == batched_results

    # interleave the modes per cell, not per whole sweep: a load burst
    # on a shared host then hits a ~0.5 s block of one cell, and the
    # per-cell minimum over REPS discards it
    serial_cells = [[] for _ in cells]
    batched_cells = [[] for _ in cells]
    for _ in range(reps):
        for index, cell in enumerate(cells):
            started = time.process_time()
            _serial_sweep(spec, [cell])
            serial_cells[index].append(time.process_time() - started)
            started = time.process_time()
            _batched_sweep(spec, [cell])
            batched_cells[index].append(time.process_time() - started)

    serial_times = [sum(rep) for rep in zip(*serial_cells)]
    batched_times = [sum(rep) for rep in zip(*batched_cells)]
    best_serial = sum(min(times) for times in serial_cells)
    best_batched = sum(min(times) for times in batched_cells)
    return {
        "cells": len(cells),
        "lanes": LANES,
        "jobs": len(cells) * LANES,
        "reps": reps,
        "lanes_identical": lanes_identical,
        "serial_cpu_seconds": best_serial,
        "batched_cpu_seconds": best_batched,
        "speedup": best_serial / best_batched,
        "samples": {"serial": serial_times, "batched": batched_times},
    }


def _enforced() -> bool:
    """Gate enforcement: always, unless explicitly informational."""
    return not os.environ.get("REPRO_BENCH_INFORMATIONAL")


def render_report(report: Dict[str, object]) -> str:
    mode = "enforced" if report["enforced"] else "informational"
    return "\n".join(
        [
            f"batched kernel: {report['cells']} cells x {report['lanes']} "
            f"lanes, CPU seconds (per-cell min of {report['reps']}, "
            f"interleaved)",
            f"  serial  (job = refine + 1-seed equivalence)  "
            f"{report['serial_cpu_seconds']:.3f}s",
            f"  batched (job = refine + {report['lanes']} seeds, reused sims)"
            f" {report['batched_cpu_seconds']:.3f}s",
            f"  speedup                  {report['speedup']:.2f}x "
            f"(floor {MIN_SPEEDUP}x, {mode})",
            f"  lanes byte-identical     {report['lanes_identical']}",
        ]
    )


def bench_kernel_batch(write_artifact):
    report = run_batch_benchmark()
    report["enforced"] = _enforced()
    write_artifact("kernel_batch.txt", render_report(report))
    write_artifact("kernel_batch.json", json.dumps(report, indent=2))
    assert report["lanes_identical"], "batched lanes diverged from serial runs"
    if report["enforced"]:
        assert report["speedup"] >= MIN_SPEEDUP, (
            f"batched speedup {report['speedup']:.2f}x below the "
            f"{MIN_SPEEDUP}x floor"
        )


if __name__ == "__main__":
    result = run_batch_benchmark()
    result["enforced"] = _enforced()
    print(render_report(result))
    ok = result["lanes_identical"] and (
        not result["enforced"] or result["speedup"] >= MIN_SPEEDUP
    )
    raise SystemExit(0 if ok else 1)
