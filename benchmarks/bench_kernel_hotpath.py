"""P1 — Kernel hot path: generated statement bodies + sensitivity index.

Simulates the full bladder-volume design space (3 designs x 4
implementation models, refined) three ways:

* ``uncached`` — the reference tree-walking interpreter
  (``compile_cache=False``), which re-dispatches on every AST node;
* ``cached`` — the compiled fast path (the default): each statement
  body generated once per simulator as one Python function
  (``repro.sim.codegen``), every expression inline and every name bound
  to its frame at generation;
* ``metrics`` — the fast path with a :class:`repro.sim.metrics.SimMetrics`
  attached, measuring the observability overhead.

All three sweeps must produce identical outputs.  Timing uses
``time.process_time`` (CPU seconds — wall clock on shared runners is
far too noisy) and interleaves the three modes over ``REPS``
repetitions.  The speedup is min-uncached over min-cached (the modes
differ by >2x, far above the noise floor); the metrics overhead — a
paired comparison of two nearly identical distributions — is the
*median* of the per-repetition cached-vs-metrics ratios, which cancels
machine drift that a min-of-N estimator turns into a phantom gap.
Simulators are constructed once per mode and re-run, the steady-state
regime the per-simulator generated code is designed for
(``Simulator.run`` is re-entrant; generated functions span runs).

Acceptance floor: >= 3.5x speedup cached vs uncached (generated
statement bodies took the fast path from ~4.3x to over 5x), < 10%
overhead with metrics attached.  Writes ``kernel_hotpath.txt`` and
``kernel_hotpath.json`` under ``benchmarks/output/``.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, List, Tuple

from repro.apps.medical import MEDICAL_INPUTS, all_designs, medical_specification
from repro.models.impl_models import ALL_MODELS
from repro.refine.refiner import Refiner
from repro.sim.interpreter import Simulator
from repro.sim.metrics import SimMetrics

#: Interleaved repetitions per mode; min-of-REPS is reported.
REPS = 8

MIN_SPEEDUP = 3.5
MAX_OVERHEAD = 0.10


def _refined_designs():
    """The 12 refined (design, model) cells of the medical system."""
    spec = medical_specification()
    spec.validate()
    return [
        (design_name, model.name, Refiner(spec, partition, model).run())
        for design_name, partition in all_designs(spec).items()
        for model in ALL_MODELS
    ]


def _sweep(sims, with_metrics: bool) -> List[Tuple]:
    """Run every cell once; return comparable per-cell outputs."""
    out = []
    for design_name, model_name, simulator, design in sims:
        run = simulator.run(
            inputs=dict(MEDICAL_INPUTS),
            metrics=SimMetrics() if with_metrics else None,
        )
        out.append(
            (
                design_name,
                model_name,
                run.completed,
                run.time,
                tuple(
                    sorted(
                        (port.name, run.value_of(port.name))
                        for port in design.original.outputs()
                    )
                ),
            )
        )
    return out


def run_hotpath_benchmark(reps: int = REPS) -> Dict[str, object]:
    """Time the 12-cell sweep in all three modes; return the report."""
    refined = _refined_designs()
    sims_uncached = [
        (d, m, Simulator(design.spec, compile_cache=False), design)
        for d, m, design in refined
    ]
    sims_cached = [
        (d, m, Simulator(design.spec, compile_cache=True), design)
        for d, m, design in refined
    ]

    # correctness first (also warms both caches and the allocator)
    baseline = _sweep(sims_uncached, False)
    outputs_match = (
        _sweep(sims_cached, False) == baseline
        and _sweep(sims_cached, True) == baseline
    )

    def timed(sims, with_metrics: bool) -> float:
        started = time.process_time()
        _sweep(sims, with_metrics)
        return time.process_time() - started

    uncached: List[float] = []
    cached: List[float] = []
    metered: List[float] = []
    for _ in range(reps):
        uncached.append(timed(sims_uncached, False))
        cached.append(timed(sims_cached, False))
        metered.append(timed(sims_cached, True))

    best_uncached = min(uncached)
    best_cached = min(cached)
    best_metered = min(metered)
    paired_overhead = statistics.median(
        m / c - 1.0 for c, m in zip(cached, metered)
    )
    return {
        "cells": len(refined),
        "reps": reps,
        "outputs_match": outputs_match,
        "uncached_cpu_seconds": best_uncached,
        "cached_cpu_seconds": best_cached,
        "metrics_cpu_seconds": best_metered,
        "speedup": best_uncached / best_cached,
        "metrics_overhead": paired_overhead,
        "samples": {
            "uncached": uncached,
            "cached": cached,
            "metrics": metered,
        },
    }


def render_report(report: Dict[str, object]) -> str:
    lines = [
        "kernel hot path: 3 designs x 4 models, min CPU seconds "
        f"of {report['reps']} interleaved sweeps",
        f"  uncached (tree walker)   {report['uncached_cpu_seconds']:.3f}s",
        f"  cached (generated code)  {report['cached_cpu_seconds']:.3f}s",
        f"  cached + SimMetrics      {report['metrics_cpu_seconds']:.3f}s",
        f"  speedup                  {report['speedup']:.2f}x (floor {MIN_SPEEDUP}x)",
        f"  metrics overhead         {report['metrics_overhead']:+.1%} "
        f"(ceiling {MAX_OVERHEAD:.0%})",
        f"  outputs identical        {report['outputs_match']}",
    ]
    return "\n".join(lines)


def bench_kernel_hotpath(write_artifact):
    report = run_hotpath_benchmark()
    write_artifact("kernel_hotpath.txt", render_report(report))
    write_artifact("kernel_hotpath.json", json.dumps(report, indent=2))
    assert report["outputs_match"], "cached/uncached outputs diverged"
    assert report["speedup"] >= MIN_SPEEDUP, (
        f"speedup {report['speedup']:.2f}x below the {MIN_SPEEDUP}x floor"
    )
    assert report["metrics_overhead"] < MAX_OVERHEAD, (
        f"metrics overhead {report['metrics_overhead']:+.1%} above "
        f"{MAX_OVERHEAD:.0%}"
    )


if __name__ == "__main__":
    result = run_hotpath_benchmark()
    print(render_report(result))
    raise SystemExit(
        0
        if result["outputs_match"]
        and result["speedup"] >= MIN_SPEEDUP
        and result["metrics_overhead"] < MAX_OVERHEAD
        else 1
    )
