"""P8 — Telemetry-off overhead on the kernel hot path.

The unified telemetry layer (``repro.obs.metrics`` /
``repro.obs.events``) promises the ``NULL_TRACER`` discipline: an
instrumented call site against a disabled registry or journal costs a
no-op method call on a shared singleton and nothing else.  This bench
keeps that promise honest on the hottest instrumented path we have —
the per-job call sites of :class:`repro.exec.ExecutionEngine`
(outcome counter, latency histogram, journal record, request-ID
binding) layered over the 12-cell refined simulation sweep of
``bench_kernel_hotpath``.

Two interleaved modes, both on the compiled fast path:

* ``plain`` — the sweep with no telemetry code at all;
* ``nulled`` — the same sweep where every cell additionally performs
  the engine's per-job telemetry calls against ``NULL_REGISTRY`` /
  ``NULL_JOURNAL``, the whole sweep wrapped in a ``bind_request_id``
  scope exactly as ``ExecutionEngine.run`` wraps a grid.

Timing uses ``time.process_time`` (CPU seconds) and the overhead is
the *median* of the per-repetition paired ratios — the same estimator
``bench_kernel_hotpath`` uses for its metrics overhead, chosen because
it cancels machine drift that a min-of-N estimator turns into a
phantom gap.

Acceptance ceiling (ISSUE 8): < 3% overhead with telemetry disabled.
Enforced unless ``REPRO_BENCH_INFORMATIONAL=1`` (the paired design is
drift-tolerant, so no CPU-count gate is needed).  Writes
``telemetry_overhead.txt`` and ``telemetry_overhead.json`` under
``benchmarks/output/``.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Dict, List

from repro.apps.medical import MEDICAL_INPUTS, all_designs, medical_specification
from repro.models.impl_models import ALL_MODELS
from repro.obs.events import NULL_JOURNAL, bind_request_id
from repro.obs.metrics import NULL_REGISTRY
from repro.refine.refiner import Refiner
from repro.sim.interpreter import Simulator

#: Interleaved repetitions per mode.
REPS = 12

MAX_OVERHEAD = 0.03


def _simulators():
    """One compiled simulator per refined (design, model) cell."""
    spec = medical_specification()
    spec.validate()
    return [
        Simulator(Refiner(spec, partition, model).run().spec)
        for _, partition in sorted(all_designs(spec).items())
        for model in ALL_MODELS
    ]


def _sweep_plain(sims) -> None:
    for simulator in sims:
        simulator.run(inputs=dict(MEDICAL_INPUTS))


def _sweep_nulled(sims) -> None:
    # the engine's family handles are created once per engine; the
    # per-job cost under test is only the no-op calls below
    jobs_total = NULL_REGISTRY.counter(
        "repro_exec_jobs_total", "Jobs.", ("outcome",)
    )
    job_seconds = NULL_REGISTRY.histogram(
        "repro_exec_job_seconds", "Latency."
    )
    with bind_request_id(""):
        NULL_JOURNAL.emit("grid-start", jobs=len(sims))
        for simulator in sims:
            started = time.perf_counter()
            simulator.run(inputs=dict(MEDICAL_INPUTS))
            seconds = time.perf_counter() - started
            jobs_total.labels("ok").inc()
            job_seconds.observe(seconds)
            NULL_JOURNAL.emit("job-complete", outcome="ok", seconds=seconds)
        NULL_JOURNAL.emit("grid-complete", jobs=len(sims))


def run_overhead_benchmark(reps: int = REPS) -> Dict[str, object]:
    sims = _simulators()
    # warm the generated code and the allocator before timing
    _sweep_plain(sims)
    _sweep_nulled(sims)

    def timed(sweep) -> float:
        started = time.process_time()
        sweep(sims)
        return time.process_time() - started

    plain: List[float] = []
    nulled: List[float] = []
    for _ in range(reps):
        plain.append(timed(_sweep_plain))
        nulled.append(timed(_sweep_nulled))

    overhead = statistics.median(
        n / p - 1.0 for p, n in zip(plain, nulled)
    )
    return {
        "cells": len(sims),
        "reps": reps,
        "plain_cpu_seconds": min(plain),
        "nulled_cpu_seconds": min(nulled),
        "overhead": overhead,
        "enforced": not os.environ.get("REPRO_BENCH_INFORMATIONAL"),
        "samples": {"plain": plain, "nulled": nulled},
    }


def render_report(report: Dict[str, object]) -> str:
    mode = "enforced" if report["enforced"] else "informational"
    return "\n".join(
        [
            "telemetry-off overhead: 12-cell sweep, per-job no-op call "
            f"sites, median paired ratio of {report['reps']} reps ({mode})",
            f"  plain sweep              {report['plain_cpu_seconds']:.3f}s",
            f"  + disabled telemetry     {report['nulled_cpu_seconds']:.3f}s",
            f"  overhead                 {report['overhead']:+.2%} "
            f"(ceiling {MAX_OVERHEAD:.0%})",
        ]
    )


def bench_telemetry_overhead(write_artifact):
    report = run_overhead_benchmark()
    write_artifact("telemetry_overhead.txt", render_report(report))
    write_artifact("telemetry_overhead.json", json.dumps(report, indent=2))
    if report["enforced"]:
        assert report["overhead"] < MAX_OVERHEAD, (
            f"disabled-telemetry overhead {report['overhead']:+.2%} above "
            f"the {MAX_OVERHEAD:.0%} ceiling"
        )


if __name__ == "__main__":
    result = run_overhead_benchmark()
    print(render_report(result))
    raise SystemExit(
        1 if result["enforced"] and result["overhead"] >= MAX_OVERHEAD else 0
    )
