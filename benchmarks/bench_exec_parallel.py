"""E1 — Execution engine: parallel speedup and cache effectiveness.

The workload is the robustness campaign's 3-designs x 4-models medical
grid — twelve independent refine+inject+classify jobs of a few hundred
milliseconds each, the engine's design-center workload.  Three
configurations run back to back:

1. **serial, cold** — the reference executor, no cache;
2. **process, cold** — a 4-worker multiprocessing pool, fresh cache
   (populates it as a side effect);
3. **serial, warm** — the reference executor against the now-warm
   cache (every job must hit).

Gates:

* all three rendered campaign tables are **byte-identical** (results
  are ordered by job identity, never completion order, and the table
  carries no wall-clock);
* the warm-cache run answers **every** job from the cache and is at
  least 2x faster than serial-cold;
* with >= 4 schedulable CPUs the parallel cold run is at least 2x
  faster than serial-cold (>= 1.2x with 2-3 CPUs; on a single CPU the
  ratio is reported but not gated — there is nothing to parallelise
  onto).

Regenerates ``exec_parallel.txt`` / ``exec_parallel.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

from repro.exec import ExecutionEngine, ProcessExecutor, ResultCache
from repro.experiments.robustness import run_robustness

WORKERS = 4


def _cpus() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def run_exec_parallel_benchmark() -> dict:
    cache_root = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        started = time.perf_counter()
        serial = run_robustness(engine=ExecutionEngine())
        serial_seconds = time.perf_counter() - started

        parallel_engine = ExecutionEngine(
            executor=ProcessExecutor(workers=WORKERS),
            cache=ResultCache(cache_root),
        )
        started = time.perf_counter()
        try:
            parallel = run_robustness(engine=parallel_engine)
        finally:
            parallel_engine.release()  # reap the kept worker pool
        parallel_seconds = time.perf_counter() - started

        warm_engine = ExecutionEngine(cache=ResultCache(cache_root))
        started = time.perf_counter()
        warm = run_robustness(engine=warm_engine)
        warm_seconds = time.perf_counter() - started
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    return {
        "cpus": _cpus(),
        "workers": WORKERS,
        "jobs": 12,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "warm_seconds": warm_seconds,
        "parallel_speedup": serial_seconds / max(parallel_seconds, 1e-9),
        "warm_speedup": serial_seconds / max(warm_seconds, 1e-9),
        "serial_table": serial.render(),
        "parallel_table": parallel.render(),
        "warm_table": warm.render(),
        "parallel_metrics": parallel_engine.metrics.as_dict(),
        "warm_metrics": warm_engine.metrics.as_dict(),
    }


def render_report(data: dict) -> str:
    lines = [
        "Execution engine: robustness 3x4 grid, "
        f"{data['jobs']} jobs, {data['cpus']} CPU(s)",
        "",
        f"  serial cold           {data['serial_seconds']:8.2f} s",
        f"  process cold ({data['workers']} wkr)   "
        f"{data['parallel_seconds']:8.2f} s   "
        f"({data['parallel_speedup']:.2f}x)",
        f"  serial warm cache     {data['warm_seconds']:8.2f} s   "
        f"({data['warm_speedup']:.2f}x)",
        "",
        f"  warm cache hits: {data['warm_metrics']['cache_hits']}/12, "
        f"executed: {data['warm_metrics']['executed']}",
        f"  tables byte-identical: "
        f"{data['serial_table'] == data['parallel_table'] == data['warm_table']}",
    ]
    return "\n".join(lines)


def check_gates(data: dict) -> None:
    assert data["serial_table"] == data["parallel_table"], (
        "serial and parallel campaign tables differ"
    )
    assert data["serial_table"] == data["warm_table"], (
        "serial and warm-cache campaign tables differ"
    )
    warm = data["warm_metrics"]
    assert warm["cache_hits"] == data["jobs"] and warm["executed"] == 0, (
        f"warm run was not hit-only: {warm}"
    )
    assert data["warm_speedup"] >= 2.0, (
        f"warm cache speedup {data['warm_speedup']:.2f}x < 2x"
    )
    parallel = data["parallel_metrics"]
    assert parallel["failed"] == 0 and parallel["degraded"] == 0, (
        f"parallel run was not clean: {parallel}"
    )
    cpus = data["cpus"]
    if cpus >= 4:
        assert data["parallel_speedup"] >= 2.0, (
            f"parallel speedup {data['parallel_speedup']:.2f}x < 2x "
            f"on {cpus} CPUs"
        )
    elif cpus >= 2:
        assert data["parallel_speedup"] >= 1.2, (
            f"parallel speedup {data['parallel_speedup']:.2f}x < 1.2x "
            f"on {cpus} CPUs"
        )
    # single CPU: the ratio is informational only


def bench_exec_parallel(write_artifact):
    data = run_exec_parallel_benchmark()
    report = render_report(data)
    write_artifact("exec_parallel.txt", report)
    payload = {k: v for k, v in data.items() if not k.endswith("_table")}
    write_artifact("exec_parallel.json", json.dumps(payload, indent=2,
                                                    sort_keys=True))
    check_gates(data)


if __name__ == "__main__":
    data = run_exec_parallel_benchmark()
    print(render_report(data))
    check_gates(data)
    raise SystemExit(0)
