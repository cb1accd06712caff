"""Parallel, cache-aware campaign execution (`repro.exec`).

Campaigns — the Figure 9/10 sweeps, the robustness matrix, the fuzzing
runs, ``repro sweep`` — are grids of independent jobs.  This package
turns each grid into a declarative job list and runs it through:

* a pluggable **executor** — ``serial`` (the reference) or ``process``
  (a multiprocessing pool with per-job timeouts and graceful
  degradation to serial on worker crash);
* a **content-addressed result cache** keyed by SHA-256 over the
  canonical specification text, partition, model, protocol, seed and a
  code-version salt, so a warm re-run of an unchanged campaign costs
  almost nothing and a stale entry can never be served.

Results always come back in *grid order* (by job identity, not
completion order), which is what makes serial and parallel campaign
reports byte-identical.  See ``docs/EXECUTION.md``.
"""

from repro.exec.cache import (
    DEFAULT_CACHE_DIR,
    CacheStats,
    ResultCache,
    default_cache_dir,
)
from repro.exec.campaigns import get_task, register, task_names
from repro.exec.engine import ExecutionEngine
from repro.exec.executors import (
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.exec.job import (
    Job,
    JobResult,
    canonical_params,
    canonical_partition,
    canonical_spec_text,
    code_version_salt,
    job_key,
)

__all__ = [
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "ExecutionEngine",
    "Job",
    "JobResult",
    "ProcessExecutor",
    "ResultCache",
    "SerialExecutor",
    "canonical_params",
    "canonical_partition",
    "canonical_spec_text",
    "code_version_salt",
    "default_cache_dir",
    "get_task",
    "job_key",
    "register",
    "resolve_executor",
    "task_names",
]
