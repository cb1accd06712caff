"""The three benchmark workloads, driven through the public entry points.

Each driver takes the workload seed, a scratch directory and a
:class:`Phase`.  It builds every input from the seed, calls
``phase.start()`` immediately before its first timed operation (the
end of set-up) and ``phase.stop()`` after its last, then checks the
outputs and returns a :class:`Measurement`.

* ``sweep-seeds``  -- ``run_sweep`` on the medical system, batched, over
  a block of consecutive sweep seeds starting at the workload seed;
* ``explore``      -- ``run_explore`` on ``medical`` and ``pcm_pwm``;
* ``serve-mixed``  -- an in-process ``ReproServer`` drained by two
  closed-loop ``ReproClient`` threads.

Both campaigns run on the serial, uncached engine.  After the timed
campaign, its jobs are answered again from a result cache holding the
campaign's own payloads; that per-job time is the campaigns'
``repeat_ms`` (the serve workload's counterpart is a cache hit over
HTTP).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.workloads import default_registry, resolve_workload
from repro.errors import ReproError
from repro.exec import (
    ExecutionEngine,
    Job,
    ResultCache,
    SerialExecutor,
    canonical_partition,
    canonical_spec_text,
    code_version_salt,
)
from repro.exec.campaigns import sweep_inputs
from repro.experiments.explore import run_explore, validate_explore_report
from repro.experiments.sweep import run_sweep
from repro.models.impl_models import ALL_MODELS
from repro.serve.client import ClientError, ReproClient
from repro.serve.loadgen import LoadgenConfig, build_job_pool
from repro.serve.server import ReproServer, ServeConfig

#: consecutive sweep seeds per sweep-seeds campaign (one 8-lane chunk
#: per (design, model) family)
SWEEP_SEEDS = 8
#: passes over the grid of the cache replay after a campaign
REPLAY_PASSES = 50
#: registry workloads the explore campaign searches
EXPLORE_WORKLOADS = ("medical", "pcm_pwm")
#: committed frontier the medical explore must reproduce at seed 0
FRONTIER_FILE = os.path.join("benchmarks", "output", "explore_frontier.txt")
#: fuzz-generated simulate-cell jobs in the serve mix: cases x vectors
SERVE_CASES = 17
SERVE_VECTORS = 4
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
SERVE_DEADLINE = 60.0
SERVE_RETRIES = 12


@dataclass
class Measurement:
    """What one timed repetition of a workload reports."""

    #: CPU seconds (this process plus reaped child processes)
    campaign_s: float = 0.0
    wall_s: float = 0.0
    #: engine jobs or HTTP requests completed in ``wall_s``
    operations: int = 0
    #: latency of computed operations, milliseconds
    new_ms: List[float] = field(default_factory=list)
    #: latency of operations answered from the result cache, ms
    repeat_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: job key -> digest of the served body (serve-mixed only)
    digests: Dict[str, str] = field(default_factory=dict)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


class Phase:
    """Brackets the measured operations of one repetition: ``start``
    records when set-up ended, and both run the caller's hooks (the
    traced run installs its wrappers there)."""

    def __init__(self, on_start: Callable[[], None] = lambda: None,
                 on_stop: Callable[[], None] = lambda: None):
        self.started_at: Optional[float] = None
        self._on_start = on_start
        self._on_stop = on_stop

    def start(self) -> None:
        self.started_at = time.time()
        self._on_start()

    def stop(self) -> None:
        self._on_stop()


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class RecordingEngine(ExecutionEngine):
    """The default serial, uncached engine, keeping every job result
    so the driver can read per-job times and replay the grid."""

    def __init__(self, **options):
        super().__init__(**options)
        self.results = []

    def run(self, jobs, timeout=None, cancel=None):
        results = super().run(jobs, timeout=timeout, cancel=cancel)
        self.results.extend(results)
        return results


def _timed_campaign(measurement: Measurement, engine: RecordingEngine,
                    campaign: Callable[[], None]) -> None:
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    campaign()
    measurement.wall_s = time.perf_counter() - wall0
    measurement.campaign_s = cpu_seconds() - cpu0
    executed = [r for r in engine.results if not r.cached]
    measurement.operations = len(executed)
    measurement.new_ms = [r.seconds * 1e3 for r in executed]


def _replay_from_cache(measurement: Measurement, engine: RecordingEngine,
                       workdir: str) -> None:
    """Answer the campaign's jobs again from a result cache that holds
    the campaign's own payloads, one job per engine call, in
    ``REPLAY_PASSES`` passes over the grid.  Each pass gives one
    sample: its time per job."""
    cache = ResultCache(os.path.join(workdir, "replay-cache"))
    salt = code_version_salt()
    done = [result for result in engine.results if result.ok]
    for result in done:
        cache.put(result.key, result.job.task, result.payload, salt=salt)
    warm = ExecutionEngine(cache=cache)
    for _ in range(REPLAY_PASSES if done else 0):
        started = time.perf_counter()
        replies = [warm.run([result.job])[0] for result in done]
        measurement.repeat_ms.append(
            (time.perf_counter() - started) * 1e3 / len(done)
        )
    for result, again in zip(done, replies if done else ()):
        if not again.cached or again.payload != result.payload:
            measurement.fail(
                1, f"cache replay of {result.job.describe()} disagrees"
            )


# -- sweep-seeds ---------------------------------------------------------------


def sweep_seeds(seed: int, workdir: str, phase: Phase) -> Measurement:
    workload = resolve_workload("medical")
    spec = workload.spec()
    code_version_salt()
    seeds = list(range(seed, seed + SWEEP_SEEDS))
    families = len(workload.designs(spec)) * len(ALL_MODELS)
    measurement = Measurement(attempted=families * len(seeds))
    engine = RecordingEngine()
    outcome = {}

    def campaign() -> None:
        try:
            outcome["result"] = run_sweep(
                spec=spec, workload=workload, seeds=seeds, batch=True,
                engine=engine,
            )
        except ReproError as exc:
            outcome["error"] = str(exc)

    phase.start()
    _timed_campaign(measurement, engine, campaign)
    if "error" in outcome:
        phase.stop()
        measurement.fail(measurement.attempted, outcome["error"])
        return measurement
    _replay_from_cache(measurement, engine, workdir)
    phase.stop()
    account_sweep(measurement, outcome["result"])
    return measurement


def account_sweep(measurement: Measurement, result) -> None:
    """A sweep cell fails when it is missing or not equivalent (the
    original specification's run is the reference)."""
    if len(result.cells) != measurement.attempted:
        measurement.fail(
            abs(measurement.attempted - len(result.cells)),
            f"sweep returned {len(result.cells)} cells",
        )
    for cell in result.failures():
        measurement.fail(
            1, f"{cell.design}:{cell.model}:s{cell.seed} not equivalent"
        )


# -- explore -------------------------------------------------------------------


def explore(seed: int, workdir: str, phase: Phase) -> Measurement:
    """The stimulus follows the workload seed; the anneal and re-anneal
    seeds stay at ``run_explore``'s defaults.  Seeds derived from the
    workload seed changed the campaign itself (20 to 32 cells, two or
    three layers), so campaign time spread by 15-25% across seeds."""
    cases = []
    for name in EXPLORE_WORKLOADS:
        workload = resolve_workload(name)
        spec = workload.spec()
        inputs = sweep_inputs(spec, seed, dict(workload.default_inputs))
        cases.append((workload, spec, inputs))
    frontier = None
    if seed == 0:
        with open(FRONTIER_FILE, encoding="utf-8") as handle:
            frontier = handle.read()
    code_version_salt()
    measurement = Measurement()
    engine = RecordingEngine()
    results = []

    def campaign() -> None:
        for workload, spec, inputs in cases:
            try:
                results.append(run_explore(
                    spec=spec, workload=workload, inputs=inputs, engine=engine,
                ))
            except ReproError as exc:
                results.append(exc)

    phase.start()
    _timed_campaign(measurement, engine, campaign)
    _replay_from_cache(measurement, engine, workdir)
    phase.stop()
    measurement.attempted = max(len(engine.results), 1)
    for (workload, _, _), result in zip(cases, results):
        if isinstance(result, ReproError):
            measurement.fail(1, f"explore {workload.id}: {result}")
            continue
        try:
            validate_explore_report(json.loads(result.as_json()))
        except ReproError as exc:
            measurement.fail(result.cells_evaluated, str(exc))
        if frontier is not None and workload.id == "medical":
            if result.render().rstrip("\n") != frontier.rstrip("\n"):
                measurement.fail(
                    result.cells_evaluated,
                    f"medical frontier differs from {FRONTIER_FILE}",
                )
    return measurement


# -- serve-mixed ---------------------------------------------------------------


def serve_jobs(seed: int) -> List[Tuple[str, Dict[str, object]]]:
    """The distinct jobs of the serve mix: a ``sweep-cell`` per registry
    workload design x model, then ``simulate-cell`` jobs over
    fuzz-generated specifications as ``repro loadgen`` builds them."""
    jobs: List[Tuple[str, Dict[str, object]]] = []
    models = sorted(model.name for model in ALL_MODELS)
    for workload in default_registry():
        spec = workload.spec()
        text = canonical_spec_text(spec)
        catalog = workload.designs(spec)
        for design in sorted(catalog):
            for model in models:
                jobs.append(("sweep-cell", {
                    "workload": workload.id,
                    "spec": text,
                    "partition": canonical_partition(catalog[design]),
                    "design": design,
                    "model": model,
                    "protocol": "handshake",
                    "seed": seed,
                    "inputs": dict(workload.default_inputs),
                    "limits": None,
                }))
    config = LoadgenConfig(seed=seed, cases=SERVE_CASES, vectors=SERVE_VECTORS)
    jobs.extend(("simulate-cell", params) for params in build_job_pool(config))
    return jobs


@dataclass
class Reply:
    index: int
    status: int = 0
    cached: bool = False
    seconds: float = 0.0
    key: str = ""
    payload: object = None
    error: str = ""


def client_loop(client: ReproClient, seed: int, requests, cursor,
                replies: List[Optional[Reply]]) -> None:
    """One closed-loop client: take the next request off the shared
    list, wait for its final reply, repeat until the list is drained."""
    while True:
        with cursor["lock"]:
            position = cursor["next"]
            cursor["next"] += 1
        if position >= len(requests):
            return
        task, params = requests[position]
        reply = Reply(position)
        try:
            response = client.submit(
                task, params, deadline=SERVE_DEADLINE,
                request_id=f"pb{seed}-{position}",
            )
        except ClientError as exc:
            reply.error = str(exc)
        else:
            reply.status = response.status
            reply.cached = response.cached
            reply.seconds = response.seconds
            reply.key = str(response.body.get("key", ""))
            reply.payload = response.body.get("payload")
            if not response.ok:
                reply.error = f"http {response.status}: {response.error_kind()}"
        replies[position] = reply


def account_replies(measurement: Measurement,
                    replies: List[Optional[Reply]]) -> None:
    """Sort latencies into computed and cache-hit requests and count
    failures: a request fails when it was refused or not 200 after the
    client's retries, or when its body differs from an earlier body
    served for the same key."""
    for reply in replies:
        if reply is None or reply.error:
            measurement.fail(1, reply.error if reply else "request never sent")
            continue
        measurement.operations += 1
        latency = reply.seconds * 1e3
        (measurement.repeat_ms if reply.cached else measurement.new_ms).append(
            latency
        )
        body = digest(reply.payload)
        held = measurement.digests.setdefault(reply.key, body)
        if held != body:
            measurement.fail(1, f"divergent payloads for {reply.key[:12]}")


def verify_locally(measurement: Measurement, jobs,
                   replies: List[Optional[Reply]]) -> None:
    """Recompute every distinct job in-process and fail each request
    whose served body differs (as ``repro loadgen`` checks)."""
    engine = ExecutionEngine(executor=SerialExecutor(), cache=None)
    bad: Dict[str, str] = {}
    for result in engine.run([Job(task, params) for task, params in jobs]):
        served = measurement.digests.get(result.key)
        if served is None:
            continue
        if result.error is not None:
            bad[result.key] = "local recompute failed"
        elif digest(result.payload) != served:
            bad[result.key] = "served payload differs from local recompute"
    for reply in replies:
        if reply is not None and not reply.error and reply.key in bad:
            measurement.fail(1, f"{reply.key[:12]}: {bad[reply.key]}")


def serve_mixed(seed: int, workdir: str, phase: Phase,
                verify_local: bool = False) -> Measurement:
    jobs = serve_jobs(seed)
    requests = jobs + jobs
    random.Random(seed).shuffle(requests)
    measurement = Measurement(attempted=len(requests))
    server = ReproServer(ServeConfig(
        port=0,
        workers=SERVE_WORKERS,
        executor="process",
        telemetry=True,
        cache_dir=os.path.join(workdir, "serve-cache"),
        flight_dir=os.path.join(workdir, "flight"),
    )).start()
    replies: List[Optional[Reply]] = [None] * len(requests)
    cursor = {"next": 0, "lock": threading.Lock()}
    try:
        phase.start()
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        threads = [
            threading.Thread(
                target=client_loop,
                args=(
                    ReproClient(
                        port=server.port, retries=SERVE_RETRIES,
                        backoff_base=0.02, backoff_cap=1.0,
                        rng=random.Random((seed << 16) ^ index),
                    ),
                    seed, requests, cursor, replies,
                ),
                name=f"perfbench-client-{index}",
            )
            for index in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        measurement.wall_s = time.perf_counter() - wall0
        server.begin_drain("benchmark finished")
        if server.wait(timeout=30.0) != 0:
            measurement.problems.append("server drain did not complete")
        measurement.campaign_s = cpu_seconds() - cpu0
        phase.stop()
    finally:
        server.close()

    account_replies(measurement, replies)
    if verify_local:
        verify_locally(measurement, jobs, replies)
    return measurement


WORKLOADS = {
    "sweep-seeds": sweep_seeds,
    "explore": explore,
    "serve-mixed": serve_mixed,
}
