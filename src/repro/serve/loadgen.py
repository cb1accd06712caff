"""``repro loadgen``: a seeded closed-loop load harness for the daemon.

A fleet of client threads hammers a running ``repro serve`` instance
with simulation jobs drawn from the differential-fuzzing generator
(:mod:`repro.fuzz.generator`), then the harness writes two artifacts:

* a **byte-stable report** (``loadgen_report.txt``) — configuration,
  request mix, final outcome taxonomy and two correctness checks
  (cross-client payload identity per job key, and a local in-process
  recompute of every distinct job that must match the served payloads
  exactly).  Same seed + same code ⇒ same bytes, so the report is
  committed under ``benchmarks/`` and diffed in review like the other
  benchmark reports;
* a **timing sidecar** (JSON) — latency percentiles, throughput and
  retry counts.  Wall-clock numbers are inherently machine-dependent,
  so they are quarantined here and never enter the byte-stable report.

Clients are deliberately patient (generous retry budgets honouring
``Retry-After``), so under backpressure the *final* outcome of every
logical request is deterministic even though the interleaving is not:
every request eventually lands 200 unless it is deterministically
rejected.  Transient 429/503 exchanges are visible in the sidecar
(``attempts``) and in the server's own ``rejected`` counters, not in
the report's taxonomy.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.exec import (
    ExecutionEngine,
    Job,
    SerialExecutor,
    canonical_spec_text,
    code_version_salt,
)
from repro.fuzz.generator import (
    GeneratorConfig,
    generate_case,
    generate_input_vectors,
)
from repro.obs.events import EventJournal, NULL_JOURNAL
from repro.obs.stats import percentile
from repro.serve.client import ClientError, ReproClient

__all__ = ["LoadgenConfig", "LoadgenResult", "build_job_pool", "run_loadgen"]

#: Simulation budget applied to every loadgen job (fuzz specs always
#: terminate, but a service harness still belts-and-braces it).
_LIMITS = {"max_steps": 200_000}


@dataclass
class LoadgenConfig:
    """One campaign's worth of knobs; everything that can influence
    the byte-stable report lives here and is printed into it."""

    host: str = "127.0.0.1"
    port: int = 8736
    seed: int = 0
    clients: int = 4
    #: logical requests per client (each retried until final)
    requests: int = 25
    #: distinct generated specifications in the pool
    cases: int = 6
    #: input vectors generated per specification
    vectors: int = 3
    #: spec-generator statement budget (small = fast jobs)
    budget: int = 8
    deadline: float = 30.0
    #: per-request retry budget (patient by design; see module doc)
    retries: int = 12
    timings_path: Optional[str] = None
    #: JSONL client-side event journal shared by the fleet (the IDs it
    #: records match the daemon's journal — see docs/OBSERVABILITY.md)
    journal_path: Optional[str] = None


@dataclass
class _ClientLog:
    outcomes: List[str] = field(default_factory=list)
    keys: List[str] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    attempts: int = 0
    cache_hits: int = 0
    failures: List[str] = field(default_factory=list)


@dataclass
class LoadgenResult:
    """What :func:`run_loadgen` hands back: the report text (byte
    stable), the sidecar dict (not), and a pass/fail verdict."""

    report: str
    timings: Dict[str, object]
    ok: bool


def build_job_pool(config: LoadgenConfig) -> List[Dict[str, object]]:
    """The deterministic submission pool: ``cases × vectors`` distinct
    ``simulate-cell`` parameter sets derived from the campaign seed."""
    pool: List[Dict[str, object]] = []
    generator_config = GeneratorConfig(budget=config.budget)
    for case_index in range(config.cases):
        case = generate_case(config.seed * 1_000 + case_index, generator_config)
        text = canonical_spec_text(case.spec)
        vectors = generate_input_vectors(
            case.spec, config.seed * 1_000 + case_index, count=config.vectors
        )
        for vector in vectors:
            pool.append(
                {
                    "spec": text,
                    "inputs": vector,
                    "limits": dict(_LIMITS),
                }
            )
    return pool


def _client_worker(
    index: int,
    config: LoadgenConfig,
    pool: List[Dict[str, object]],
    log: _ClientLog,
    payloads: Dict[str, Dict[str, object]],
    payload_lock: threading.Lock,
    journal=NULL_JOURNAL,
) -> None:
    rng = random.Random((config.seed << 8) ^ index)
    client = ReproClient(
        host=config.host,
        port=config.port,
        retries=config.retries,
        backoff_base=0.02,
        backoff_cap=1.0,
        rng=random.Random((config.seed << 16) ^ index),
        journal=journal,
    )
    for _ in range(config.requests):
        params = rng.choice(pool)
        try:
            response = client.submit(
                "simulate-cell", params, deadline=config.deadline
            )
        except ClientError as exc:
            log.outcomes.append("unreachable")
            log.failures.append(str(exc))
            continue
        log.attempts += response.attempts
        log.latencies.append(response.seconds)
        if response.ok:
            log.outcomes.append("ok")
            if response.cached:
                log.cache_hits += 1
            key = str(response.body.get("key"))
            payload = response.body.get("payload")
            log.keys.append(key)
            with payload_lock:
                previous = payloads.get(key)
                if previous is None:
                    payloads[key] = payload  # type: ignore[assignment]
                elif previous != payload:
                    log.failures.append(
                        f"divergent payloads for {key} across clients"
                    )
        else:
            log.outcomes.append(response.error_kind() or f"http-{response.status}")
    client.close()


def _verify_locally(
    pool: List[Dict[str, object]],
    payloads: Dict[str, Dict[str, object]],
) -> List[str]:
    """Recompute every distinct job in-process (no cache) and demand
    byte-identical payloads to what the daemon served."""
    problems: List[str] = []
    engine = ExecutionEngine(executor=SerialExecutor(), cache=None)
    salt = code_version_salt()
    jobs = [Job("simulate-cell", params) for params in pool]
    results = engine.run(jobs)
    for job, result in zip(jobs, results):
        key = job.key(salt)
        served = payloads.get(key)
        if served is None:
            continue  # this job was never successfully served
        if result.error is not None:
            problems.append(f"local recompute of {key[:12]} failed: {result.error}")
        elif json.dumps(result.payload, sort_keys=True) != json.dumps(
            served, sort_keys=True
        ):
            problems.append(
                f"served payload for {key[:12]} differs from local recompute"
            )
    return problems


def run_loadgen(config: LoadgenConfig) -> LoadgenResult:
    """Run the campaign against an already-listening daemon."""
    pool = build_job_pool(config)
    logs = [_ClientLog() for _ in range(config.clients)]
    payloads: Dict[str, Dict[str, object]] = {}
    payload_lock = threading.Lock()
    journal = (
        EventJournal(path=config.journal_path)
        if config.journal_path
        else NULL_JOURNAL
    )
    started = time.monotonic()
    threads = [
        threading.Thread(
            target=_client_worker,
            args=(
                index, config, pool, logs[index], payloads, payload_lock,
                journal,
            ),
            name=f"loadgen-client-{index}",
        )
        for index in range(config.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started
    journal.close()

    # -- deterministic aggregation ------------------------------------------
    taxonomy: Dict[str, int] = {}
    failures: List[str] = []
    total_requests = 0
    cache_hits = 0
    for log in logs:
        total_requests += len(log.outcomes)
        cache_hits += log.cache_hits
        failures.extend(log.failures)
        for outcome in log.outcomes:
            taxonomy[outcome] = taxonomy.get(outcome, 0) + 1
    distinct_keys = sorted(payloads)
    recompute_problems = _verify_locally(pool, payloads)
    failures.extend(recompute_problems)
    ok = (
        not failures
        and taxonomy.get("ok", 0) == total_requests
        and total_requests == config.clients * config.requests
    )

    lines: List[str] = []
    lines.append("repro loadgen report")
    lines.append("====================")
    lines.append("")
    lines.append(
        f"config: seed={config.seed} clients={config.clients} "
        f"requests/client={config.requests} cases={config.cases} "
        f"vectors/case={config.vectors} budget={config.budget} "
        f"deadline={config.deadline:g}s retries={config.retries}"
    )
    lines.append(f"job pool: {len(pool)} distinct simulate-cell jobs")
    lines.append("")
    lines.append("outcome taxonomy (final outcome per logical request)")
    lines.append("----------------------------------------------------")
    for kind in sorted(taxonomy):
        lines.append(f"  {kind:<14} {taxonomy[kind]:>5}")
    lines.append(f"  {'total':<14} {total_requests:>5}")
    lines.append("")
    lines.append("correctness")
    lines.append("-----------")
    lines.append(f"  distinct job keys served: {len(distinct_keys)}")
    lines.append(
        "  cross-client payload identity: "
        + ("PASS" if not any("divergent" in f for f in failures) else "FAIL")
    )
    lines.append(
        "  local recompute identity:      "
        + ("PASS" if not recompute_problems else "FAIL")
    )
    for problem in failures:
        lines.append(f"  !! {problem}")
    lines.append("")
    lines.append(f"verdict: {'PASS' if ok else 'FAIL'}")
    report = "\n".join(lines) + "\n"

    latencies = sorted(l for log in logs for l in log.latencies)
    timings: Dict[str, object] = {
        "elapsed_seconds": round(elapsed, 3),
        "throughput_rps": round(total_requests / elapsed, 2) if elapsed else 0.0,
        "latency_seconds": {
            "p50": round(percentile(latencies, 0.50), 4),
            "p90": round(percentile(latencies, 0.90), 4),
            "p99": round(percentile(latencies, 0.99), 4),
            "max": round(latencies[-1], 4) if latencies else 0.0,
        },
        "http_attempts": sum(log.attempts for log in logs),
        "cache_hit_responses": cache_hits,
    }
    return LoadgenResult(report=report, timings=timings, ok=ok)
