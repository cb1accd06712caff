"""Differential fuzzing campaign: generated cases x oracle stack.

The campaign interleaves three deterministic *slices* so one run
exercises every oracle-compatible feature mix:

* ``default`` — the full refinable grammar; every oracle runs
  (round-trip, walker parity, reuse parity, refinement equivalence
  per model);
* ``signals`` — signal declarations, ``<=`` assignments and waits;
  round-trip + both parity oracles only (signal collapsing is
  schedule-dependent, so refinement equivalence is not a sound oracle
  there);
* ``div-zero`` — ``/`` and ``mod`` right operands are sometimes the
  literal zero; round-trip + both parity oracles only (exercises
  error-message parity between evaluators and across reused runs).

Each case's generator seed is derived from the campaign seed and the
case index, so ``run_fuzz(seed=0, count=200)`` is byte-reproducible:
the rendered report contains no wall-clock and no machine state.

The regression corpus under ``tests/corpus/`` is replayed by
:func:`replay_corpus` (also part of the CI gate): every persisted
find must stay fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.experiments.tables import render_table
from repro.fuzz.generator import GeneratorConfig
from repro.fuzz.oracle import (
    DEFAULT_MAX_STEPS,
    OracleFailure,
    check_refinement,
    check_reuse_parity,
    check_roundtrip,
    check_walker_parity,
)
from repro.fuzz.shrink import CorpusEntry, iter_corpus
from repro.models import ALL_MODELS, ImplementationModel, resolve_model

__all__ = [
    "DEFAULT_CORPUS_DIR",
    "FuzzReport",
    "SliceStats",
    "replay_corpus",
    "run_fuzz",
]

DEFAULT_CORPUS_DIR = "tests/corpus"

#: Case-index cycle of feature slices.  Index 0, 1, 2, ... maps onto
#: this ring, so any prefix of a longer campaign runs the same cases.
_SLICE_RING = (
    "default", "default", "default", "default", "signals",
    "default", "default", "default", "default", "div-zero",
)

#: Multiplier that spreads the campaign seed across case indexes
#: (a large odd constant, so distinct campaign seeds do not overlap).
_SEED_STRIDE = 1_000_003


def _slice_config(slice_name: str, budget: Optional[int]) -> GeneratorConfig:
    config = GeneratorConfig()
    if slice_name == "signals":
        config = replace(config, signals=True, waits=True)
    elif slice_name == "div-zero":
        config = replace(config, div_zero_probability=0.3)
    if budget is not None:
        config = replace(config, budget=budget)
    return config


@dataclass
class SliceStats:
    """Aggregate verdicts for one feature slice of the campaign."""

    name: str
    cases: int = 0
    checks: int = 0
    failures: int = 0


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign (or corpus replay)."""

    seed: int
    count: int
    models: List[str]
    slices: List[SliceStats] = field(default_factory=list)
    failures: List[OracleFailure] = field(default_factory=list)
    #: generator seed of every case that produced at least one failure
    failing_seeds: List[int] = field(default_factory=list)
    corpus_entries: int = 0
    corpus_failures: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures and self.corpus_failures == 0

    @property
    def checks(self) -> int:
        return sum(s.checks for s in self.slices)

    def render(self) -> str:
        rows = [
            [stats.name, stats.cases, stats.checks, stats.failures]
            for stats in self.slices
        ]
        rows.append(
            ["total", sum(s.cases for s in self.slices), self.checks,
             len(self.failures)]
        )
        lines = [
            f"fuzz campaign: seed={self.seed} count={self.count} "
            f"models={','.join(self.models)}",
            "",
            render_table(["slice", "cases", "checks", "failures"], rows),
        ]
        if self.corpus_entries:
            lines.append("")
            lines.append(
                f"corpus replay: {self.corpus_entries} entries, "
                f"{self.corpus_failures} failures"
            )
        if self.failures:
            lines.append("")
            lines.append(f"FAILURES ({len(self.failures)}):")
            for failure in self.failures:
                lines.append(f"  {failure.describe()}")
            lines.append("")
            lines.append(
                "failing generator seeds: "
                + ", ".join(str(s) for s in self.failing_seeds)
            )
        else:
            lines.append("")
            lines.append("all oracles passed")
        return "\n".join(lines)

    def as_json(self) -> str:
        payload = {
            "seed": self.seed,
            "count": self.count,
            "models": self.models,
            "slices": [
                {"name": s.name, "cases": s.cases, "checks": s.checks,
                 "failures": s.failures}
                for s in self.slices
            ],
            "checks": self.checks,
            "failures": [
                {"oracle": f.oracle, "detail": f.detail, "model": f.model,
                 "inputs": f.inputs}
                for f in self.failures
            ],
            "failing_seeds": self.failing_seeds,
            "corpus_entries": self.corpus_entries,
            "corpus_failures": self.corpus_failures,
            "ok": self.ok,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _resolve_models(
    models: Optional[Sequence[object]],
) -> List[ImplementationModel]:
    if not models:
        return list(ALL_MODELS)
    return [resolve_model(m) for m in models]


def run_fuzz(
    seed: int = 0,
    count: int = 50,
    models: Optional[Sequence[object]] = None,
    budget: Optional[int] = None,
    vectors: int = 3,
    max_steps: int = DEFAULT_MAX_STEPS,
    corpus: Optional[str] = DEFAULT_CORPUS_DIR,
    engine=None,
) -> FuzzReport:
    """Run ``count`` generated cases through every applicable oracle.

    ``models`` accepts model instances or names (``"Model1"``...);
    ``budget`` overrides the generator's statement budget; ``corpus``
    names a regression-corpus directory to replay first (``None``
    skips it).  Same arguments, same report — byte for byte.

    Each corpus entry and each generated case is one job (``fuzz-corpus``
    / ``fuzz-case``) dispatched through ``engine`` (an
    :class:`repro.exec.ExecutionEngine`; default: serial, uncached).
    The report is assembled in grid order — corpus entries first, then
    case indexes ascending — regardless of executor completion order,
    so serial and parallel campaigns render byte-identically.
    """
    from repro.exec import ExecutionEngine, Job
    from repro.experiments._campaign import bracket

    resolved = _resolve_models(models)
    if engine is None:
        engine = ExecutionEngine()
    model_names = [m.name for m in resolved]
    report = FuzzReport(seed=seed, count=count, models=model_names)
    by_slice: Dict[str, SliceStats] = {}

    jobs: List[Job] = []
    entries = iter_corpus(corpus) if corpus is not None else []
    report.corpus_entries = len(entries)
    for entry in entries:
        jobs.append(
            Job(
                "fuzz-corpus",
                {
                    "name": entry.name,
                    "bug": entry.bug,
                    "spec_text": entry.spec_text,
                    "partition": entry.partition,
                    "input_vectors": entry.input_vectors,
                    "models": model_names,
                    "max_steps": max_steps,
                },
                label=f"corpus:{entry.name}",
            )
        )
    case_plan = []
    for index in range(count):
        slice_name = _SLICE_RING[index % len(_SLICE_RING)]
        case_seed = seed * _SEED_STRIDE + index
        case_plan.append((slice_name, case_seed))
        params = {
            "slice": slice_name,
            "budget": budget,
            "case_seed": case_seed,
            "vectors": vectors,
            "models": model_names,
            "max_steps": max_steps,
        }
        jobs.append(Job("fuzz-case", params, label=f"case-{case_seed}"))

    with bracket(
        engine, "fuzz", jobs=len(jobs), corpus_entries=len(entries),
        cases=count,
    ) as complete:
        results = engine.run(jobs)
        for job_result in results[: len(entries)]:
            found = _failures_from_params(job_result.require()["failures"])
            report.corpus_failures += len(found)
            report.failures += found

        for (slice_name, case_seed), job_result in zip(
            case_plan, results[len(entries):]
        ):
            stats = by_slice.get(slice_name)
            if stats is None:
                stats = by_slice[slice_name] = SliceStats(slice_name)
                report.slices.append(stats)
            payload = job_result.require()
            failures = _failures_from_params(payload["failures"])
            stats.cases += 1
            stats.checks += payload["checks"]
            stats.failures += len(failures)
            report.failures += failures
            if failures:
                report.failing_seeds.append(case_seed)

        report.slices.sort(key=lambda s: s.name)
        complete["checks"] = report.checks
        complete["failures"] = len(report.failures)
        complete["corpus_failures"] = report.corpus_failures
    return report


def _failures_from_params(items: Sequence[Dict[str, object]]) -> List[OracleFailure]:
    """Rebuild :class:`OracleFailure` objects from a job payload."""
    return [
        OracleFailure(
            oracle=item["oracle"],
            detail=item["detail"],
            spec_text=item.get("spec_text") or "",
            inputs=item.get("inputs"),
            model=item.get("model"),
        )
        for item in items
    ]


def replay_corpus_entry(
    entry: CorpusEntry,
    models: Sequence[ImplementationModel] = ALL_MODELS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> List[OracleFailure]:
    """Re-judge one persisted regression case with every oracle its
    directives support (round-trip and both parity oracles always;
    refinement when the entry pins a partition)."""
    try:
        spec = entry.load_spec()
    except ReproError as exc:
        return [
            OracleFailure(
                "corpus",
                f"{entry.name}: stored spec does not load: "
                f"{type(exc).__name__}: {exc}",
                spec_text=entry.spec_text,
            )
        ]
    vectors = entry.input_vectors or [{}]
    failures = list(check_roundtrip(spec))
    failures += check_walker_parity(spec, vectors, max_steps)
    failures += check_reuse_parity(spec, vectors, max_steps)
    partition = entry.load_partition(spec)
    if partition is not None:
        failures += check_refinement(spec, partition, vectors, models,
                                     max_steps)
    for failure in failures:
        failure.detail = f"{entry.name}: {failure.detail}"
    return failures


def replay_corpus(
    directory: str = DEFAULT_CORPUS_DIR,
    models: Sequence[ImplementationModel] = ALL_MODELS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> List[OracleFailure]:
    """Replay every entry in the regression corpus; [] means all the
    persisted bugs stay fixed."""
    failures: List[OracleFailure] = []
    for entry in iter_corpus(directory):
        failures += replay_corpus_entry(entry, models, max_steps)
    return failures
