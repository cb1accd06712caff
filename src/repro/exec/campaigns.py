"""Registered campaign tasks — the work a grid job performs.

Every task is a plain function ``params_dict -> payload_dict`` living
behind a string name, so a job can be pickled to a worker process (the
name travels, the registry resolves it on the other side) and its
payload can be stored verbatim in the JSON result cache.  Parameters
and payloads are therefore restricted to JSON-serialisable values;
specifications travel as canonical printed text, partitions as plain
``object -> component`` mappings, allocations and kernel limits as the
small helper encodings below.

The six paper/campaign drivers (:mod:`repro.experiments`) build grids
over these tasks:

=================  ==========================================================
task               one job computes
=================  ==========================================================
``figure9-cell``   refine + execute one (design, model), returning the
                   kernel counters behind the Figure 9 activity table
``figure10-cell``  refine one (design, model): line counts, per-procedure
                   CPU seconds, optional equivalence verdict
``robustness-cell`` refine one (design, model), then classify every fault
                   scenario against it
``fuzz-case``      generate one seeded case and run every applicable oracle
``fuzz-corpus``    replay one persisted regression-corpus entry
``sweep-cell``     refine one (design, model, protocol), derive a seeded
                   stimulus, verify equivalence — ``repro sweep``'s unit
``batch-cell``     refine one (design, model, protocol) once and verify
                   *many* seeds as lanes of one batched co-simulation —
                   ``repro sweep --batch``'s unit; per-seed cells are
                   byte-identical to the ``sweep-cell`` payloads
``simulate-cell``  parse a spec and execute its functional model under a
                   given stimulus — the unit ``repro serve`` clients and
                   the ``repro loadgen`` harness submit
``explore-cell``   evaluate one design point of the ``repro explore``
                   campaign: refine (partition, model, protocol) under an
                   allocation, execute the refined design with kernel
                   counters (the Figure 9 counted-transfer metric), and
                   price it through the estimation chain — returning the
                   (traffic, size, cost) objective vector
=================  ==========================================================

Payloads that carry simulation results also carry a ``kernel`` tag
naming the variant that produced them (``compiled`` or ``batched``),
so cached results from different kernels stay auditable.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional

__all__ = [
    "register",
    "get_task",
    "registry_generation",
    "task_names",
    "allocation_to_params",
    "allocation_from_params",
    "limits_to_params",
    "limits_from_params",
    "scenario_to_params",
    "scenario_from_params",
    "sweep_inputs",
]

_TASKS: Dict[str, Callable[[Dict[str, object]], Dict[str, object]]] = {}
#: bumped on every registration; a process worker forked at an older
#: generation lacks the newer tasks and is re-forked before its next job
_GENERATION = 0


def register(name: str):
    """Decorator: expose a task function to the engine under ``name``."""

    def wrap(fn):
        global _GENERATION
        _TASKS[name] = fn
        _GENERATION += 1
        return fn

    return wrap


def registry_generation() -> int:
    """How many registrations the task registry has seen so far."""
    return _GENERATION


def get_task(name: str):
    """The registered task, or a ``KeyError`` naming the known ones."""
    try:
        return _TASKS[name]
    except KeyError:
        raise KeyError(
            f"unknown task {name!r}; registered: {sorted(_TASKS)}"
        ) from None


def task_names() -> List[str]:
    return sorted(_TASKS)


# -- parameter encodings -----------------------------------------------------

#: specs kept by :func:`_spec_from_text` per process
SPEC_MEMO_SIZE = 32


@functools.lru_cache(maxsize=SPEC_MEMO_SIZE)
def _spec_from_text(text: str):
    """Parse + validate ``text``, memoised per process: the most
    recently used :data:`SPEC_MEMO_SIZE` specs, keyed by their full
    text.  A kept worker serves interleaved grids and daemon requests,
    so it sees many specs; keying by the text itself means two texts
    never share an entry, even when their hashes collide."""
    from repro.lang.parser import parse

    spec = parse(text)
    spec.validate()
    return spec


def _spec_from_params(params: Dict[str, object]):
    """The specification a job's params designate.

    ``params["spec"]`` (canonical text) wins when present; otherwise
    ``params["workload"]`` resolves through the default workload
    registry — the form ``repro serve`` clients use to submit jobs
    against a bundled application without shipping spec text.  The
    campaign drivers send both: the text pins the exact spec, the
    workload id lands in the cache key.
    """
    text = params.get("spec")
    if text is not None:
        return _spec_from_text(text)
    workload = params.get("workload")
    if workload is not None:
        from repro.apps.workloads import resolve_workload

        return resolve_workload(workload).spec()
    raise KeyError("job params carry neither 'spec' nor 'workload'")


def _partition_from_params(spec, assignment, name: str):
    """``assignment`` is the order-preserving pair list produced by
    :func:`repro.exec.job.canonical_partition` (a plain mapping is
    accepted too) — order matters, it steers refinement topology."""
    from repro.partition.partition import Partition

    if not isinstance(assignment, dict):
        assignment = {key: value for key, value in assignment}
    return Partition.from_mapping(spec, assignment, name=name)


def _partition_for(spec, params: Dict[str, object]):
    """The partition a job's params designate: an explicit
    ``partition`` assignment, or — for workload-form submissions —
    the named design of the workload's registry entry."""
    assignment = params.get("partition")
    if assignment is None and params.get("workload") is not None:
        from repro.apps.workloads import resolve_workload

        workload = resolve_workload(params["workload"])
        designs = workload.designs(spec)
        design = params.get("design") or workload.default_design
        try:
            return designs[design]
        except KeyError:
            raise KeyError(
                f"workload {workload.id!r} has no design {design!r}; "
                f"choose from {sorted(designs)}"
            ) from None
    return _partition_from_params(spec, assignment, params["design"])


def allocation_to_params(allocation) -> Optional[List[Dict[str, object]]]:
    """An :class:`repro.arch.allocation.Allocation` as JSON data
    (``None`` stays ``None`` — tasks then use the paper default)."""
    if allocation is None:
        return None
    return [
        {
            "name": component.name,
            "kind": component.kind.value,
            "clock_hz": component.clock_hz,
            "attrs": dict(component.attrs),
        }
        for component in allocation.components.values()
    ]


def allocation_from_params(data) :
    if data is None:
        from repro.experiments.figure9 import default_allocation

        return default_allocation()
    from repro.arch.allocation import Allocation
    from repro.arch.components import Component, ComponentKind

    return Allocation(
        [
            Component(
                item["name"],
                ComponentKind(item["kind"]),
                item["clock_hz"],
                dict(item.get("attrs") or {}),
            )
            for item in data
        ],
        name="allocation",
    )


def limits_to_params(limits) -> Optional[Dict[str, object]]:
    if limits is None:
        return None
    return {
        "max_steps": limits.max_steps,
        "max_delta": limits.max_delta,
        "wall_clock": limits.wall_clock,
    }


def limits_from_params(data):
    if data is None:
        return None
    from repro.sim.kernel import KernelLimits

    return KernelLimits(**data)


def scenario_to_params(scenario) -> Dict[str, object]:
    from dataclasses import asdict

    return asdict(scenario)


def scenario_from_params(data: Dict[str, object]):
    from repro.sim.faults import FaultScenario

    return FaultScenario(**data)


def _refined(params: Dict[str, object]):
    """The prologue of every cell task: parse the spec, rebuild the
    partition, refine it into ``params["model"]``.  ``allocation`` and
    ``protocol`` reach the :class:`repro.refine.refiner.Refiner` only
    when the params carry them; a missing key means the refiner's own
    default.  The task reads ``spec`` and ``partition`` back from the
    :class:`repro.refine.refiner.RefinedDesign` (``.original``,
    ``.partition``)."""
    from repro.models import resolve_model
    from repro.refine.refiner import Refiner

    spec = _spec_from_params(params)
    options = {}
    if "allocation" in params:
        options["allocation"] = allocation_from_params(params["allocation"])
    if "protocol" in params:
        options["protocol"] = params["protocol"]
    return Refiner(
        spec, _partition_for(spec, params), resolve_model(params["model"]),
        **options,
    ).run()


# -- figure 9 ----------------------------------------------------------------


@register("figure9-cell")
def figure9_cell(params: Dict[str, object]) -> Dict[str, object]:
    """Refine one (design, model) and execute it with kernel counters
    attached — the measured half of a Figure 9 cell."""
    from repro.sim.interpreter import Simulator
    from repro.sim.metrics import SimMetrics

    refined = _refined(params)
    metrics = SimMetrics()
    Simulator(refined.spec).run(
        inputs=dict(params["inputs"]), metrics=metrics
    )
    return {"metrics": metrics.as_dict()}


# -- figure 10 ---------------------------------------------------------------


@register("figure10-cell")
def figure10_cell(params: Dict[str, object]) -> Dict[str, object]:
    """Refine one (design, model); measure size, per-procedure CPU time
    and (optionally) functional equivalence."""
    refined = _refined(params)
    refined_lines = refined.spec.line_count()
    equivalent: Optional[bool] = None
    if params.get("check_equivalence"):
        from repro.sim.equivalence import check_equivalence

        equivalent = check_equivalence(
            refined, inputs=dict(params["inputs"])
        ).equivalent
    return {
        "refined_lines": refined_lines,
        "refinement_seconds": refined.refinement_seconds,
        "procedure_seconds": dict(refined.procedure_seconds),
        "equivalent": equivalent,
    }


# -- robustness --------------------------------------------------------------


@register("robustness-cell")
def robustness_cell(params: Dict[str, object]) -> Dict[str, object]:
    """Refine one (design, model) under the campaign protocol and
    classify every fault scenario against it."""
    from repro.experiments.robustness import _classify

    refined = _refined(params)
    limits = limits_from_params(params.get("limits"))
    cells = []
    for data in params["scenarios"]:
        scenario = scenario_from_params(data)
        cell = _classify(
            refined, dict(params["inputs"]), scenario, params["seed"], limits
        )
        cells.append(
            {
                "scenario": scenario.name,
                "outcome": cell.outcome,
                "fired": cell.fired,
                "detail": cell.detail,
            }
        )
    return {"cells": cells}


# -- fuzzing -----------------------------------------------------------------


def _failures_to_params(failures) -> List[Dict[str, object]]:
    return [
        {
            "oracle": f.oracle,
            "detail": f.detail,
            "spec_text": f.spec_text,
            "inputs": f.inputs,
            "model": f.model,
        }
        for f in failures
    ]


@register("fuzz-case")
def fuzz_case(params: Dict[str, object]) -> Dict[str, object]:
    """Generate one seeded case and run every applicable oracle."""
    from repro.experiments.fuzzing import _slice_config
    from repro.fuzz.generator import generate_case, generate_input_vectors
    from repro.fuzz.oracle import run_all_oracles
    from repro.models import resolve_model

    config = _slice_config(params["slice"], params.get("budget"))
    case_seed = params["case_seed"]
    case = generate_case(case_seed, config)
    inputs = generate_input_vectors(case.spec, case_seed, params["vectors"])
    models = [resolve_model(m) for m in params["models"]]
    result = run_all_oracles(case, inputs, models, params["max_steps"])
    return {
        "checks": result.checks,
        "failures": _failures_to_params(result.failures),
    }


@register("fuzz-corpus")
def fuzz_corpus(params: Dict[str, object]) -> Dict[str, object]:
    """Replay one persisted regression-corpus entry."""
    from repro.experiments.fuzzing import replay_corpus_entry
    from repro.fuzz.shrink import CorpusEntry
    from repro.models import resolve_model

    entry = CorpusEntry(
        name=params["name"],
        bug=params["bug"],
        spec_text=params["spec_text"],
        partition=params.get("partition"),
        input_vectors=list(params.get("input_vectors") or []),
    )
    models = [resolve_model(m) for m in params["models"]]
    failures = replay_corpus_entry(entry, models, params["max_steps"])
    return {"failures": _failures_to_params(failures)}


# -- simulate ----------------------------------------------------------------


@register("simulate-cell")
def simulate_cell(params: Dict[str, object]) -> Dict[str, object]:
    """Parse + validate a specification and execute its functional
    model under the given ``inputs`` stimulus.  The smallest servable
    unit: the serving layer and the load-generation harness submit
    these."""
    from repro.sim.interpreter import Simulator

    spec = _spec_from_params(params)
    limits = limits_from_params(params.get("limits"))
    result = Simulator(spec).run(
        inputs=dict(params.get("inputs") or {}), limits=limits
    )
    return {
        "kernel": "compiled",
        "completed": result.completed,
        "steps": result.steps,
        "outputs": result.output_values(),
    }


# -- sweep -------------------------------------------------------------------


#: Input ports matching these globs keep their baseline value across
#: sweep seeds — they bound iteration (``num_cycles``-style), and a
#: random bound would change the workload size, not just the stimulus.
PINNED_INPUT_PATTERNS = ("*cycles*", "*count*", "*calls*")


def sweep_inputs(
    spec, seed: int, base: Optional[Dict[str, int]] = None
) -> Dict[str, int]:
    """The deterministic stimulus of sweep seed ``seed``.

    Seed 0 is the baseline vector (``base``, e.g. the bundled medical
    stimulus).  Other seeds re-roll every *data* input port from a
    seeded RNG; ports matching :data:`PINNED_INPUT_PATTERNS` keep their
    baseline so runtime stays bounded.
    """
    import random
    from fnmatch import fnmatchcase

    base = dict(base or {})
    if seed == 0:
        return base
    rng = random.Random(seed * 0x5EEDC0DE + 11)
    out: Dict[str, int] = {}
    for port in spec.inputs():
        name = port.name
        if any(fnmatchcase(name, pat) for pat in PINNED_INPUT_PATTERNS):
            out[name] = base.get(name, 1)
        else:
            out[name] = rng.randint(0, 99)
    return out


@register("sweep-cell")
def sweep_cell(params: Dict[str, object]) -> Dict[str, object]:
    """One ``repro sweep`` cell: refine (design, model, protocol),
    derive the seeded stimulus, co-simulate original vs refined."""
    from repro.sim.equivalence import check_equivalence

    refined = _refined(params)
    inputs = sweep_inputs(
        refined.original, params["seed"], params.get("inputs")
    )
    limits = limits_from_params(params.get("limits"))
    report = check_equivalence(refined, inputs=inputs, limits=limits)
    return {
        "refined_lines": refined.spec.line_count(),
        "equivalent": report.equivalent,
        "inputs": inputs,
        "steps": report.refined_run.steps,
        "kernel": "compiled",
    }


@register("batch-cell")
def batch_cell(params: Dict[str, object]) -> Dict[str, object]:
    """Many ``repro sweep`` seeds of one (design, model, protocol)
    cell-family as a single batched job: refine *once*, then verify
    every seed through one reused original and one reused refined
    :class:`repro.sim.batch.BatchSimulator`.

    The payload's ``cells`` list carries, per seed and in seed order,
    exactly the fields a ``sweep-cell`` job reports for that seed
    (plus ``seed`` and the ``batched`` kernel tag).  A lane that
    faults carries an ``error`` entry instead — the text of the error
    ``Simulator.run`` raised, byte-identical to the serial job's
    failure.
    """
    from repro.sim.batch import BatchSimulator
    from repro.sim.equivalence import compare_runs

    refined = _refined(params)
    limits = limits_from_params(params.get("limits"))
    seeds = list(params["seeds"])
    vectors = [
        sweep_inputs(refined.original, seed, params.get("inputs"))
        for seed in seeds
    ]
    original_batch = BatchSimulator(refined.original).run_batch(
        vectors, limits=limits
    )
    refined_batch = BatchSimulator(refined.spec).run_batch(
        vectors, limits=limits
    )
    refined_lines = refined.spec.line_count()
    cells: List[Dict[str, object]] = []
    for seed, inputs, original, lane in zip(
        seeds, vectors, original_batch, refined_batch
    ):
        faulted = original if not original.ok else lane
        if not faulted.ok:
            cells.append({"seed": seed, "error": faulted.error_text})
            continue
        report = compare_runs(refined, inputs, original.result, lane.result)
        cells.append(
            {
                "seed": seed,
                "refined_lines": refined_lines,
                "equivalent": report.equivalent,
                "inputs": inputs,
                "steps": report.refined_run.steps,
                "kernel": "batched",
            }
        )
    return {"cells": cells}


# -- explore -----------------------------------------------------------------


@register("explore-cell")
def explore_cell(params: Dict[str, object]) -> Dict[str, object]:
    """Evaluate one ``repro explore`` design point.

    Refines (partition, model, protocol) under the given allocation,
    executes the refined design with kernel counters attached (bus
    transactions are the Figure 9 counted-transfer metric) and prices
    the point through :func:`repro.estimate.estimate_design_point`.
    The payload is the candidate's objective vector — bus ``traffic``,
    ``refined_lines`` and estimated ``cost`` — plus the itemised cost
    terms for the report.
    """
    from repro.estimate import estimate_design_point
    from repro.graph.access_graph import AccessGraph
    from repro.sim.interpreter import Simulator
    from repro.sim.metrics import SimMetrics

    refined = _refined(params)
    spec = refined.original
    metrics = SimMetrics()
    run = Simulator(refined.spec).run(
        inputs=dict(params["inputs"]),
        limits=limits_from_params(params.get("limits")),
        metrics=metrics,
    )
    cost = estimate_design_point(
        spec,
        refined.partition,
        refined.model,
        allocation=allocation_from_params(params.get("allocation")),
        inputs=dict(params["inputs"]),
        graph=AccessGraph.from_specification(spec),
    )
    return {
        "traffic": metrics.bus_transactions,
        "refined_lines": refined.spec.line_count(),
        "cost": round(cost.total, 1),
        "cost_detail": cost.as_dict(),
        "steps": run.steps,
        "kernel": "compiled",
    }

