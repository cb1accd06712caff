"""``repro explore``: multi-objective design-space exploration with
quality-seeded caching and dominance-based early stopping.

The campaign searches allocation x partitioner x model x protocol and
keeps a Pareto frontier over three minimised objectives:

* **traffic** — bus transactions of the refined design under the
  baseline stimulus (the Figure 9 counted-transfer metric);
* **refined lines** — printed size of the refined specification
  (Figure 10's complexity axis);
* **cost** — the :func:`repro.estimate.estimate_design_point` price of
  the planned topology (buses, memories, interfaces, bandwidth).

The search is layered rather than exhaustive:

1. **seed layer** — greedy descent plus one seeded annealing walk per
   ``anneal_seeds`` entry, for every allocation;
2. **KL layer** — Kernighan-Lin refinement *seeded from the quality
   cache*: only the top-K candidates of the previous layer (per
   allocation) earn a KL pass;
3. **re-anneal layer** — annealing restarted *from Pareto-frontier
   members* (capped per allocation), one walk per ``reanneal_seeds``
   entry.

Every distinct (allocation, partition, model, protocol) design point
becomes one content-addressed ``explore-cell`` job through the
:mod:`repro.exec` engine, so cells parallelise and warm caches make
re-runs free.  Duplicate design points (e.g. KL converging onto the
greedy winner) are recognised in the driver and never dispatched.

After each seeded layer the frontier is checked: a layer that adds no
new non-dominated point stops the campaign (``frontier-converged``).
A ``max_cells`` budget stops it deterministically mid-grid
(``cell-budget``).  Either way the report states why it stopped and
how many cells the equivalent exhaustive grid would have evaluated.

The rendered report carries no wall-clock, so serial, parallel and
warm-cache runs are byte-identical for the same arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.experiments.tables import render_table
from repro.models.impl_models import ALL_MODELS
from repro.obs.events import NULL_JOURNAL
from repro.obs.metrics import NULL_REGISTRY
from repro.sim.kernel import KernelLimits
from repro.spec.specification import Specification

__all__ = [
    "DesignPoint",
    "ParetoFrontier",
    "QualityEvaluator",
    "QualityCache",
    "StopReport",
    "ExploreResult",
    "explore_allocations",
    "run_explore",
    "validate_explore_report",
]

DEFAULT_PROTOCOLS = ("handshake",)
#: seeds of the layer-1 annealing walks (one candidate per seed)
DEFAULT_ANNEAL_SEEDS = (1996, 2023)
#: seeds of the layer-3 re-annealing walks from frontier members
DEFAULT_REANNEAL_SEEDS = (7,)
#: quality-cache width: candidates per allocation that seed KL
DEFAULT_TOP_K = 2
#: frontier members per allocation that seed re-annealing
DEFAULT_FRONTIER_SEED_CAP = 2
LAYERS_TOTAL = 3


def explore_allocations() -> Dict[str, object]:
    """The named allocation alternatives the campaign searches over.

    ``paper`` is the medical system's PROC+ASIC pair (Figure 9's
    setting); ``dual-asic`` adds a second, smaller ASIC so three-way
    partitions enter the space.
    """
    from repro.arch.allocation import Allocation
    from repro.arch.components import asic, processor

    return {
        "paper": Allocation(
            [
                processor("PROC", cpu="Intel8086", clock_hz=10e6),
                asic("ASIC", gates=10000, pins=75, clock_hz=25e6),
            ],
            name="paper",
        ),
        "dual-asic": Allocation(
            [
                processor("PROC", cpu="Intel8086", clock_hz=10e6),
                asic("ASIC", gates=10000, pins=75, clock_hz=25e6),
                asic("ASIC2", gates=4000, pins=40, clock_hz=20e6),
            ],
            name="dual-asic",
        ),
    }


@dataclass
class DesignPoint:
    """One evaluated (allocation, partition recipe, model, protocol)
    candidate with its objective vector and quality score."""

    allocation: str
    recipe: str
    model: str
    protocol: str
    traffic: int
    refined_lines: int
    cost: float
    quality: float = 0.0
    layer: int = 0

    def objectives(self) -> Tuple[float, float, float]:
        """The minimised vector: (traffic, refined lines, cost)."""
        return (float(self.traffic), float(self.refined_lines), self.cost)

    def as_dict(self) -> Dict[str, object]:
        return {
            "allocation": self.allocation,
            "recipe": self.recipe,
            "model": self.model,
            "protocol": self.protocol,
            "traffic": self.traffic,
            "refined_lines": self.refined_lines,
            "cost": self.cost,
            "quality": self.quality,
            "layer": self.layer,
        }


def _dominates(a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
    """Pareto dominance for minimisation: ``a`` is no worse everywhere
    and strictly better somewhere."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


class ParetoFrontier:
    """The mutually non-dominated design points seen so far.

    ``add`` keeps the frontier invariant: a dominated candidate is
    rejected, an accepted candidate evicts every point it dominates.
    A candidate whose objective vector ties an existing member exactly
    is rejected too (first-seen wins), which keeps the frontier — and
    therefore the report — deterministic in evaluation order.
    """

    def __init__(self):
        self.points: List[DesignPoint] = []

    def add(self, point: DesignPoint) -> bool:
        objectives = point.objectives()
        for existing in self.points:
            held = existing.objectives()
            if held == objectives or _dominates(held, objectives):
                return False
        self.points = [
            p for p in self.points if not _dominates(objectives, p.objectives())
        ]
        self.points.append(point)
        return True

    def __len__(self) -> int:
        return len(self.points)

    def sorted_points(self) -> List[DesignPoint]:
        """Report order: by objective vector, then labels."""
        return sorted(
            self.points,
            key=lambda p: (
                p.objectives(), p.allocation, p.recipe, p.model, p.protocol,
            ),
        )


class QualityEvaluator:
    """Scalar quality of a candidate relative to the first-evaluated
    baseline point.

    The score is the inverse of the mean objective ratio against the
    baseline — 1.0 for the baseline itself, above 1.0 for candidates
    that beat it on balance.  Scoring happens in the driver in grid
    order, so it is identical for serial, parallel and cached runs.
    """

    def __init__(self):
        self.baseline: Optional[Tuple[float, float, float]] = None

    def score(self, point: DesignPoint) -> float:
        objectives = tuple(max(value, 1e-9) for value in point.objectives())
        if self.baseline is None:
            self.baseline = objectives
        ratio = sum(
            value / base for value, base in zip(objectives, self.baseline)
        ) / len(objectives)
        return round(1.0 / max(ratio, 1e-9), 4)


class QualityCache:
    """Top-K candidate partitions per allocation, ranked by quality.

    One entry per recipe (a recipe's best quality across its model x
    protocol evaluations counts); ``winners`` returns the ``top_k``
    best, tie-broken by recipe name so seeding is deterministic.
    These winners seed the next search layer.
    """

    def __init__(self, top_k: int = DEFAULT_TOP_K):
        self.top_k = top_k
        self._entries: Dict[str, Dict[str, Tuple[float, object]]] = {}

    def offer(
        self, allocation: str, recipe: str, quality: float, partition
    ) -> None:
        entries = self._entries.setdefault(allocation, {})
        held = entries.get(recipe)
        if held is None or quality > held[0]:
            entries[recipe] = (quality, partition)

    def winners(self, allocation: str) -> List[Tuple[str, object]]:
        entries = self._entries.get(allocation, {})
        ranked = sorted(
            entries.items(), key=lambda item: (-item[1][0], item[0])
        )
        return [
            (recipe, partition)
            for recipe, (_, partition) in ranked[: self.top_k]
        ]


@dataclass
class StopReport:
    """Why the campaign stopped: structured, not prose-only."""

    reason: str  # "layers-exhausted" | "frontier-converged" | "cell-budget"
    layer: int
    detail: str

    def as_dict(self) -> Dict[str, object]:
        return {"reason": self.reason, "layer": self.layer,
                "detail": self.detail}


@dataclass
class ExploreResult:
    """Everything ``repro explore`` reports."""

    frontier: ParetoFrontier
    evaluated: List[DesignPoint] = field(default_factory=list)
    cells_evaluated: int = 0
    dedup_skipped: int = 0
    exhaustive_cells: int = 0
    layers_run: int = 0
    layers_total: int = LAYERS_TOTAL
    stop: StopReport = field(
        default_factory=lambda: StopReport("layers-exhausted", 0, "")
    )

    def render(self) -> str:
        headers = ["Allocation", "Recipe", "Model", "Protocol",
                   "traffic", "lines", "cost", "quality"]
        rows = [
            [
                point.allocation, point.recipe, point.model, point.protocol,
                str(point.traffic), str(point.refined_lines),
                f"{point.cost:.1f}", f"{point.quality:.4f}",
            ]
            for point in self.frontier.sorted_points()
        ]
        lines = [
            render_table(
                headers, rows,
                title="Explore: Pareto frontier over "
                      "(traffic, refined lines, cost)",
            ),
            "",
            f"cells evaluated: {self.cells_evaluated} "
            f"(exhaustive grid: {self.exhaustive_cells}), "
            f"duplicates skipped: {self.dedup_skipped}",
            f"layers run: {self.layers_run} of {self.layers_total}",
            f"frontier size: {len(self.frontier)}",
            f"stopped: {self.stop.reason} - {self.stop.detail}",
        ]
        return "\n".join(lines)

    def as_json(self) -> str:
        import json

        return json.dumps(
            {
                "frontier": [
                    point.as_dict()
                    for point in self.frontier.sorted_points()
                ],
                "evaluated": [point.as_dict() for point in self.evaluated],
                "cells_evaluated": self.cells_evaluated,
                "dedup_skipped": self.dedup_skipped,
                "exhaustive_cells": self.exhaustive_cells,
                "layers_run": self.layers_run,
                "layers_total": self.layers_total,
                "stop": self.stop.as_dict(),
            },
            indent=2,
            sort_keys=True,
        )


def validate_explore_report(data: Dict[str, object]) -> None:
    """Schema check of a parsed ``repro explore --json`` report — the
    CI smoke job and the tests call this.  Raises :class:`ReproError`
    on the first violation."""
    def fail(message: str):
        raise ReproError(f"explore report: {message}")

    for key in ("frontier", "evaluated", "cells_evaluated", "dedup_skipped",
                "exhaustive_cells", "layers_run", "layers_total", "stop"):
        if key not in data:
            fail(f"missing key {key!r}")
    for key in ("cells_evaluated", "dedup_skipped", "exhaustive_cells",
                "layers_run", "layers_total"):
        if not isinstance(data[key], int) or data[key] < 0:
            fail(f"{key} must be a non-negative integer")
    stop = data["stop"]
    if not isinstance(stop, dict):
        fail("stop must be an object")
    if stop.get("reason") not in (
        "layers-exhausted", "frontier-converged", "cell-budget"
    ):
        fail(f"unknown stop reason {stop.get('reason')!r}")
    if not isinstance(stop.get("detail"), str):
        fail("stop.detail must be a string")
    if not isinstance(data["frontier"], list) or not isinstance(
        data["evaluated"], list
    ):
        fail("frontier and evaluated must be lists")
    point_keys = {"allocation", "recipe", "model", "protocol", "traffic",
                  "refined_lines", "cost", "quality", "layer"}
    for where in ("frontier", "evaluated"):
        for point in data[where]:
            if not isinstance(point, dict) or set(point) != point_keys:
                fail(f"malformed design point in {where!r}: {point!r}")
    if data["cells_evaluated"] > data["exhaustive_cells"]:
        fail("cells_evaluated exceeds the exhaustive grid")
    if data["cells_evaluated"] != len(data["evaluated"]):
        fail("cells_evaluated disagrees with the evaluated list")
    vectors = {
        (p["traffic"], p["refined_lines"], p["cost"])
        for p in data["frontier"]
    }
    for a in vectors:
        for b in vectors:
            if a != b and _dominates(
                tuple(map(float, a)), tuple(map(float, b))
            ):
                fail(f"frontier member {b} is dominated by {a}")


# -- the campaign driver -----------------------------------------------------


def _candidate_key(allocation: str, pairs, model: str, protocol: str):
    return (allocation, tuple(tuple(pair) for pair in pairs), model, protocol)


def run_explore(
    spec: Optional[Specification] = None,
    allocations: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
    protocols: Optional[Sequence[str]] = None,
    inputs: Optional[Dict[str, int]] = None,
    anneal_seeds: Sequence[int] = DEFAULT_ANNEAL_SEEDS,
    reanneal_seeds: Sequence[int] = DEFAULT_REANNEAL_SEEDS,
    top_k: int = DEFAULT_TOP_K,
    frontier_seed_cap: int = DEFAULT_FRONTIER_SEED_CAP,
    max_cells: Optional[int] = None,
    limits: Optional[KernelLimits] = None,
    engine=None,
    workload=None,
) -> ExploreResult:
    """Run the layered exploration campaign; see the module docstring.

    ``workload`` names a :mod:`repro.apps.workloads` registry entry
    (default ``medical``) supplying the specification and the default
    stimulus; its id lands in every job's cache key.

    ``allocations`` names entries of :func:`explore_allocations`
    (default: all of them); ``models``/``protocols`` default to all
    four models and the plain handshake.  Partitioners run in the
    driver, deterministically: the default campaigns on ``medical``
    and ``pcm_pwm`` together spend ~0.3 s of ~2.6 s in their 20
    searches on a 2-CPU container (``docs/EXPLORATION.md``).  Every
    distinct design point becomes one ``explore-cell`` job through
    ``engine``.
    """
    from repro.exec import Job, canonical_partition
    from repro.exec.campaigns import allocation_to_params, limits_to_params
    from repro.experiments._campaign import bracket, prologue, select
    from repro.graph.access_graph import AccessGraph
    from repro.partition.auto import (
        annealed_partition,
        greedy_partition,
        kl_partition,
    )

    setup = prologue(workload, spec, inputs, engine)
    spec, engine = setup.spec, setup.engine
    catalog = explore_allocations()
    allocation_names = select("allocation", allocations, catalog)
    model_names = select("model", models, [model.name for model in ALL_MODELS])
    protocol_names = list(protocols) if protocols else list(DEFAULT_PROTOCOLS)
    if top_k < 1:
        raise ReproError(f"--top-k must be >= 1, got {top_k}")
    if max_cells is not None and max_cells < 1:
        raise ReproError(f"--max-cells must be >= 1, got {max_cells}")

    graph = AccessGraph.from_specification(spec)
    limits_data = limits_to_params(limits)
    allocation_data = {
        name: allocation_to_params(catalog[name])
        for name in allocation_names
    }
    components = {
        name: list(catalog[name].components) for name in allocation_names
    }

    journal = getattr(engine, "journal", NULL_JOURNAL)
    registry = getattr(engine, "registry", NULL_REGISTRY)
    cells_total = registry.counter(
        "repro_explore_cells_total",
        "Explore design points by outcome (evaluated vs deduplicated).",
        ("outcome",),
    )
    layers_total_counter = registry.counter(
        "repro_explore_layers_total",
        "Explore search layers dispatched.",
    )
    frontier_gauge = registry.gauge(
        "repro_explore_frontier_size",
        "Pareto-frontier size after the most recent explore campaign.",
    )

    # the exhaustive reference grid this layered search is measured
    # against: every layer-1 candidate gets a KL pass (no top-K
    # narrowing) and every candidate of layers 1+2 gets every
    # re-annealing walk (no frontier capping, no early stop, no dedup)
    layer1_width = 1 + len(anneal_seeds)
    exhaustive_recipes = (
        layer1_width + layer1_width
        + 2 * layer1_width * len(reanneal_seeds)
    )
    exhaustive_cells = (
        exhaustive_recipes * len(allocation_names)
        * len(model_names) * len(protocol_names)
    )

    frontier = ParetoFrontier()
    evaluator = QualityEvaluator()
    quality_cache = QualityCache(top_k)
    result = ExploreResult(frontier, exhaustive_cells=exhaustive_cells)
    seen_keys = set()
    partitions: Dict[Tuple[str, str], object] = {}  # (alloc, recipe) -> Partition
    budget_hit = False

    def evaluate_layer(layer: int, candidates) -> int:
        """Dispatch one layer; returns how many frontier members the
        layer added.  ``candidates`` is [(allocation, recipe,
        partition)] in deterministic order."""
        nonlocal budget_hit
        points = []  # (alloc, recipe, model, protocol, pairs)
        for alloc, recipe, partition in candidates:
            partitions[(alloc, recipe)] = partition
            pairs = canonical_partition(partition)
            for model in model_names:
                for protocol in protocol_names:
                    key = _candidate_key(alloc, pairs, model, protocol)
                    if key in seen_keys:
                        result.dedup_skipped += 1
                        cells_total.labels("deduplicated").inc()
                        continue
                    seen_keys.add(key)
                    points.append((alloc, recipe, model, protocol, pairs))
        if max_cells is not None:
            room = max_cells - result.cells_evaluated
            if len(points) > room:
                points = points[:room]
                budget_hit = True

        jobs = [
            Job(
                "explore-cell",
                {
                    "workload": setup.workload.id,
                    "spec": setup.spec_text,
                    "partition": pairs,
                    "design": recipe,
                    "allocation": allocation_data[alloc],
                    "model": model,
                    "protocol": protocol,
                    "inputs": setup.inputs,
                    "limits": limits_data,
                },
                label=f"explore:{alloc}:{recipe}:{model}:{protocol}",
            )
            for alloc, recipe, model, protocol, pairs in points
        ]

        journal.emit(
            "explore-layer-start", layer=layer, jobs=len(jobs),
            points=len(points),
        )
        job_results = engine.run(jobs)
        layers_total_counter.inc()

        payloads = [job_result.require() for job_result in job_results]

        added = 0
        for (alloc, recipe, model, protocol, _), payload in zip(
            points, payloads
        ):
            point = DesignPoint(
                allocation=alloc,
                recipe=recipe,
                model=model,
                protocol=protocol,
                traffic=payload["traffic"],
                refined_lines=payload["refined_lines"],
                cost=payload["cost"],
                layer=layer,
            )
            point.quality = evaluator.score(point)
            quality_cache.offer(
                alloc, recipe, point.quality, partitions[(alloc, recipe)]
            )
            result.evaluated.append(point)
            result.cells_evaluated += 1
            cells_total.labels("evaluated").inc()
            if frontier.add(point):
                added += 1
        journal.emit(
            "explore-layer-complete", layer=layer, evaluated=len(points),
            frontier=len(frontier), added=added,
        )
        result.layers_run = layer
        return added

    def search() -> StopReport:
        """Run the layers until one stops the campaign."""
        # -- layer 1: greedy + seeded annealing per allocation ---------------
        layer1 = []
        for alloc in allocation_names:
            comps = components[alloc]
            layer1.append(
                (alloc, "greedy", greedy_partition(spec, comps, graph=graph))
            )
            for seed in anneal_seeds:
                layer1.append((
                    alloc, f"annealed@{seed}",
                    annealed_partition(spec, comps, graph=graph, seed=seed),
                ))
        evaluate_layer(1, layer1)
        if budget_hit:
            return StopReport(
                "cell-budget", 1,
                f"max-cells budget of {max_cells} reached during layer 1",
            )

        # -- layer 2: KL seeded from the quality-cache winners ---------------
        layer2 = []
        for alloc in allocation_names:
            comps = components[alloc]
            for recipe, partition in quality_cache.winners(alloc):
                layer2.append((
                    alloc, f"kl<{recipe}",
                    kl_partition(
                        spec, comps, graph=graph, seed_partition=partition
                    ),
                ))
        added = evaluate_layer(2, layer2)
        if budget_hit:
            return StopReport(
                "cell-budget", 2,
                f"max-cells budget of {max_cells} reached during layer 2",
            )
        if added == 0:
            return StopReport(
                "frontier-converged", 2,
                "KL layer added no non-dominated point; skipping re-annealing",
            )

        # -- layer 3: re-anneal the frontier members -------------------------
        layer3 = []
        for alloc in allocation_names:
            comps = components[alloc]
            members = [
                point for point in frontier.sorted_points()
                if point.allocation == alloc
            ][:frontier_seed_cap]
            for member in members:
                seed_partition = partitions[(alloc, member.recipe)]
                for seed in reanneal_seeds:
                    layer3.append((
                        alloc, f"reanneal@{seed}<{member.recipe}",
                        annealed_partition(
                            spec, comps, graph=graph, seed=seed,
                            seed_partition=seed_partition,
                        ),
                    ))
        added = evaluate_layer(3, layer3)
        if budget_hit:
            return StopReport(
                "cell-budget", 3,
                f"max-cells budget of {max_cells} reached during layer 3",
            )
        if added == 0:
            return StopReport(
                "frontier-converged", 3,
                "re-annealing layer added no non-dominated point",
            )
        return StopReport(
            "layers-exhausted", LAYERS_TOTAL,
            "all scheduled search layers completed",
        )

    with bracket(
        engine, "explore", allocations=len(allocation_names),
        models=len(model_names), protocols=len(protocol_names),
        exhaustive_cells=exhaustive_cells,
    ) as complete:
        result.stop = search()
        frontier_gauge.set(len(frontier))
        complete.update(
            cells=result.cells_evaluated, frontier=len(frontier),
            layers=result.layers_run, stop=result.stop.reason,
        )
    return result
