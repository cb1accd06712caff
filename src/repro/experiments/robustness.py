"""Robustness campaign: fault scenarios x designs x models.

The paper's correctness argument is that every refined model stays
functionally equivalent to the original specification.  This campaign
stresses that claim the way silicon gets stressed: inject faults into
the refined model's buses and daemons and check that

* faults the timeout-and-retry protocol is designed to absorb (a
  dropped or delayed acknowledge, a transiently stalled memory server)
  leave the refined design *equivalent* — recovery;
* faults beyond the protocol's reach (corrupted data words, a killed
  memory daemon) are *detected* — the run deadlocks, trips a kernel
  limit, or mismatches the golden original — rather than silently
  producing wrong answers that look right.

Every cell runs the same seeded :class:`repro.sim.faults.FaultInjector`
recipe, so the whole campaign is deterministic: identical seeds produce
a byte-identical table.  The table deliberately carries no wall-clock
timing for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    DeadlockError,
    SimulationError,
    SimulationLimitExceeded,
)
from repro.experiments.figure9 import default_allocation
from repro.experiments.tables import render_table
from repro.models.impl_models import ALL_MODELS
from repro.sim.equivalence import check_equivalence
from repro.sim.faults import FaultInjector, FaultScenario
from repro.sim.interpreter import DEFAULT_TIME_UNIT
from repro.sim.kernel import KernelLimits
from repro.spec.specification import Specification

__all__ = [
    "DEFAULT_SCENARIOS",
    "RobustnessCell",
    "RobustnessResult",
    "default_scenarios",
    "run_robustness",
]

# Outcomes that count as the run *detecting* an unabsorbed fault.
_DETECTED = frozenset({"deadlock", "limit", "sim-error", "mismatch"})


def default_scenarios() -> List[FaultScenario]:
    """The campaign's scenario catalog.

    Targets are glob patterns over *refined* signal/process names, so
    one catalog covers every design and model: ``b*_done`` matches the
    per-bus handshake acknowledges (``b1_done``, ``b2_done``, ...)
    without also matching control-refinement signals like
    ``Acquire_done``, which no protocol machinery guards.

    Time fields (``delay``) are in *protocol ticks* (one ``wait for
    1``); the runner scales them to kernel seconds.  Recoverable stalls
    and delays must stay under the protocol's 16-tick poll window — a
    server that wakes up *after* its master gave up serves a phantom
    transaction the retry logic cannot absorb (it absorbs losses, not
    desyncs), which is itself a finding the campaign documents via the
    ``expect="detect"`` scenarios.
    """
    return [
        FaultScenario(
            name="drop-done", kind="drop", target="b*_done", count=1,
            expect="recover",
        ),
        FaultScenario(
            name="delay-done", kind="delay", target="b*_done", count=1,
            delay=5.0, expect="recover",
        ),
        FaultScenario(
            name="drop-grant", kind="drop", target="b*_ack_*", count=1,
            expect="recover",
        ),
        FaultScenario(
            name="stall-memory", kind="stall", target="?mem*", count=1,
            delay=8.0, expect="recover",
        ),
        FaultScenario(
            name="corrupt-data", kind="flip_bit", target="b*_data", count=1,
            bit=0, expect="detect",
        ),
        FaultScenario(
            name="kill-memory", kind="kill", target="?mem*", count=1,
            expect="detect",
        ),
    ]


DEFAULT_SCENARIOS: Tuple[FaultScenario, ...] = tuple(default_scenarios())


@dataclass
class RobustnessCell:
    """One (design, model, scenario) run of the campaign."""

    design: str
    model: str
    scenario: FaultScenario
    outcome: str          # recovered | mismatch | deadlock | limit | sim-error | no-fault
    fired: int            # fault events actually injected
    detail: str = ""

    @property
    def vacuous(self) -> bool:
        """The scenario never matched anything in this cell (e.g. a bus
        fault on a model whose plan has no such bus)."""
        return self.fired == 0

    @property
    def as_expected(self) -> bool:
        if self.vacuous:
            return True
        if self.scenario.expect == "recover":
            return self.outcome == "recovered"
        return self.outcome in _DETECTED

    def label(self) -> str:
        if self.vacuous:
            return "-"
        return self.outcome if self.as_expected else f"{self.outcome} !"


class RobustnessResult:
    """The full campaign, indexed ``cells[design][scenario][model]``."""

    def __init__(self, seed: int, protocol: str):
        self.seed = seed
        self.protocol = protocol
        self.cells: Dict[str, Dict[str, Dict[str, RobustnessCell]]] = {}

    def add(self, cell: RobustnessCell) -> None:
        self.cells.setdefault(cell.design, {}).setdefault(
            cell.scenario.name, {}
        )[cell.model] = cell

    def all_cells(self) -> List[RobustnessCell]:
        return [
            cell
            for by_scenario in self.cells.values()
            for by_model in by_scenario.values()
            for cell in by_model.values()
        ]

    def unexpected(self) -> List[RobustnessCell]:
        return [cell for cell in self.all_cells() if not cell.as_expected]

    def recovered_scenarios(self, design: str) -> List[str]:
        """Scenario names with at least one recovering cell in ``design``."""
        return sorted(
            name
            for name, by_model in self.cells.get(design, {}).items()
            if any(c.outcome == "recovered" and not c.vacuous
                   for c in by_model.values())
        )

    def render(self) -> str:
        model_names = sorted(
            {cell.model for cell in self.all_cells()},
        )
        headers = ["Design", "Scenario", "Expect"] + model_names
        rows = []
        for design in sorted(self.cells):
            for scenario_name in sorted(self.cells[design]):
                by_model = self.cells[design][scenario_name]
                any_cell = next(iter(by_model.values()))
                rows.append(
                    [design, scenario_name, any_cell.scenario.expect]
                    + [
                        by_model[m].label() if m in by_model else "-"
                        for m in model_names
                    ]
                )
        total = [c for c in self.all_cells() if not c.vacuous]
        ok = [c for c in total if c.as_expected]
        lines = [
            render_table(
                headers,
                rows,
                title=(
                    "Robustness campaign: fault scenario outcomes "
                    f"(protocol={self.protocol}, seed={self.seed})"
                ),
            ),
            "",
            "legend: recovered = fault absorbed, refined stays equivalent;",
            "        mismatch/deadlock/limit/sim-error = fault detected;",
            "        '-' = scenario matched nothing in this cell;",
            "        '!' = outcome contradicts the scenario's expectation",
            "",
            f"non-vacuous cells: {len(total)}, as expected: {len(ok)}, "
            f"unexpected: {len(total) - len(ok)}",
        ]
        return "\n".join(lines)


def _classify(refined, inputs, scenario, seed, limits) -> RobustnessCell:
    # scenario time fields are in protocol ticks; the kernel runs in
    # seconds, one tick = DEFAULT_TIME_UNIT
    injector = FaultInjector([scenario.scaled(DEFAULT_TIME_UNIT)], seed=seed)
    detail = ""
    try:
        report = check_equivalence(
            refined,
            inputs=inputs,
            limits=limits,
            injector=injector,
            require_completion=True,
        )
    except DeadlockError as exc:
        outcome = "deadlock"
        detail = str(exc).splitlines()[0]
    except SimulationLimitExceeded as exc:
        outcome = "limit"
        detail = f"limit={exc.limit}"
    except SimulationError as exc:
        outcome = "sim-error"
        detail = str(exc).splitlines()[0]
    else:
        outcome = "recovered" if report.equivalent else "mismatch"
    return RobustnessCell(
        design="",
        model="",
        scenario=scenario,
        outcome=outcome,
        fired=len(injector.events),
        detail=detail,
    )


def run_robustness(
    spec: Optional[Specification] = None,
    inputs: Optional[Dict[str, int]] = None,
    scenarios: Optional[Sequence[FaultScenario]] = None,
    seed: int = 1996,
    protocol: str = "handshake-timeout",
    limits: Optional[KernelLimits] = None,
    designs: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
    engine=None,
    workload=None,
) -> RobustnessResult:
    """Sweep ``scenarios`` x a workload's designs x all four models.

    ``workload`` names a :mod:`repro.apps.workloads` registry entry
    (default ``medical``) supplying the specification, design catalog
    and default stimulus; its id lands in every job's cache key.  Every
    cell refines under the paper's :func:`default_allocation`.

    Each cell refines once (per design x model) and re-simulates per
    scenario with a fresh single-scenario :class:`FaultInjector` seeded
    from ``seed``, so cells are independent and the whole campaign is
    reproducible.  ``designs``/``models`` restrict the sweep (names like
    ``"Design1"`` / ``"Model4"``).

    One ``robustness-cell`` job covers one (design, model) — the refine
    plus every scenario run against it — dispatched through ``engine``
    (an :class:`repro.exec.ExecutionEngine`; default: the serial,
    uncached reference).  The report carries no wall-clock, so serial
    and parallel campaigns render byte-identically.
    """
    from repro.exec import Job, canonical_partition
    from repro.exec.campaigns import (
        allocation_to_params,
        limits_to_params,
        scenario_to_params,
    )
    from repro.experiments._campaign import bracket, prologue, select

    setup = prologue(workload, spec, inputs, engine)
    scenarios = list(scenarios if scenarios is not None else default_scenarios())
    limits = limits or KernelLimits()
    catalog = setup.workload.designs(setup.spec)
    design_names = set(select("design", designs, catalog))
    model_names = set(
        select("model", models, [model.name for model in ALL_MODELS])
    )

    allocation_data = allocation_to_params(default_allocation())
    scenario_data = [scenario_to_params(s) for s in scenarios]
    by_name = {scenario.name: scenario for scenario in scenarios}
    grid = [
        (design_name, partition, model)
        for design_name, partition in catalog.items()
        if design_name in design_names
        for model in ALL_MODELS
        if model.name in model_names
    ]
    jobs = [
        Job(
            "robustness-cell",
            {
                "workload": setup.workload.id,
                "spec": setup.spec_text,
                "partition": canonical_partition(partition),
                "design": design_name,
                "model": model.name,
                "allocation": allocation_data,
                "protocol": protocol,
                "seed": seed,
                "limits": limits_to_params(limits),
                "scenarios": scenario_data,
                "inputs": setup.inputs,
            },
            label=f"robustness:{design_name}:{model.name}",
        )
        for design_name, partition, model in grid
    ]

    result = RobustnessResult(seed=seed, protocol=protocol)
    with bracket(
        setup.engine, "robustness", jobs=len(jobs),
        designs=len(design_names), models=len(model_names),
        scenarios=len(scenarios),
    ) as complete:
        for (design_name, _, model), job_result in zip(
            grid, setup.engine.run(jobs)
        ):
            payload = job_result.require()
            for item in payload["cells"]:
                result.add(
                    RobustnessCell(
                        design=design_name,
                        model=model.name,
                        scenario=by_name[item["scenario"]],
                        outcome=item["outcome"],
                        fired=item["fired"],
                        detail=item["detail"],
                    )
                )
        complete["cells"] = len(result.all_cells())
        complete["unexpected"] = len(result.unexpected())
    return result
