"""Figure 9 reproduction: bus transfer rates for 3 designs x 4 models.

Pipeline per design (exactly the paper's §5 procedure):

1. profile the original medical specification under the design's
   partition (behavior lifetimes + dynamic access counts);
2. compute every channel's transfer rate (bits moved / accessor
   lifetime, ref [13]);
3. for each implementation model, build its topology plan and sum the
   channel rates over the buses each access traverses.

The result object renders the paper's table (Mbit/s per bus, Model4's
equal interface triple reported once as ``b2=b3=b4``) and carries the
raw per-bus numbers for the shape assertions in the test suite.

Each cell is additionally *measured*, not just estimated: the refined
design is executed with a :class:`repro.sim.metrics.SimMetrics`
attached, so every bus transaction the kernel actually scheduled is
counted (``Figure9Cell.counted_transfers``).  The activity table
(:meth:`Figure9Result.render_activity`) reports those counts next to
the kernel's activation/delta-cycle totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.arch.allocation import Allocation
from repro.arch.components import asic, processor
from repro.estimate.profile import ProfileResult, profile_specification
from repro.estimate.rates import BusRateReport, bus_transfer_rates, channel_rates
from repro.graph.access_graph import AccessGraph
from repro.graph.analysis import classify_variables
from repro.models.impl_models import ALL_MODELS
from repro.experiments.paperdata import PAPER_FIGURE9
from repro.experiments.tables import render_table
from repro.sim.metrics import SimMetrics
from repro.spec.specification import Specification

__all__ = ["Figure9Result", "run_figure9", "default_allocation"]


def default_allocation() -> Allocation:
    """The paper's Figure 1b allocation: an Intel8086-class processor
    and a 10k-gate / 75-pin ASIC."""
    return Allocation(
        [
            processor("PROC", cpu="Intel8086", clock_hz=10e6),
            asic("ASIC", gates=10000, pins=75, clock_hz=25e6),
        ],
        name="medical",
    )


@dataclass
class Figure9Cell:
    """One (design, model) cell: per-bus Mbit/s in bus order."""

    design: str
    model: str
    report: BusRateReport
    #: kernel counters from executing the refined design (None when the
    #: sweep ran with ``count_transfers=False``)
    metrics: Optional[SimMetrics] = field(default=None, compare=False)

    @property
    def rates_mbits(self) -> Dict[str, float]:
        return self.report.as_row()

    @property
    def counted_transfers(self) -> Optional[int]:
        """Bus transactions the kernel actually scheduled while
        executing this cell's refined design (``None`` if unmeasured)."""
        return self.metrics.bus_transactions if self.metrics else None

    @property
    def max_mbits(self) -> float:
        return self.report.max_rate / 1e6

    def paper_style_cells(self) -> List[float]:
        """Bus rates the way the paper prints them: Model4's equal
        interface triple collapses to one number."""
        rates = self.rates_mbits
        if self.model != "Model4":
            return [rates[name] for name in self.report.plan.buses]
        from repro.models.plan import BusRole

        plan = self.report.plan
        out: List[float] = []
        triple_done = False
        for name, bus in plan.buses.items():
            if bus.role in (BusRole.IFACE, BusRole.INTERCHANGE):
                if not triple_done:
                    out.append(rates[name])
                    triple_done = True
                continue
            out.append(rates[name])
        return out


class Figure9Result:
    """All twelve cells plus the context to interrogate them."""

    def __init__(
        self,
        spec: Specification,
        graph: AccessGraph,
        profiles: Dict[str, ProfileResult],
    ):
        self.spec = spec
        self.graph = graph
        self.profiles = profiles
        self.cells: Dict[str, Dict[str, Figure9Cell]] = {}
        self.ratio_labels: Dict[str, str] = {}

    def cell(self, design: str, model: str) -> Figure9Cell:
        return self.cells[design][model]

    def counted_transfers(self, design: str) -> Dict[str, Optional[int]]:
        """Measured bus transactions per model for ``design``."""
        return {
            model: cell.counted_transfers
            for model, cell in self.cells[design].items()
        }

    def render_activity(self) -> str:
        """Measured kernel activity per cell: counted bus transactions,
        process activations and delta cycles from executing each refined
        design (blank when the sweep ran ``count_transfers=False``)."""
        headers = ["Design", "Model", "bus transfers", "activations", "delta cycles"]
        rows: List[List[str]] = []
        for design, by_model in self.cells.items():
            for model, cell in by_model.items():
                m = cell.metrics
                rows.append(
                    [design, model]
                    + (
                        [str(m.bus_transactions), str(m.activations), str(m.delta_cycles)]
                        if m is not None
                        else ["-", "-", "-"]
                    )
                )
        return render_table(
            headers,
            rows,
            title="Figure 9 activity: counted kernel events per refined design",
        )

    def render(self, include_paper: bool = True) -> str:
        """The Figure 9 table, optionally with the paper's numbers."""
        headers = ["Design", "Model1", "Model2", "Model3", "Model4"]
        rows: List[List[str]] = []
        for design in self.cells:
            row = [f"{design} ({self.ratio_labels[design]})"]
            for model in ("Model1", "Model2", "Model3", "Model4"):
                cells = self.cell(design, model).paper_style_cells()
                row.append(", ".join(f"{value:.0f}" for value in cells))
            rows.append(row)
            # paper reference rows exist only for the medical designs;
            # other workloads print the measured row alone
            if include_paper and design in PAPER_FIGURE9:
                paper_row = ["  (paper)"]
                for model in ("Model1", "Model2", "Model3", "Model4"):
                    paper_row.append(
                        ", ".join(str(v) for v in PAPER_FIGURE9[design][model])
                    )
                rows.append(paper_row)
        return render_table(
            headers,
            rows,
            title="Figure 9: bus transfer rates (Mbit/s) per design and model",
        )


def run_figure9(
    spec: Optional[Specification] = None,
    inputs: Optional[Dict[str, int]] = None,
    count_transfers: bool = True,
    engine=None,
    workload=None,
) -> Figure9Result:
    """Run the full Figure 9 sweep on a registry workload.

    ``workload`` names a :mod:`repro.apps.workloads` registry entry
    (default ``medical``); it supplies the specification, the design
    set and the default stimulus, and its id lands in every job's
    cache key.  An explicit ``spec``/``inputs`` overrides the
    workload's (the designs still come from the workload's catalog,
    built against that spec).  Rates are profiled under the paper's
    :func:`default_allocation`.

    With ``count_transfers`` (the default) each cell's refined design is
    also *executed* with a :class:`repro.sim.metrics.SimMetrics`
    attached, so the table is backed by counted bus transactions rather
    than bookkeeping alone; pass ``False`` to skip the twelve extra
    simulations.

    The rate analytics (profiling, channel rates, topology plans) stay
    in-process — they cost milliseconds.  The twelve refine+execute
    measurements are dispatched as ``figure9-cell`` jobs through
    ``engine`` (an :class:`repro.exec.ExecutionEngine`; default: the
    serial, uncached reference), so a process executor parallelises
    them and a result cache makes warm re-runs free.
    """
    from repro.exec import Job, canonical_partition
    from repro.experiments._campaign import bracket, prologue

    setup = prologue(workload, spec, inputs, engine)
    spec, inputs = setup.spec, setup.inputs
    allocation = default_allocation()
    graph = AccessGraph.from_specification(spec)
    designs = setup.workload.designs(spec)

    result = Figure9Result(spec, graph, {})
    jobs = []
    if count_transfers:
        jobs = [
            Job(
                "figure9-cell",
                {
                    "workload": setup.workload.id,
                    "spec": setup.spec_text,
                    "partition": canonical_partition(partition),
                    "design": design_name,
                    "model": model.name,
                    "inputs": inputs,
                },
                label=f"figure9:{design_name}:{model.name}",
            )
            for design_name, partition in designs.items()
            for model in ALL_MODELS
        ]
    with bracket(
        setup.engine, "figure9", jobs=len(jobs), designs=len(designs),
        models=len(ALL_MODELS),
    ) as complete:
        measured = iter(setup.engine.run(jobs))
        for design_name, partition in designs.items():
            profile = profile_specification(
                spec, partition, allocation, inputs=inputs, graph=graph
            )
            result.profiles[design_name] = profile
            result.ratio_labels[design_name] = classify_variables(
                graph, partition
            ).ratio_label()
            rates = channel_rates(graph, profile)
            result.cells[design_name] = {}
            for model in ALL_MODELS:
                plan = model.build_plan(spec, partition, graph=graph)
                report = bus_transfer_rates(plan, graph, profile, rates=rates)
                metrics: Optional[SimMetrics] = None
                if count_transfers:
                    payload = next(measured).require()
                    metrics = SimMetrics.from_dict(payload["metrics"])
                result.cells[design_name][model.name] = Figure9Cell(
                    design_name, model.name, report, metrics
                )
        complete["cells"] = sum(len(row) for row in result.cells.values())
    return result
