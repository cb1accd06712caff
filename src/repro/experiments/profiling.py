"""The instrumented refine → simulate → verify pipeline (``repro profile``).

Runtime-validation work (Jain & Manolios, PAPERS.md) treats the
simulator as a measurement instrument: kernel counters are evidence
about a refined design, not just progress indicators.  This module runs
the full pipeline for one (design, model) cell with
:class:`repro.sim.metrics.SimMetrics` attached to each run and a
:class:`repro.obs.trace.SpanTracer` span of category ``"phase"`` around
each phase, and renders the result as a human table or JSON — the
backing for the ``repro profile`` CLI subcommand.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.apps.medical import MEDICAL_INPUTS
from repro.experiments.tables import render_table
from repro.models import resolve_model
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanTracer
from repro.refine.refiner import Refiner
from repro.sim.equivalence import compare_runs
from repro.sim.interpreter import Simulator
from repro.sim.metrics import SimMetrics
from repro.spec.specification import Specification

__all__ = ["ProfileReport", "run_profile"]

#: Phase names in pipeline order.
PHASES = ("refine", "simulate-original", "simulate-refined", "verify")


class ProfileReport:
    """Everything one instrumented pipeline run measured.

    ``original_metrics`` / ``refined_metrics`` are the kernel counters
    of the two simulation phases; ``phases`` is the run's span tracer,
    whose root spans of category ``"phase"`` time each pipeline phase
    (:meth:`phase_seconds`); ``equivalent`` is the verify phase's
    verdict.
    """

    def __init__(
        self,
        spec: Specification,
        design: str,
        model: str,
        protocol: str,
        inputs: Dict[str, object],
    ):
        self.spec = spec
        self.design = design
        self.model = model
        self.protocol = protocol
        self.inputs = dict(inputs)
        self.phases = SpanTracer()
        self.original_metrics = SimMetrics()
        self.refined_metrics = SimMetrics()
        self.equivalent: Optional[bool] = None
        #: source lines of the original / refined specification
        self.original_lines: int = 0
        self.refined_lines: int = 0
        #: simulated seconds of the refined run
        self.simulated_time: float = 0.0
        #: the refine phase decomposed per refinement procedure
        self.procedure_seconds: Dict[str, float] = {}
        #: registry snapshot — the same counters as above, but in the
        #: shape ``GET /metrics`` / ``/v1/stats`` use (see
        #: :meth:`repro.obs.metrics.MetricsRegistry.snapshot`)
        self.telemetry: Dict[str, object] = {}

    # -- reporting ------------------------------------------------------------

    def phase_seconds(self) -> Dict[str, float]:
        """Phase -> seconds, in first-entry order."""
        return self.phases.aggregate(category="phase")

    def render(self) -> str:
        """Counters and phase timings as aligned text tables."""
        rows: List[List[str]] = [
            [label, str(getattr(self.original_metrics, name)),
             str(getattr(self.refined_metrics, name))]
            for name, label in SimMetrics.FIELDS
        ]
        counters = render_table(
            ["counter", "original", "refined"],
            rows,
            title=(
                f"repro profile: {self.spec.name} {self.design} "
                f"{self.model} ({self.protocol})"
            ),
        )
        phases = self.phase_seconds()
        timing = render_table(
            ["phase", "seconds"],
            [[name, f"{seconds:.4f}"] for name, seconds in phases.items()]
            + [["total", f"{sum(phases.values()):.4f}"]],
        )
        if self.procedure_seconds:
            timing += "\n" + render_table(
                ["refine procedure", "ms"],
                [
                    [name, f"{seconds * 1e3:.2f}"]
                    for name, seconds in self.procedure_seconds.items()
                ],
            )
        verdict = (
            "verify: not run"
            if self.equivalent is None
            else f"verify: {'EQUIVALENT' if self.equivalent else 'MISMATCH'}"
        )
        growth = (
            f"lines: {self.original_lines} -> {self.refined_lines}  "
            f"simulated time: {self.simulated_time:g}s"
        )
        return "\n".join([counters, "", timing, "", verdict, growth])

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (what ``repro profile -o`` writes)."""
        return {
            "spec": self.spec.name,
            "design": self.design,
            "model": self.model,
            "protocol": self.protocol,
            "inputs": self.inputs,
            "equivalent": self.equivalent,
            "original_lines": self.original_lines,
            "refined_lines": self.refined_lines,
            "simulated_time": self.simulated_time,
            "phases_seconds": self.phase_seconds(),
            "refine_procedure_seconds": dict(self.procedure_seconds),
            "original_metrics": self.original_metrics.as_dict(),
            "refined_metrics": self.refined_metrics.as_dict(),
            "telemetry": self.telemetry,
        }

    def as_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def run_profile(
    spec: Specification,
    partition,
    model: str = "Model1",
    protocol: str = "handshake",
    design: str = "",
    inputs: Optional[Dict[str, object]] = None,
    limits=None,
    verify: bool = True,
    registry: Optional[MetricsRegistry] = None,
) -> ProfileReport:
    """Run refine → simulate → verify once, fully instrumented.

    ``spec`` must already be validated; ``partition`` assigns behaviors
    to components (``design`` is just the label reported).  ``inputs``
    defaults to the medical stimulus when the spec defines those ports,
    else to no inputs.  The verify phase compares the two runs the
    simulate phases made; ``verify=False`` skips it.

    ``registry`` is an optional :class:`repro.obs.metrics.MetricsRegistry`
    the run publishes into (kernel counters per run, phase seconds).  A
    private registry is used when none is given, so
    :attr:`ProfileReport.telemetry` is always populated.
    """
    if inputs is None:
        input_names = {v.name for v in spec.variables}
        inputs = {
            name: value
            for name, value in MEDICAL_INPUTS.items()
            if name in input_names
        }
    report = ProfileReport(spec, design, model, protocol, inputs)
    report.original_lines = spec.line_count()
    tracer = report.phases

    with tracer.span("refine", category="phase"):
        # sharing the tracer nests the per-procedure refinement spans
        # under the "refine" phase span
        refined = Refiner(
            spec, partition, resolve_model(model), protocol=protocol,
            tracer=tracer,
        ).run()
    report.refined_lines = refined.spec.line_count()
    report.procedure_seconds = dict(refined.procedure_seconds)

    with tracer.span("simulate-original", category="phase"):
        original_run = Simulator(spec).run(
            inputs=dict(inputs), limits=limits, metrics=report.original_metrics
        )
    with tracer.span("simulate-refined", category="phase"):
        refined_run = Simulator(refined.spec).run(
            inputs=dict(inputs), limits=limits, metrics=report.refined_metrics
        )
    report.simulated_time = refined_run.time

    if verify:
        with tracer.span("verify", category="phase"):
            outcome = compare_runs(refined, dict(inputs), original_run, refined_run)
        report.equivalent = outcome.equivalent

    registry = registry if registry is not None else MetricsRegistry()
    report.original_metrics.publish(registry, run="original")
    report.refined_metrics.publish(registry, run="refined")
    phase_gauge = registry.gauge(
        "repro_profile_phase_seconds",
        "Wall-clock seconds per pipeline phase of the last profile run.",
        ("phase",),
    )
    for name, seconds in report.phase_seconds().items():
        phase_gauge.labels(name).set(seconds)
    report.telemetry = registry.snapshot()
    return report
