"""The workload registry: every application the campaigns can run.

A :class:`Workload` bundles what a campaign needs to treat an
application as a first-class benchmark: a SpecCharts specification
factory, the named evaluation partitions, the default stimulus, a
deterministic input-vector generator, and the expected output
invariants.  The :class:`WorkloadRegistry` keys workloads by a short
id — the same id the ``--workload`` flag of every campaign CLI
accepts and the exec engine folds into its cache keys.

The default registry ships six entries:

=============  =============================================================
id             application
=============  =============================================================
``medical``    the paper's bladder-volume medical system (3 designs)
``answering``  the telephone answering machine (1 design)
``pcm_pwm``    the PCM-to-PWM audio converter of the SpecC case study
``pipeline``   generator-synthesized linear pipeline (pinned seed)
``mesh``       generator-synthesized producer/consumer mesh (pinned seed)
``controller`` generator-synthesized interrupt-driven controller (pinned
               seed)
=============  =============================================================

Registration rejects duplicate ids immediately;
:meth:`Workload.validate` additionally proves an entry's functional
model terminates under a step budget, that every design partition
builds against the spec, and that the outputs respect the declared
invariant ranges — all violations surface as structured
:class:`WorkloadError`\\ s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import ReproError, SimulationLimitExceeded
from repro.partition.partition import Partition
from repro.spec.specification import Specification

__all__ = [
    "Workload",
    "WorkloadError",
    "WorkloadRegistry",
    "default_registry",
    "resolve_workload",
]

#: Step budget under which every registered functional model must
#: quiesce for :meth:`Workload.validate` to accept it.
VALIDATE_MAX_STEPS = 200_000

#: Pinned seeds of the generator-synthesized registry entries.  Never
#: change these: campaign cache keys and the committed golden reports
#: embed the specs they produce.
PIPELINE_SEED = 6
MESH_SEED = 8
CONTROLLER_SEED = 4


@dataclass(frozen=True)
class Workload:
    """One registry entry: an application the campaigns can target.

    ``spec_factory`` builds a fresh, validated specification;
    ``designs_factory`` maps that specification to its named evaluation
    partitions (components ``PROC``/``ASIC``); ``invariants`` maps
    output port names to inclusive ``(lo, hi)`` ranges the functional
    model must respect under the default stimulus.
    """

    id: str
    title: str
    category: str
    description: str
    spec_factory: Callable[[], Specification]
    designs_factory: Callable[[Specification], Dict[str, Partition]]
    default_inputs: Mapping[str, int]
    default_design: str
    invariants: Mapping[str, Tuple[int, int]] = field(default_factory=dict)

    def spec(self) -> Specification:
        """A fresh validated specification instance."""
        spec_ = self.spec_factory()
        spec_.validate()
        return spec_

    def designs(
        self, spec_: Optional[Specification] = None
    ) -> Dict[str, Partition]:
        """The evaluation partitions, built against ``spec_`` (pass the
        instance you will refine — partitions bind to their spec)."""
        return self.designs_factory(spec_ or self.spec())

    def input_vectors(
        self, seed: int, count: int = 3,
        spec_: Optional[Specification] = None,
    ) -> List[Dict[str, int]]:
        """``count`` deterministic stimulus vectors starting at sweep seed
        ``seed``.  Seed 0 is the default stimulus; loop-bound ports
        stay pinned at their baseline so runtime stays bounded."""
        from repro.exec.campaigns import sweep_inputs

        spec_ = spec_ or self.spec()
        return [
            sweep_inputs(spec_, seed + k, dict(self.default_inputs))
            for k in range(count)
        ]

    def validate(self, max_steps: int = VALIDATE_MAX_STEPS) -> str:
        """Prove the entry is campaign-ready; returns a one-line
        summary, raises :class:`WorkloadError` otherwise.

        Checks: the specification validates, the functional model
        terminates under the default stimulus within ``max_steps``,
        every design partition builds and only uses ``PROC``/``ASIC``
        components, the default design exists, and the outputs land in
        the declared invariant ranges.
        """
        from repro.sim.interpreter import Simulator
        from repro.sim.kernel import KernelLimits

        try:
            spec_ = self.spec()
        except ReproError as exc:
            raise WorkloadError(
                f"workload {self.id!r}: specification invalid: {exc}"
            ) from exc
        try:
            run = Simulator(spec_).run(
                inputs=dict(self.default_inputs),
                limits=KernelLimits(max_steps=max_steps),
            )
        except SimulationLimitExceeded as exc:
            raise WorkloadError(
                f"workload {self.id!r}: functional model does not "
                f"terminate within {max_steps} steps under the default "
                f"stimulus — {exc}"
            ) from exc
        if not run.completed:
            raise WorkloadError(
                f"workload {self.id!r}: functional model quiesced "
                "without completing under the default stimulus"
            )
        designs = self.designs(spec_)
        if not designs:
            raise WorkloadError(f"workload {self.id!r}: no designs")
        if self.default_design not in designs:
            raise WorkloadError(
                f"workload {self.id!r}: default design "
                f"{self.default_design!r} not in {sorted(designs)}"
            )
        for name, partition in designs.items():
            components = set(partition.components())
            if not components <= {"PROC", "ASIC"}:
                raise WorkloadError(
                    f"workload {self.id!r}: design {name!r} uses "
                    f"components {sorted(components)} outside the "
                    "PROC/ASIC allocation"
                )
        outputs = run.output_values()
        for port, (lo, hi) in self.invariants.items():
            value = outputs.get(port)
            if value is None:
                raise WorkloadError(
                    f"workload {self.id!r}: invariant names unknown "
                    f"output port {port!r}"
                )
            if not lo <= value <= hi:
                raise WorkloadError(
                    f"workload {self.id!r}: output {port}={value} "
                    f"violates invariant range [{lo}, {hi}]"
                )
        return (
            f"{sum(1 for _ in spec_.top.iter_tree())} behaviors, "
            f"{len(designs)} design(s), completed in {run.steps} "
            f"step(s), {len(self.invariants)} invariant(s) hold"
        )


class WorkloadError(ReproError):
    """A workload registry violation (duplicate id, unknown id, or a
    validation failure such as a non-terminating functional model)."""


class WorkloadRegistry:
    """An ordered id -> :class:`Workload` mapping with structured
    duplicate/unknown-id errors."""

    def __init__(self, workloads: Tuple[Workload, ...] = ()):
        self._entries: Dict[str, Workload] = {}
        for workload in workloads:
            self.add(workload)

    def add(self, workload: Workload) -> None:
        if workload.id in self._entries:
            raise WorkloadError(
                f"duplicate workload id {workload.id!r} "
                "(already registered)"
            )
        self._entries[workload.id] = workload

    def get(self, workload_id: str) -> Workload:
        try:
            return self._entries[workload_id]
        except KeyError:
            raise WorkloadError(
                f"unknown workload {workload_id!r}; choose from "
                f"{sorted(self._entries)}"
            ) from None

    def names(self) -> List[str]:
        """Registered ids in registration order."""
        return list(self._entries)

    def __iter__(self) -> Iterator[Workload]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, workload_id: object) -> bool:
        return workload_id in self._entries

    def validate_all(
        self, max_steps: int = VALIDATE_MAX_STEPS
    ) -> List[Tuple[Workload, Optional[str], Optional[WorkloadError]]]:
        """Validate every entry; per entry, either a summary line or
        the :class:`WorkloadError` it raised."""
        report: List[
            Tuple[Workload, Optional[str], Optional[WorkloadError]]
        ] = []
        for workload in self:
            try:
                report.append((workload, workload.validate(max_steps), None))
            except WorkloadError as exc:
                report.append((workload, None, exc))
        return report


# -- the default registry ----------------------------------------------------


def _generated_designs(maker, seed: int):
    """A designs factory for a generator-synthesized case: rebuild the
    pinned case's partition mapping against the passed spec instance."""

    def factory(spec_: Specification) -> Dict[str, Partition]:
        from repro.exec.job import canonical_partition

        case = maker(seed)
        mapping = {name: comp for name, comp in
                   canonical_partition(case.partition)}
        return {"auto": Partition.from_mapping(spec_, mapping, name="auto")}

    return factory


def _build_default_registry() -> WorkloadRegistry:
    from repro.apps.answering import (
        TAM_INPUTS,
        answering_machine_specification,
        tam_partition,
    )
    from repro.apps.medical import (
        MEDICAL_INPUTS,
        all_designs,
        medical_specification,
    )
    from repro.apps.pcm_pwm import (
        PCM_PWM_INPUTS,
        pcm_all_designs,
        pcm_pwm_specification,
    )
    from repro.fuzz.generator import (
        generate_controller_case,
        generate_mesh_case,
        generate_pipeline_case,
    )

    registry = WorkloadRegistry()
    registry.add(Workload(
        id="medical",
        title="Bladder-volume medical system",
        category="paper",
        description=(
            "The real-time embedded medical system of the paper's "
            "evaluation (16 behaviors, 3 designs)."
        ),
        spec_factory=medical_specification,
        designs_factory=all_designs,
        default_inputs=MEDICAL_INPUTS,
        default_design="Design1",
        invariants={
            "display_out": (0, 999),
            "alarm_out": (0, 999),
            "log_out": (0, 8_000_000),
        },
    ))
    registry.add(Workload(
        id="answering",
        title="Telephone answering machine",
        category="case-study",
        description=(
            "The telephone answering machine (TAM) of the SpecCharts "
            "papers: ring detection, announcement, recording, remote "
            "playback."
        ),
        spec_factory=answering_machine_specification,
        designs_factory=lambda spec_: {"tam": tam_partition(spec_)},
        default_inputs=TAM_INPUTS,
        default_design="tam",
        invariants={
            "light_out": (0, 99),
            "play_out": (0, 32_767),
            "rec_out": (0, 32_767),
        },
    ))
    registry.add(Workload(
        id="pcm_pwm",
        title="PCM-to-PWM audio converter",
        category="case-study",
        description=(
            "The PCM/PWM converter of the SpecC methodology case "
            "study: fetch, upsample, noise-shape, duty-map, emit "
            "(10 behaviors, 2 designs)."
        ),
        spec_factory=pcm_pwm_specification,
        designs_factory=pcm_all_designs,
        default_inputs=PCM_PWM_INPUTS,
        default_design="Design1",
        invariants={
            "pwm_out": (0, 9_972),
            "clip_out": (0, 512),
            "status_out": (0, 32_767),
        },
    ))
    registry.add(Workload(
        id="pipeline",
        title="Synthesized linear pipeline",
        category="generated",
        description=(
            "A four-stage pipeline synthesized by the fuzz generator "
            f"at pinned seed {PIPELINE_SEED}: each stage reads its "
            "predecessor's boundary variable, the partition cuts the "
            "pipeline in half."
        ),
        spec_factory=lambda: generate_pipeline_case(PIPELINE_SEED).spec,
        designs_factory=_generated_designs(
            generate_pipeline_case, PIPELINE_SEED
        ),
        default_inputs={},
        default_design="auto",
        invariants={},
    ))
    registry.add(Workload(
        id="mesh",
        title="Synthesized producer/consumer mesh",
        category="generated",
        description=(
            "A producer/consumer mesh synthesized at pinned seed "
            f"{MESH_SEED}: one producer feeds three concurrent "
            "workers writing disjoint results, a combiner reduces "
            "them."
        ),
        spec_factory=lambda: generate_mesh_case(MESH_SEED).spec,
        designs_factory=_generated_designs(generate_mesh_case, MESH_SEED),
        default_inputs={},
        default_design="auto",
        invariants={},
    ))
    registry.add(Workload(
        id="controller",
        title="Synthesized interrupt controller",
        category="generated",
        description=(
            "An interrupt-driven controller synthesized at pinned "
            f"seed {CONTROLLER_SEED}: a dispatch loop polls an event "
            "code and branches to one of three handlers until "
            "event_count events are served."
        ),
        spec_factory=lambda: generate_controller_case(CONTROLLER_SEED).spec,
        designs_factory=_generated_designs(
            generate_controller_case, CONTROLLER_SEED
        ),
        default_inputs={"event_count": 3},
        default_design="auto",
        invariants={},
    ))
    return registry


_DEFAULT_REGISTRY: Optional[WorkloadRegistry] = None


def default_registry() -> WorkloadRegistry:
    """The bundled six-entry registry (built once per process)."""
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        _DEFAULT_REGISTRY = _build_default_registry()
    return _DEFAULT_REGISTRY


def resolve_workload(workload: object = None) -> Workload:
    """``None`` -> the medical default; a string -> a default-registry
    lookup (:class:`WorkloadError` for unknown ids); a
    :class:`Workload` passes through."""
    if workload is None:
        return default_registry().get("medical")
    if isinstance(workload, Workload):
        return workload
    return default_registry().get(str(workload))
