"""Multi-oracle differential harness.

Four independent oracles judge every generated case:

1. **Round-trip** — printing a specification, parsing the text back,
   and printing again must reproduce the first text byte-for-byte (the
   printer's output is the parser's grammar).
2. **Walker parity** — a simulation through generated body functions
   (``compile_cache=True``) and a reference-walker simulation
   (``compile_cache=False``) of the same spec and inputs must agree on
   completion, step count, simulated time, every output value, every
   per-output write trace, every global's final value — or raise the
   *same* error with the *same* message.
3. **Simulator-reuse parity** — running all of a case's input vectors
   through one reused compiled :class:`Simulator` must be
   indistinguishable, vector for vector, from a fresh compiled
   :class:`Simulator` per vector, on the same observations as walker
   parity.
4. **Refinement equivalence** — for every requested implementation
   model, :class:`repro.refine.Refiner` must accept the case's
   partition and :func:`repro.sim.equivalence.check_equivalence` must
   find the refined design observationally equal to the original on
   every input vector.

Failures carry enough context (oracle name, detail, printed spec,
inputs, model) to be reported, shrunk, and persisted to the regression
corpus without re-running the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.lang.parser import parse
from repro.lang.printer import print_specification
from repro.models import ALL_MODELS, ImplementationModel
from repro.partition.partition import Partition
from repro.refine.refiner import Refiner
from repro.sim.equivalence import check_equivalence
from repro.sim.interpreter import SimulationResult, Simulator
from repro.sim.kernel import KernelLimits
from repro.spec.specification import Specification
from repro.spec.variable import Role, StorageClass

__all__ = [
    "OracleFailure",
    "CaseResult",
    "check_roundtrip",
    "check_walker_parity",
    "check_reuse_parity",
    "check_refinement",
    "run_all_oracles",
]

#: Step bound for every fuzzing run — generated specs terminate in far
#: fewer steps; the bound only exists to contain a runaway bug.
DEFAULT_MAX_STEPS = 200_000


@dataclass
class OracleFailure:
    """One oracle verdict against one case."""

    oracle: str  # "roundtrip" | "parity" | "reuse" | "refine:<model>"
    detail: str
    spec_text: str = ""
    inputs: Optional[Dict[str, int]] = None
    model: Optional[str] = None

    def describe(self) -> str:
        parts = [f"[{self.oracle}] {self.detail}"]
        if self.inputs is not None:
            parts.append(f"inputs={self.inputs!r}")
        return " ".join(parts)


@dataclass
class CaseResult:
    """All oracle verdicts for one generated case."""

    seed: int
    checks: int = 0
    failures: List[OracleFailure] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# -- outcome comparison ------------------------------------------------------


class _Outcome:
    """What one simulation run produced: state or a structured error."""

    __slots__ = ("completed", "steps", "time", "outputs", "traces",
                 "globals", "error")

    def __init__(self, spec: Specification, result: Optional[SimulationResult],
                 error: Optional[BaseException]):
        if error is not None:
            self.error = f"{type(error).__name__}: {error}"
            self.completed = None
            self.steps = None
            self.time = None
            self.outputs = None
            self.traces = None
            self.globals = None
            return
        self.error = None
        self.completed = result.completed
        self.steps = result.steps
        self.time = result.time
        self.outputs = dict(result.output_values())
        self.traces = {
            v.name: [(e.variable, e.value) for e in result.output_trace(v.name)]
            for v in spec.outputs()
        }
        self.globals = {
            v.name: result.value_of(v.name)
            for v in spec.variables
            if v.role is Role.INTERNAL and v.kind is StorageClass.VARIABLE
        }

    def diff(self, other: "_Outcome") -> List[str]:
        if self.error is not None or other.error is not None:
            if self.error != other.error:
                return [f"error mismatch: {self.error!r} vs {other.error!r}"]
            return []
        out: List[str] = []
        if self.completed != other.completed:
            out.append(
                f"completion mismatch: {self.completed} vs {other.completed}"
            )
        if self.steps != other.steps:
            out.append(f"step count: {self.steps} vs {other.steps}")
        if self.time != other.time:
            out.append(f"simulated time: {self.time!r} vs {other.time!r}")
        for name in self.outputs:
            if self.outputs[name] != other.outputs[name]:
                out.append(
                    f"output {name}: {self.outputs[name]!r} vs "
                    f"{other.outputs[name]!r}"
                )
            if self.traces[name] != other.traces[name]:
                out.append(
                    f"trace {name}: {self.traces[name]!r} vs "
                    f"{other.traces[name]!r}"
                )
        for name in self.globals:
            if self.globals[name] != other.globals[name]:
                out.append(
                    f"global {name}: {self.globals[name]!r} vs "
                    f"{other.globals[name]!r}"
                )
        return out


def _run(simulator: Simulator, inputs: Dict[str, int],
         max_steps: int) -> _Outcome:
    try:
        result = simulator.run(
            inputs=inputs, limits=KernelLimits(max_steps=max_steps)
        )
    except ReproError as exc:
        return _Outcome(simulator.spec, None, exc)
    return _Outcome(simulator.spec, result, None)


# -- oracles -----------------------------------------------------------------


def check_roundtrip(spec: Specification) -> List[OracleFailure]:
    """print -> parse -> print must be the identity on the text."""
    text1 = print_specification(spec)
    try:
        reparsed = parse(text1)
        reparsed.validate()
    except ReproError as exc:
        return [
            OracleFailure(
                "roundtrip",
                f"printed spec does not re-parse: {type(exc).__name__}: {exc}",
                spec_text=text1,
            )
        ]
    text2 = print_specification(reparsed)
    if text1 != text2:
        lines1, lines2 = text1.splitlines(), text2.splitlines()
        delta = next(
            (
                f"line {n + 1}: {a!r} vs {b!r}"
                for n, (a, b) in enumerate(zip(lines1, lines2))
                if a != b
            ),
            f"line counts {len(lines1)} vs {len(lines2)}",
        )
        return [
            OracleFailure(
                "roundtrip", f"reprint differs: {delta}", spec_text=text1
            )
        ]
    return []


def check_walker_parity(
    spec: Specification,
    input_vectors: Sequence[Dict[str, int]],
    max_steps: int = DEFAULT_MAX_STEPS,
) -> List[OracleFailure]:
    """Compiled evaluation must be indistinguishable from the walker."""
    failures: List[OracleFailure] = []
    text = None
    for inputs in input_vectors:
        compiled = _run(Simulator(spec), inputs, max_steps)
        walked = _run(Simulator(spec, compile_cache=False), inputs, max_steps)
        for delta in compiled.diff(walked):
            if text is None:
                text = print_specification(spec)
            failures.append(
                OracleFailure(
                    "parity",
                    f"compiled vs walker: {delta}",
                    spec_text=text,
                    inputs=dict(inputs),
                )
            )
    return failures


def check_reuse_parity(
    spec: Specification,
    input_vectors: Sequence[Dict[str, int]],
    max_steps: int = DEFAULT_MAX_STEPS,
) -> List[OracleFailure]:
    """Simulator reuse must be indistinguishable, vector for vector,
    from a fresh compiled simulator per vector.

    Every vector runs in turn through one compiled :class:`Simulator`,
    whose generated body functions and wait requests persist across
    runs while :meth:`Simulator.run` rebuilds the kernel, frames and
    trace; each outcome is diffed
    against a fresh simulator's run of the same vector.  The first
    vector runs once more at the end, so a one-vector case still checks
    a run that follows another.
    """
    failures: List[OracleFailure] = []
    text = None
    reused = Simulator(spec)
    fresh = [_run(Simulator(spec), inputs, max_steps) for inputs in input_vectors]
    order = list(range(len(fresh))) + [0] if fresh else []
    for index in order:
        inputs = input_vectors[index]
        for delta in _run(reused, inputs, max_steps).diff(fresh[index]):
            if text is None:
                text = print_specification(spec)
            failures.append(
                OracleFailure(
                    "reuse",
                    f"reused vs fresh simulator: {delta}",
                    spec_text=text,
                    inputs=dict(inputs),
                )
            )
    return failures


def check_refinement(
    spec: Specification,
    partition: Partition,
    input_vectors: Sequence[Dict[str, int]],
    models: Sequence[ImplementationModel] = ALL_MODELS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> List[OracleFailure]:
    """Every model's refinement must preserve observable behavior."""
    failures: List[OracleFailure] = []
    text = None
    for model in models:
        try:
            design = Refiner(spec, partition, model).run()
        except Exception as exc:  # any refiner crash is a finding
            if text is None:
                text = print_specification(spec)
            failures.append(
                OracleFailure(
                    f"refine:{model.name}",
                    f"refiner raised {type(exc).__name__}: {exc}",
                    spec_text=text,
                    model=model.name,
                )
            )
            continue
        for inputs in input_vectors:
            try:
                report = check_equivalence(
                    design, inputs=inputs, limits=KernelLimits(max_steps=max_steps)
                )
            except Exception as exc:
                if text is None:
                    text = print_specification(spec)
                failures.append(
                    OracleFailure(
                        f"refine:{model.name}",
                        f"equivalence check raised "
                        f"{type(exc).__name__}: {exc}",
                        spec_text=text,
                        inputs=dict(inputs),
                        model=model.name,
                    )
                )
                continue
            for mismatch in report.mismatches:
                if text is None:
                    text = print_specification(spec)
                failures.append(
                    OracleFailure(
                        f"refine:{model.name}",
                        f"equivalence mismatch ({mismatch.kind}): "
                        f"{mismatch}",
                        spec_text=text,
                        inputs=dict(inputs),
                        model=model.name,
                    )
                )
    return failures


def run_all_oracles(
    case,
    input_vectors: Sequence[Dict[str, int]],
    models: Sequence[ImplementationModel] = ALL_MODELS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> CaseResult:
    """Judge one :class:`repro.fuzz.generator.GeneratedCase` with every
    applicable oracle."""
    result = CaseResult(seed=case.seed)
    result.failures += check_roundtrip(case.spec)
    result.checks += 1
    result.failures += check_walker_parity(case.spec, input_vectors, max_steps)
    result.failures += check_reuse_parity(case.spec, input_vectors, max_steps)
    result.checks += 2 * len(input_vectors)
    if case.refinable:
        result.failures += check_refinement(
            case.spec, case.partition, input_vectors, models, max_steps
        )
        result.checks += len(models) * len(input_vectors)
    else:
        result.skipped.append(
            "refinement (spec uses signals/waits/div-by-zero slices)"
        )
    return result
