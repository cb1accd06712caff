"""Dynamic and static profiling of a specification.

The channel transfer rate (paper [13]) is "the rate at which data is
sent during the lifetime of the behaviors communicating over the
channel": it needs, per behavior, (a) its lifetime under the timing
model and (b) how many times it accessed each variable.  The dynamic
profiler gets both by simulating the *original* specification once with
a counting probe; the static profiler approximates them from the access
graph's loop-adjusted weights for specifications that cannot be
executed (e.g. unbounded input loops).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.arch.allocation import Allocation, default_allocation_for
from repro.errors import EstimationError
from repro.graph.access_graph import AccessGraph, ChannelKind
from repro.partition.partition import Partition
from repro.sim.interpreter import Probe, Simulator
from repro.spec.specification import Specification
from repro.spec.stmt import Stmt
from repro.estimate.timing import TimingModel, cost_function

__all__ = ["ProfileResult", "profile_specification", "static_profile"]

#: Lifetime floor (seconds) so a behavior that executed nothing
#: measurable still yields finite rates.
_MIN_LIFETIME = 1e-9


class ProfileResult:
    """Per-behavior lifetimes and per-channel access counts."""

    def __init__(self, spec: Specification, kind: str):
        self.spec = spec
        #: "dynamic" or "static"
        self.kind = kind
        #: behavior -> accumulated active seconds
        self.lifetimes: Dict[str, float] = {}
        #: behavior -> activation count
        self.activations: Dict[str, int] = {}
        #: (behavior, variable) -> read count
        self.reads: Dict[Tuple[str, str], float] = {}
        #: (behavior, variable) -> write count
        self.writes: Dict[Tuple[str, str], float] = {}
        #: total modelled run time
        self.total_time: float = 0.0
        #: kernel counters from the profiling run (dynamic only) — a
        #: :class:`repro.sim.metrics.SimMetrics`, or None
        self.kernel_metrics = None
        self._lifetime_cache: Dict[str, float] = {}

    def lifetime(self, behavior: str) -> float:
        """Active seconds of ``behavior``.

        Statement costs accrue on the executing *leaf*; a composite is
        active while any descendant runs, so its lifetime is the rolled
        up subtree total (plus its own transition overhead, which is
        zero-cost here).  This matters for channels derived from
        transition conditions whose source is a composite — e.g. the
        medical system's ``MeasureCycle`` loop-back arc reading
        ``cycle``.  Floored at 1 ns to stay divisible.
        """
        cached = self._lifetime_cache.get(behavior)
        if cached is not None:
            return cached
        total = self.lifetimes.get(behavior, 0.0)
        if self.spec.has_behavior(behavior):
            node = self.spec.find_behavior(behavior)
            for sub in node.iter_tree():
                if sub is not node:
                    total += self.lifetimes.get(sub.name, 0.0)
        value = max(total, _MIN_LIFETIME)
        self._lifetime_cache[behavior] = value
        return value

    def accesses(self, behavior: str, variable: str, kind: ChannelKind) -> float:
        table = self.reads if kind is ChannelKind.READ else self.writes
        return table.get((behavior, variable), 0.0)

    def total_accesses(self, variable: str) -> float:
        """All reads+writes of a variable across behaviors."""
        return sum(
            count
            for (_, var_name), count in list(self.reads.items())
            + list(self.writes.items())
            if var_name == variable
        )

    def describe(self, top: int = 10) -> str:
        lines = [f"{self.kind} profile of {self.spec.name}"]
        busiest = sorted(
            self.lifetimes.items(), key=lambda kv: kv[1], reverse=True
        )[:top]
        for behavior, seconds in busiest:
            lines.append(f"  {behavior}: {seconds * 1e6:.2f} us active")
        return "\n".join(lines)


class _ProfilingProbe(Probe):
    """Counts statement costs per behavior and accesses per channel."""

    def __init__(self, result: ProfileResult, variable_names: Iterable[str]):
        self.result = result
        self._variables = set(variable_names)

    def on_statement(self, behavior: str, stmt: Stmt, cost: float) -> None:
        r = self.result
        r.lifetimes[behavior] = r.lifetimes.get(behavior, 0.0) + cost

    def on_read(self, behavior: str, variable: str) -> None:
        if variable in self._variables:
            key = (behavior, variable)
            self.result.reads[key] = self.result.reads.get(key, 0.0) + 1

    def on_write(self, behavior: str, variable: str) -> None:
        if variable in self._variables:
            key = (behavior, variable)
            self.result.writes[key] = self.result.writes.get(key, 0.0) + 1

    def on_behavior_start(self, behavior: str, time: float) -> None:
        r = self.result
        r.activations[behavior] = r.activations.get(behavior, 0) + 1


def profile_specification(
    spec: Specification,
    partition: Partition,
    allocation: Optional[Allocation] = None,
    timing: Optional[TimingModel] = None,
    inputs: Optional[Dict[str, object]] = None,
    graph: Optional[AccessGraph] = None,
    metrics=None,
) -> ProfileResult:
    """Profile by simulating the original specification once.

    The partition supplies the component (and hence the clock) each
    behavior runs at, so Design1/2/3 produce different lifetimes for
    the same spec — as in the paper, where the rates differ per design.

    ``metrics`` optionally attaches a
    :class:`repro.sim.metrics.SimMetrics` to the profiling run's kernel;
    it is also stored as :attr:`ProfileResult.kernel_metrics`.
    """
    allocation = (allocation or default_allocation_for(partition.components())).ensure(
        partition.components()
    )
    graph = graph or AccessGraph.from_specification(spec)
    result = ProfileResult(spec, "dynamic")
    probe = _ProfilingProbe(result, graph.variable_names)
    simulator = Simulator(
        spec,
        cost_fn=cost_function(partition, allocation, timing),
        probe=probe,
    )
    run = simulator.run(inputs=inputs, metrics=metrics)
    result.kernel_metrics = metrics
    if not run.completed:
        raise EstimationError(
            f"profiling run of {spec.name!r} did not complete "
            f"(blocked: {run.blocked()})"
        )
    result.total_time = run.time
    return result


def static_profile(
    spec: Specification,
    partition: Partition,
    allocation: Optional[Allocation] = None,
    timing: Optional[TimingModel] = None,
    graph: Optional[AccessGraph] = None,
) -> ProfileResult:
    """Approximate a profile without executing: access counts are the
    access graph's loop-adjusted weights; lifetimes price each leaf's
    statements (loop-adjusted) on its component."""
    from repro.graph.access_graph import _loop_multiplier
    from repro.spec.behavior import LeafBehavior

    allocation = (allocation or default_allocation_for(partition.components())).ensure(
        partition.components()
    )
    timing = timing or TimingModel()
    graph = graph or AccessGraph.from_specification(spec)
    result = ProfileResult(spec, "static")

    for channel in graph.data_channels():
        key = (channel.behavior, channel.variable)
        table = result.reads if channel.kind is ChannelKind.READ else result.writes
        table[key] = table.get(key, 0.0) + channel.weight

    for behavior in spec.behaviors():
        if not isinstance(behavior, LeafBehavior):
            continue
        component = allocation.get(partition.component_of_behavior(behavior.name))
        result.lifetimes[behavior.name] = _static_body_seconds(
            behavior.stmt_body, component, timing
        )
        result.activations[behavior.name] = 1
    result.total_time = sum(result.lifetimes.values())
    return result


def _static_body_seconds(stmts, component, timing: TimingModel) -> float:
    from repro.graph.access_graph import _loop_multiplier

    total = 0.0
    for stmt in stmts:
        total += timing.seconds(component, stmt)
        multiplier = _loop_multiplier(stmt)
        for nested in stmt.child_bodies():
            total += multiplier * _static_body_seconds(nested, component, timing)
    return total
