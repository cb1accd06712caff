"""Discrete-event simulation: kernel, interpreter, many-stimulus batch
runner, fault injection, metrics, equivalence checking."""

from repro.sim.batch import BatchSimulator, LaneOutcome
from repro.sim.eval import Env, Frame, evaluate, truthy
from repro.sim.faults import FaultEvent, FaultInjector, FaultScenario
from repro.sim.interpreter import Probe, SimulationResult, Simulator, TraceEvent
from repro.sim.kernel import (
    Join,
    Kernel,
    KernelLimits,
    Process,
    WaitCondition,
    WaitDelay,
)
from repro.sim.metrics import (
    DEFAULT_BUS_SIGNAL_PATTERNS,
    ExecMetrics,
    SimMetrics,
)

__all__ = [
    "BatchSimulator",
    "LaneOutcome",
    "Env",
    "Frame",
    "evaluate",
    "truthy",
    "FaultEvent",
    "FaultInjector",
    "FaultScenario",
    "Probe",
    "SimulationResult",
    "Simulator",
    "TraceEvent",
    "Join",
    "Kernel",
    "KernelLimits",
    "Process",
    "WaitCondition",
    "WaitDelay",
    "DEFAULT_BUS_SIGNAL_PATTERNS",
    "ExecMetrics",
    "SimMetrics",
]
