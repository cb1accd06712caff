"""Many stimulus vectors through one compiled specification.

The exec engine and the serve daemon schedule thousands of (design,
model, seed) cells.  Each cell pays for refinement, for generating every
statement body's function, and for the run itself.  Across the seeds of
one (design, model, protocol) family only the stimulus differs, so the
first two costs can be paid once.

:class:`BatchSimulator` does exactly that.  It owns one
:class:`repro.sim.interpreter.Simulator`, whose generated body
functions persist across runs, and calls
:meth:`Simulator.run` once per stimulus.  ``run()`` resets all per-run
state (kernel, frames, trace), so each stimulus's outputs, output
trace, step count, simulated time and error text are exactly what a
fresh :class:`Simulator` reports.  The parity suite
(``tests/test_sim_batch.py``, ``tests/test_batch_parity.py``) enforces
this.  :meth:`repro.sim.kernel.Kernel._run_loop` stays the only
scheduler loop.

Fault injection, metrics and signal observers are per-run machinery and
stay on :meth:`Simulator.run`.  ``compile_cache=False`` runs every
stimulus over the reference tree walker.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.sim.interpreter import Probe, SimulationResult, Simulator
from repro.sim.kernel import KernelLimits
from repro.spec.specification import Specification
from repro.spec.stmt import Stmt

__all__ = [
    "LaneOutcome",
    "BatchSimulator",
]


class LaneOutcome:
    """What one stimulus produced: a result or a structured error.

    Exactly one of ``result`` / ``error`` is set.  ``error_text``
    renders the error the way the fuzz oracles compare error outcomes
    (``"TypeName: message"``).
    """

    __slots__ = ("lane", "inputs", "result", "error")

    def __init__(
        self,
        lane: int,
        inputs: Dict[str, object],
        result: Optional[SimulationResult] = None,
        error: Optional[BaseException] = None,
    ):
        self.lane = lane
        self.inputs = inputs
        self.result = result
        self.error = error

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def error_text(self) -> Optional[str]:
        if self.error is None:
            return None
        return f"{type(self.error).__name__}: {self.error}"

    def __repr__(self) -> str:
        state = "ok" if self.ok else self.error_text
        return f"<LaneOutcome lane={self.lane} {state}>"


class BatchSimulator:
    """Runs many stimulus vectors of one specification, compiling once.

    Parameters mirror :class:`~repro.sim.interpreter.Simulator` (minus
    fault injection): ``cost_fn`` and ``probe`` instrument every run,
    ``compile_cache=False`` selects the reference tree walker.  One instance may run many
    batches; its generated code persists across them.
    """

    #: kernel-variant tag reported by results produced here
    variant = "batched"

    def __init__(
        self,
        spec: Specification,
        cost_fn: Optional[Callable[[str, Stmt], float]] = None,
        probe: Optional[Probe] = None,
        compile_cache: bool = True,
    ):
        self._sim = Simulator(
            spec, cost_fn=cost_fn, probe=probe, compile_cache=compile_cache
        )
        self.spec = spec

    def run_batch(
        self,
        stimuli: Sequence[Optional[Dict[str, object]]],
        limits: Optional[KernelLimits] = None,
        require_completion: bool = False,
    ) -> List[LaneOutcome]:
        """Run every stimulus vector to quiescence, in order.

        ``stimuli`` holds one inputs dict (or ``None``) per lane; lane
        *i*'s :class:`LaneOutcome` is item *i* of the returned list.
        ``limits`` and ``require_completion`` apply to
        each run exactly as in :meth:`Simulator.run`; ``wall_clock``
        therefore budgets each run, not the whole batch.  A run that
        raises a :class:`ReproError` becomes a faulted lane and the
        remaining lanes still run.
        """
        outcomes: List[LaneOutcome] = []
        for index, stimulus in enumerate(stimuli):
            inputs = dict(stimulus or {})
            try:
                result = self._sim.run(
                    inputs=inputs,
                    limits=limits,
                    require_completion=require_completion,
                )
            except ReproError as exc:
                outcomes.append(LaneOutcome(index, inputs, error=exc))
            else:
                outcomes.append(LaneOutcome(index, inputs, result=result))
        return outcomes
