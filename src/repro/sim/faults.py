"""Fault injection for the simulation stack.

Runtime-validation work (Jain & Manolios; Kolano) argues that refined
models should be *exercised under adverse conditions*, not only on the
happy path.  This module provides the adverse conditions: a
:class:`FaultInjector` driven by a seeded RNG and declarative
:class:`FaultScenario` descriptions, hooked into the kernel's
signal-update and scheduling paths through a two-method interface
(:meth:`FaultInjector.on_signal_write`,
:meth:`FaultInjector.on_activation`).

Supported fault kinds:

``drop``
    Discard a signal update (a lost handshake edge — the paper's
    Figure 5d protocol deadlocks without its ``done`` acknowledge).
``delay``
    Defer a signal update by ``delay`` simulated time units (a slow
    driver or a glitching bus).
``corrupt``
    Replace the written value with ``value``.
``flip_bit``
    XOR bit ``bit`` into an integer signal value (a single-event upset
    on a data bus line); a non-integer write passes untouched.
``stall``
    Suspend a process for ``delay`` time units instead of activating it
    (a slow server).
``kill``
    Terminate a process outright (a dead daemon server).

Targets are matched by :mod:`fnmatch` glob over the signal name (signal
kinds) or the process name (process kinds).  Scenario activation is
gated by ``after`` (simulation time), ``count`` (how many times the
scenario fires) and ``probability`` (per matching event; the seeded RNG
is only consulted when ``probability < 1``, so fully deterministic
scenarios consume no randomness).  Identical seeds and scenarios give
identical injection sequences — campaign outputs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from typing import List, Optional, Sequence, Tuple

from repro.errors import FaultConfigError

__all__ = [
    "SIGNAL_FAULT_KINDS",
    "PROCESS_FAULT_KINDS",
    "FaultScenario",
    "FaultEvent",
    "FaultInjector",
]

#: Fault kinds intercepting :meth:`Kernel.write_signal`.
SIGNAL_FAULT_KINDS = frozenset({"drop", "delay", "corrupt", "flip_bit"})

#: Fault kinds intercepting process activation.
PROCESS_FAULT_KINDS = frozenset({"stall", "kill"})


@dataclass(frozen=True)
class FaultScenario:
    """One declarative fault description.

    ``expect`` documents the campaign expectation: ``"recover"`` (the
    refined design should still be functionally equivalent under this
    fault) or ``"detect"`` (the fault must be caught — as a deadlock, a
    limit breach, or an equivalence mismatch — never silently ignored).
    """

    name: str
    kind: str
    target: str
    count: int = 1
    after: float = 0.0
    probability: float = 1.0
    delay: float = 0.0
    value: object = None
    bit: int = 0
    expect: str = "recover"

    def __post_init__(self):
        if self.kind not in SIGNAL_FAULT_KINDS | PROCESS_FAULT_KINDS:
            raise FaultConfigError(
                f"scenario {self.name!r}: unknown fault kind {self.kind!r}"
            )
        if self.count < 1:
            raise FaultConfigError(
                f"scenario {self.name!r}: count must be >= 1, got {self.count}"
            )
        if not 0.0 < self.probability <= 1.0:
            raise FaultConfigError(
                f"scenario {self.name!r}: probability must be in (0, 1], "
                f"got {self.probability}"
            )
        if self.kind in ("delay", "stall") and self.delay <= 0:
            raise FaultConfigError(
                f"scenario {self.name!r}: {self.kind} needs a positive delay"
            )
        if self.bit < 0:
            raise FaultConfigError(
                f"scenario {self.name!r}: bit must be >= 0, got {self.bit}"
            )
        if self.expect not in ("recover", "detect"):
            raise FaultConfigError(
                f"scenario {self.name!r}: expect must be 'recover' or "
                f"'detect', got {self.expect!r}"
            )

    def scaled(self, time_unit: float) -> "FaultScenario":
        """A copy with time fields multiplied by ``time_unit`` — lets a
        catalog express ``delay``/``after`` in protocol ticks while the
        injector works in kernel seconds."""
        return replace(
            self, after=self.after * time_unit, delay=self.delay * time_unit
        )


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (for reporting and assertions in tests)."""

    time: float
    scenario: str
    kind: str
    target: str
    detail: str = ""

    def __str__(self) -> str:
        text = f"t={self.time:g} [{self.scenario}] {self.kind} {self.target}"
        if self.detail:
            text += f" ({self.detail})"
        return text


@dataclass
class _Armed:
    """Mutable firing state of one scenario."""

    scenario: FaultScenario
    remaining: int = field(default=0)

    def __post_init__(self):
        self.remaining = self.scenario.count


class FaultInjector:
    """Applies :class:`FaultScenario` s to a running kernel.

    One injector instance drives one simulation run (firing counts are
    consumed); build a fresh injector per run.  Attach it via
    ``Kernel(injector=...)`` or ``Simulator.run(injector=...)``.
    """

    def __init__(self, scenarios: Sequence[FaultScenario], seed: int = 0):
        self.scenarios = tuple(scenarios)
        self.seed = seed
        self._rng = random.Random(seed)
        self._armed = [_Armed(s) for s in self.scenarios]
        #: every fault actually injected, in order
        self.events: List[FaultEvent] = []

    @property
    def fired(self) -> int:
        """Total number of faults injected so far."""
        return len(self.events)

    def fired_for(self, scenario_name: str) -> int:
        return sum(1 for e in self.events if e.scenario == scenario_name)

    def _match(self, kinds, now: float, name: str) -> Optional[FaultScenario]:
        for armed in self._armed:
            scenario = armed.scenario
            if scenario.kind not in kinds:
                continue
            if armed.remaining <= 0 or now < scenario.after:
                continue
            if not fnmatchcase(name, scenario.target):
                continue
            if (
                scenario.probability < 1.0
                and self._rng.random() >= scenario.probability
            ):
                continue
            armed.remaining -= 1
            return scenario
        return None

    # -- the kernel-facing interface ----------------------------------------

    def on_signal_write(
        self, now: float, name: str, value
    ) -> Tuple[str, object]:
        """Intercept one signal update.

        Returns ``(action, payload)`` where action is ``"pass"`` (apply
        ``payload`` as the value), ``"drop"`` (discard the update),
        ``"delay"`` (payload is ``(value, delay)``) or ``"corrupt"``
        (apply the corrupted payload).
        """
        scenario = self._match(SIGNAL_FAULT_KINDS, now, name)
        if scenario is None:
            return "pass", value
        if scenario.kind == "drop":
            self._log(now, scenario, name, f"suppressed value {value!r}")
            return "drop", None
        if scenario.kind == "delay":
            self._log(now, scenario, name, f"deferred by {scenario.delay:g}")
            return "delay", (value, scenario.delay)
        if scenario.kind == "corrupt":
            self._log(
                now, scenario, name, f"{value!r} -> {scenario.value!r}"
            )
            return "corrupt", scenario.value
        # flip_bit: a non-integer value passes untouched and is not an
        # injected fault (the firing is still spent, so later RNG draws
        # stay where they were)
        if not isinstance(value, int):
            return "pass", value
        flipped = value ^ (1 << scenario.bit)
        self._log(now, scenario, name, f"{value!r} -> {flipped!r}")
        return "corrupt", flipped

    def on_activation(self, now: float, process_name: str) -> Tuple[str, object]:
        """Intercept one process activation.

        Returns ``("run", None)``, ``("stall", delay)`` or
        ``("kill", None)``.
        """
        scenario = self._match(PROCESS_FAULT_KINDS, now, process_name)
        if scenario is None:
            return "run", None
        if scenario.kind == "stall":
            self._log(
                now, scenario, process_name, f"stalled {scenario.delay:g}"
            )
            return "stall", scenario.delay
        self._log(now, scenario, process_name, "killed")
        return "kill", None

    # -- reporting -----------------------------------------------------------

    def _log(self, now, scenario: FaultScenario, target: str, detail: str):
        self.events.append(
            FaultEvent(now, scenario.name, scenario.kind, target, detail)
        )

    def describe(self) -> str:
        if not self.events:
            return "no faults injected"
        return "\n".join(str(event) for event in self.events)
