"""Per-job circuit breaker: quarantine specs that crash workers.

A job spec that SIGKILLs, segfaults or OOMs a worker process costs the
server a worker re-fork every time it is submitted.  Without
protection, a client replaying such a spec in a retry loop turns the
worker fleet into a fork bomb ("worker thrash").  The breaker gives each
content-addressed job key a standard three-state circuit:

``closed``
    Normal service.  ``threshold`` *consecutive* crash-class failures
    (worker crash or per-job timeout) trip the circuit.
``open``
    Submissions are rejected up front with a structured 503 and a
    ``Retry-After`` equal to the remaining cooldown — the job never
    reaches a worker.
``half-open``
    After ``cooldown`` seconds one probe request is admitted.  Success
    closes the circuit; another crash reopens it for a fresh cooldown.

Because the key is content-addressed (see :func:`repro.exec.job.job_key`),
quarantining one poisonous spec never affects any other request — and a
changed spec (or changed code, via the salt) gets a fresh circuit.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

__all__ = ["BreakerDecision", "CircuitBreaker"]


class BreakerDecision:
    """What :meth:`CircuitBreaker.admit` decided for one submission."""

    __slots__ = ("allowed", "state", "retry_after")

    def __init__(self, allowed: bool, state: str, retry_after: float = 0.0):
        self.allowed = allowed
        self.state = state
        self.retry_after = retry_after

    def __repr__(self) -> str:
        return (
            f"<BreakerDecision allowed={self.allowed} state={self.state!r} "
            f"retry_after={self.retry_after:.3f}>"
        )


class _Circuit:
    __slots__ = ("failures", "state", "opened_at", "probing", "trips")

    def __init__(self):
        self.failures = 0
        self.state = "closed"
        self.opened_at = 0.0
        self.probing = False
        self.trips = 0


class CircuitBreaker:
    """Thread-safe circuit registry keyed by job key.

    ``threshold``
        Consecutive crash-class failures that open a circuit.
    ``cooldown``
        Seconds an open circuit rejects submissions before admitting a
        half-open probe.
    ``clock``
        Injectable monotonic clock (tests freeze it).
    ``journal``
        An :class:`repro.obs.events.EventJournal`; state transitions
        become ``breaker-open`` / ``breaker-close`` records carrying
        the bound request ID (default: the no-op journal).
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock=time.monotonic,
        journal=None,
    ):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown <= 0:
            raise ValueError(f"cooldown must be > 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        if journal is None:
            from repro.obs.events import NULL_JOURNAL

            journal = NULL_JOURNAL
        self._journal = journal
        self._lock = threading.Lock()
        self._circuits: Dict[str, _Circuit] = {}

    # -- decisions -----------------------------------------------------------

    def admit(self, key: str) -> BreakerDecision:
        """Decide whether a submission for ``key`` may proceed."""
        with self._lock:
            circuit = self._circuits.get(key)
            if circuit is None or circuit.state == "closed":
                return BreakerDecision(True, "closed")
            now = self._clock()
            remaining = circuit.opened_at + self.cooldown - now
            if remaining > 0:
                return BreakerDecision(False, "open", retry_after=remaining)
            # cooldown elapsed: admit exactly one probe at a time
            if circuit.probing:
                return BreakerDecision(
                    False, "half-open", retry_after=self.cooldown
                )
            circuit.state = "half-open"
            circuit.probing = True
            return BreakerDecision(True, "half-open")

    def record(self, key: str, ok: bool) -> None:
        """Feed the outcome of an executed (or probed) job back in.

        ``ok`` is "did not crash a worker": a clean payload *and* a
        deterministic task error both count as success — only
        crash-class outcomes (worker crash, timeout) push a circuit
        toward open.
        """
        closed = opened = None
        with self._lock:
            circuit = self._circuits.get(key)
            if ok:
                if circuit is not None:
                    self._circuits.pop(key, None)
                    if circuit.state != "closed":
                        closed = circuit
            else:
                if circuit is None:
                    circuit = self._circuits.setdefault(key, _Circuit())
                was = circuit.state
                circuit.probing = False
                circuit.failures += 1
                if (
                    circuit.state == "half-open"
                    or circuit.failures >= self.threshold
                ):
                    circuit.state = "open"
                    circuit.opened_at = self._clock()
                    circuit.trips += 1
                    if was != "open":
                        opened = circuit
        # journal outside the lock: the sink may do file I/O
        if closed is not None:
            self._journal.emit(
                "breaker-close", key=key, trips=closed.trips
            )
        if opened is not None:
            self._journal.emit(
                "breaker-open", key=key, failures=opened.failures,
                trips=opened.trips,
            )

    def reset(self, key: Optional[str] = None) -> None:
        """Forget one circuit (or all of them)."""
        with self._lock:
            if key is None:
                self._circuits.clear()
            else:
                self._circuits.pop(key, None)

    # -- introspection -------------------------------------------------------

    def state(self, key: str) -> str:
        with self._lock:
            circuit = self._circuits.get(key)
            return circuit.state if circuit is not None else "closed"

    def snapshot(self) -> Dict[str, object]:
        """Stats-endpoint view: open circuits and cumulative trips."""
        with self._lock:
            open_keys: List[str] = sorted(
                key
                for key, circuit in self._circuits.items()
                if circuit.state != "closed"
            )
            trips = sum(c.trips for c in self._circuits.values())
            return {
                "tracked": len(self._circuits),
                "open": open_keys,
                "trips": trips,
                "threshold": self.threshold,
                "cooldown_seconds": self.cooldown,
            }
