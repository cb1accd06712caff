"""Simulation and execution counters — the observability layer.

Runtime-validation work (Jain & Manolios's refinement-based framework,
Kolano's real-time verification) treats an instrumented simulator as a
*measurement instrument*: the counts of process activations, delta
cycles and bus transactions are themselves evidence about a refined
design, not just progress indicators.  This module supplies that
instrumentation:

* :class:`SimMetrics` — a bag of plain integer counters the kernel
  increments inline (process activations, delta cycles, timesteps,
  signal writes/updates/changes, wakeups, bus transactions, injected
  faults).  Attaching one costs a single ``is not None`` check per
  scheduler event; a kernel without metrics pays nothing.
* :class:`ExecMetrics` — the same kind of bag one layer up, counting
  the execution engine's jobs and its own cache lookups.

Both, and the daemon's :class:`repro.serve.server.ServeMetrics`, are
:class:`Counters`: slotted structs whose ``FIELDS`` table drives one
shared reset / serialise / render implementation.  The
scheduler-event record is the kernel's own ring buffer
(:meth:`repro.sim.kernel.Kernel.format_trace`); pipeline phases are
timed by :class:`repro.obs.trace.SpanTracer`.

Attach via ``Kernel(metrics=...)`` or ``Simulator.run(metrics=...)``.
One :class:`SimMetrics` may be shared across several runs — counters
accumulate — or reset between runs with :meth:`Counters.reset`.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Dict, FrozenSet, Sequence, Tuple

__all__ = [
    "DEFAULT_BUS_SIGNAL_PATTERNS",
    "Counters",
    "ExecMetrics",
    "SimMetrics",
]

#: Glob patterns identifying bus transfer strobes.  Refinement names
#: buses ``b1``, ``b2``, ... and each bus's strobe ``<bus>_start``
#: (see :func:`repro.arch.protocols.bus_signal_names`); a transaction
#: is counted whenever such a strobe *changes to* a truthy value.
DEFAULT_BUS_SIGNAL_PATTERNS: Tuple[str, ...] = ("b*_start",)


class Counters:
    """A slotted bag of integer counters plus ``wall_seconds``.

    Subclasses declare ``FIELDS`` — ``(attribute, human label)`` pairs
    in display order — and slot those attributes; everything else
    (zeroing, the JSON mapping, the aligned text rendering) is driven
    by that table.  A field named in ``TALLIES`` is a per-kind tally
    (``kind -> count``) instead of one integer: it resets to ``{}``,
    counts through :meth:`tally` and serialises sorted by kind.
    """

    __slots__ = ("wall_seconds",)

    #: (attribute, human label) in display order.
    FIELDS: Tuple[Tuple[str, str], ...] = ()
    #: the ``FIELDS`` attributes that are per-kind tallies
    TALLIES: FrozenSet[str] = frozenset()

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        for name, _ in self.FIELDS:
            setattr(self, name, {} if name in self.TALLIES else 0)
        self.wall_seconds = 0.0

    def tally(self, name: str, kind: str) -> None:
        """Count one ``kind`` event in the per-kind tally ``name``."""
        bucket = getattr(self, name)
        bucket[kind] = bucket.get(kind, 0) + 1

    def _value(self, name: str) -> object:
        value = getattr(self, name)
        return dict(sorted(value.items())) if name in self.TALLIES else value

    def as_dict(self) -> Dict[str, object]:
        """All counters as a JSON-serialisable mapping."""
        out: Dict[str, object] = {name: self._value(name) for name, _ in self.FIELDS}
        out["wall_seconds"] = self.wall_seconds
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]):
        """Rebuild a counter bag from :meth:`as_dict` output.

        The execution engine ships kernel counters between processes
        (and through the on-disk result cache) as plain mappings;
        unknown keys are ignored so old cache entries stay loadable.
        """
        counters = cls()
        for name, _ in cls.FIELDS:
            if name in data:
                setattr(counters, name, data[name])
        if "wall_seconds" in data:
            counters.wall_seconds = float(data["wall_seconds"])
        return counters

    def describe(self, extra: Sequence[Tuple[str, object]] = ()) -> str:
        """Counters as aligned ``label: value`` lines; ``extra``
        ``(label, value)`` rows another owner counts follow them."""
        rows = [(label, self._value(name)) for name, label in self.FIELDS]
        rows.extend(extra)
        width = max(len(label) for label, _ in rows)
        lines = [f"{label:<{width}}  {value}" for label, value in rows]
        lines.append(f"{'wall seconds':<{width}}  {self.wall_seconds:.6f}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        fields = " ".join(f"{name}={getattr(self, name)}" for name, _ in self.FIELDS)
        return f"<{type(self).__name__} {fields}>"


class SimMetrics(Counters):
    """Counters the kernel maintains while it schedules.

    All counters are plain ``int`` attributes (``wall_seconds`` is a
    float) incremented inline by :class:`repro.sim.kernel.Kernel`; read
    them directly, or use :meth:`as_dict` / :meth:`describe`.

    ================== =================================================
    counter             meaning
    ================== =================================================
    activations         process activations (generator resumes)
    delta_cycles        delta cycles that applied at least one change
    timesteps           times simulated time advanced
    max_delta_streak    most delta cycles between two time advances
    signal_writes       ``write_signal`` calls that scheduled an update
    signal_updates      pending updates applied (incl. unchanged values)
    signal_changes      applied updates that changed the signal's value
    wakeups             processes woken from condition waits
    bus_transactions    strobe signals (``bus_patterns``) going truthy
    faults              fault-injector interventions (all kinds)
    processes_spawned   processes created
    processes_killed    processes terminated by :meth:`Kernel.kill`
    wall_seconds        real time spent inside :meth:`Kernel.run`
    ================== =================================================
    """

    FIELDS = (
        ("activations", "process activations"),
        ("delta_cycles", "delta cycles"),
        ("timesteps", "timesteps"),
        ("max_delta_streak", "max delta cycles/timestep"),
        ("signal_writes", "signal writes scheduled"),
        ("signal_updates", "signal updates applied"),
        ("signal_changes", "signal value changes"),
        ("wakeups", "condition wakeups"),
        ("bus_transactions", "bus transactions"),
        ("faults", "faults injected"),
        ("processes_spawned", "processes spawned"),
        ("processes_killed", "processes killed"),
    )
    __slots__ = tuple(name for name, _ in FIELDS) + ("bus_patterns", "_strobe_cache")

    def __init__(
        self, bus_patterns: Sequence[str] = DEFAULT_BUS_SIGNAL_PATTERNS
    ):
        self.bus_patterns = tuple(bus_patterns)
        #: signal name -> bool, memoised glob matches (hot path); it
        #: survives :meth:`reset`
        self._strobe_cache: Dict[str, bool] = {}
        super().__init__()

    # -- kernel-facing helpers ------------------------------------------------

    def is_bus_strobe(self, name: str) -> bool:
        """Whether ``name`` is a bus transfer strobe (memoised)."""
        cached = self._strobe_cache.get(name)
        if cached is None:
            cached = any(
                fnmatchcase(name, pattern) for pattern in self.bus_patterns
            )
            self._strobe_cache[name] = cached
        return cached

    def note_streak(self, streak: int) -> None:
        """Record a completed delta-cycle streak (kernel internal)."""
        if streak > self.max_delta_streak:
            self.max_delta_streak = streak

    # -- reporting ------------------------------------------------------------

    def publish(self, registry, **labels) -> None:
        """Bridge the counters into a telemetry registry.

        Each counter becomes ``repro_sim_<name>_total`` (incremented
        by the current value — publish once per run, not per poll);
        ``labels`` distinguishes runs sharing a registry, e.g.
        ``run="refined"``.  A disabled registry makes this a no-op.
        """
        names = tuple(sorted(labels))
        values = tuple(str(labels[name]) for name in names)
        for name, label in self.FIELDS:
            registry.counter(
                f"repro_sim_{name}_total", f"Kernel counter: {label}.", names
            ).labels(*values).inc(getattr(self, name))


class ExecMetrics(Counters):
    """Counters of the campaign execution engine (:mod:`repro.exec`).

    Where :class:`SimMetrics` counts scheduler events inside one
    simulation, an :class:`ExecMetrics` counts *jobs* across a
    campaign grid — how many were served from the content-addressed
    result cache, how many were executed (and where), and how the
    executor degraded under faults.  Attach one via
    ``ExecutionEngine(metrics=...)``; counters accumulate across
    ``run()`` calls until :meth:`reset`.  Events of the whole result
    cache (corrupt entries discarded, evictions) are not the engine's:
    engines may share one cache, so those live only in its
    :class:`repro.exec.cache.CacheStats`.

    ================== =================================================
    counter             meaning
    ================== =================================================
    jobs                jobs submitted to the engine
    cache_hits          this engine's lookups the result cache answered
    cache_misses        this engine's lookups that found nothing usable
    executed            jobs actually computed (serial or worker)
    failed              jobs that ended with a structured error
    timeouts            jobs abandoned after exceeding their timeout
    cancelled           jobs skipped because a cancel event was set
    retries             jobs re-run after a worker crash
    degraded            times an executor fell back to serial
    wall_seconds        real time spent inside ``ExecutionEngine.run``
    ================== =================================================
    """

    FIELDS = (
        ("jobs", "jobs submitted"),
        ("cache_hits", "cache hits"),
        ("cache_misses", "cache misses"),
        ("executed", "jobs executed"),
        ("failed", "jobs failed"),
        ("timeouts", "job timeouts"),
        ("cancelled", "jobs cancelled"),
        ("retries", "jobs retried"),
        ("degraded", "serial fallbacks"),
    )
    __slots__ = tuple(name for name, _ in FIELDS)
