"""Order statistics shared by the benchmark runner and the compare command.

Every percentile is returned together with its sample count, so a
printed figure always says how many samples stand behind it.  The
benchmark keeps its own statistics rather than importing
``repro.obs.stats``: a change to the program under test must not
change how its measurements are summarised.
"""

from __future__ import annotations

import math
from typing import Iterable, List, NamedTuple, Optional, Sequence


class Percentile(NamedTuple):
    """A percentile of a sample and the number of samples it came from."""

    value: float
    samples: int

    def describe(self, unit: str = "") -> str:
        suffix = f" {unit}" if unit else ""
        return f"{self.value:.4f}{suffix} (n={self.samples})"


def percentile(values: Iterable[float], fraction: float) -> Percentile:
    """Linear-interpolated percentile (``fraction`` in ``[0, 1]``).

    An empty sample raises ``ValueError``: a benchmark figure computed
    from no samples is a bug in the benchmark, not a zero.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return Percentile(value, len(ordered))


def median(values: Iterable[float]) -> float:
    return percentile(values, 0.5).value


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, median, Q3 as ``statistics.quantiles(values, n=4)`` gives
    them (the exclusive method); a single value is its own quartiles."""
    import statistics

    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def pairs_won(
    base: Sequence[float], change: Sequence[float], better: str
) -> Optional[float]:
    """Share of all (base, change) pairs in which ``change`` is better;
    ties count for neither side.  ``better`` is ``"lower"`` or
    ``"higher"``.  ``None`` when either side is empty."""
    if not base or not change:
        return None
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    won = 0
    for b in base:
        for c in change:
            if (c < b) if better == "lower" else (c > b):
                won += 1
    return won / (len(base) * len(change))
