"""Order statistics the benchmark reports.

Tails follow one rule everywhere: the highest nearest-rank percentile that
still has at least ``MIN_BEYOND`` samples above it.  With fewer samples no
tail is reported at all, rather than a maximum dressed up as a percentile.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail value with the percentile it sits at and the sample count."""

    percentile: float
    value: float
    n: int

    def label(self) -> str:
        return f"p{self.percentile:g} of n={self.n}"


def tail(samples, min_beyond: int = MIN_BEYOND) -> Tail | None:
    """Highest nearest-rank percentile with ``min_beyond`` samples beyond it.

    For ``n`` samples sorted ascending, the value at 0-based rank ``i`` has
    ``n - 1 - i`` samples above it, so the answer is rank ``n - 1 -
    min_beyond`` at percentile ``100 (i + 1) / n``: p90 at n=100, p50 at
    n=20.  ``inf`` samples (failed requests) sort last and so count as
    beyond any finite tail.  Returns ``None`` when ``n <= min_beyond``.
    """
    xs = sorted(samples)
    n = len(xs)
    i = n - 1 - min_beyond
    if i < 0:
        return None
    return Tail(percentile=round(100.0 * (i + 1) / n, 2), value=xs[i], n=n)


def describe_tail(samples_s) -> str:
    """The tail of op times in seconds, as a printable note in ms."""
    t = tail(samples_s)
    if t is None:
        return f"not reported: {len(list(samples_s))} ops leave no percentile with 10 beyond"
    return f"{t.value * 1e3:.1f} ms ({t.label()})"


def median(samples) -> float:
    xs = list(samples)
    if not xs:
        return math.nan
    return float(statistics.median(xs))
