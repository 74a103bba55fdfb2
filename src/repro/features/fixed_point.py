"""Exact fixed-point accumulation for the aggregate features.

Every Table II aggregate ("Par *" and "User * Past Day") is a sum of
non-negative per-job values over a set of jobs.  Summed in float64, the
result depends on the order of the additions and, through prefix-sum
differences, on jobs outside the set: a user with no other job in the
window could read ``1e-10`` of memory, or ``-1e-10``.

Each value is therefore converted once to two int64 limbs and every sum
is an integer sum.  Integer addition is associative, so an aggregate is a
function of the set of jobs it sums only — not of their order, nor of the
other jobs in the trace — and an empty set is exactly ``0.0``.

A value ``v >= 0`` becomes ``hi = floor(v·2²⁴)`` and
``lo = rint((v·2²⁴ − hi)·2⁴⁰)``, so ``v ≈ hi·2⁻²⁴ + lo·2⁻⁶⁴`` (exact for
every ``v >= 2⁻¹²``, within ``2⁻⁶⁵`` below).  Sums stay exact while each
limb's column total is below ``2⁶²``, i.e. about ``2.7e11`` per summed set;
:func:`to_fixed` refuses anything it cannot represent rather than let int64
wrap around.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

__all__ = ["to_fixed", "from_fixed"]

_HI = 2.0**24
_LO = 2.0**40
#: Limb column totals stay below this, so no partial sum can overflow.
_LIMIT = 2.0**62


def to_fixed(columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """``(n, 2k)`` int64 limbs of ``k`` value columns, ``(hi, lo)`` pairs in
    column order.

    Raises :class:`ValueError` naming the column for a non-finite or
    negative value, or for a column total beyond the exact range.
    """
    n = len(next(iter(columns.values()))) if columns else 0
    limbs = np.empty((n, 2 * len(columns)), dtype=np.int64)
    for c, (name, raw) in enumerate(columns.items()):
        v = np.asarray(raw, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name}: non-finite value cannot be summed exactly")
        if np.any(v < 0):
            raise ValueError(f"{name}: negative value {v.min():g} in a sum of non-negatives")
        scaled = v * _HI
        hi = np.floor(scaled)
        lo = np.rint((scaled - hi) * _LO)
        if not (hi.sum() < _LIMIT and lo.sum() < _LIMIT):
            raise ValueError(
                f"{name}: total {v.sum():g} is beyond the exact int64 fixed-point range"
            )
        limbs[:, 2 * c] = hi
        limbs[:, 2 * c + 1] = lo
    return limbs


def from_fixed(limbs: np.ndarray) -> np.ndarray:
    """Float64 values of (summed) limbs: ``(..., 2k)`` → ``(..., k)``."""
    return limbs[..., 0::2] * (1.0 / _HI) + limbs[..., 1::2] * (1.0 / (_HI * _LO))
