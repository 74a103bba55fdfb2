"""Per-user past-day aggregates (Table II "User * Past Day" rows).

At each job's eligibility instant, count/sum the *same user's* submissions
in the trailing 24 hours — the feature block that lets the model see
fair-share pressure ("this makes it necessary to integrate features
relating to users and their history").

Computed per user with prefix sums over the user's submit-time-sorted jobs:
the past-day window at any instant is a ``searchsorted`` pair, so the whole
block is O(n log n).  The sums are exact fixed point
(:mod:`repro.features.fixed_point`): a user with no other job in the window
reads exactly 0.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import JobSet
from repro.features.fixed_point import from_fixed, to_fixed

__all__ = ["user_past_day", "USER_KEYS", "PAST_DAY_S"]

PAST_DAY_S = 24 * 3600.0

USER_KEYS: tuple[str, ...] = (
    "user_jobs_past_day",
    "user_cpus_past_day",
    "user_mem_past_day",
    "user_nodes_past_day",
    "user_timelimit_past_day",
)


def user_past_day(jobs: JobSet, window_s: float = PAST_DAY_S) -> dict[str, np.ndarray]:
    """Aggregates over each user's submissions in ``[t − window, t]``.

    ``t`` is the job's eligibility instant; the job's own submission is
    inside its window when ``submit > eligible − window`` (it always is for
    immediately-eligible jobs) and is **excluded** — the features describe
    the user's *other* recent activity.

    Returns a mapping of :data:`USER_KEYS` to arrays aligned with the
    input order.
    """
    if window_s <= 0:
        raise ValueError(f"window_s must be positive, got {window_s}")
    rec = jobs.records
    n = len(jobs)
    out = {k: np.empty(n) for k in USER_KEYS}
    limbs = to_fixed(
        {
            "jobs": np.ones(n),
            "req_cpus": rec["req_cpus"],
            "req_mem_gb": rec["req_mem_gb"],
            "req_nodes": rec["req_nodes"],
            "timelimit_min": rec["timelimit_min"],
        }
    )
    # Every user's jobs in submit order, users one after another (lexsort
    # is stable, so equal submit times keep trace order).
    order = np.lexsort((rec["submit_time"], rec["user_id"]))
    submit = rec["submit_time"][order]
    elig = rec["eligible_time"][order]
    cuts = np.flatnonzero(np.diff(rec["user_id"][order])) + 1
    lo = np.empty(n, dtype=np.intp)
    hi = np.empty(n, dtype=np.intp)
    # Window bounds within each user's run: two binary searches per job.
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, n]):
        lo[a:b] = a + np.searchsorted(submit[a:b], elig[a:b] - window_s, side="left")
        hi[a:b] = a + np.searchsorted(submit[a:b], elig[a:b], side="right")
    csum = np.zeros((n + 1, limbs.shape[1]), dtype=np.int64)
    np.cumsum(limbs[order], axis=0, out=csum[1:])
    sums = csum[hi] - csum[lo]
    # Exclude the job's own submission when it falls in its window.
    pos = np.arange(n)
    sums -= limbs[order] * ((pos >= lo) & (pos < hi))[:, None]
    for key, col in zip(USER_KEYS, from_fixed(sums).T):
        out[key][order] = col
    return out
