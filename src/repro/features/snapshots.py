"""Partition-state aggregates at eligibility time (Table II "Par *" rows).

For every job ``j`` with eligibility instant ``t_j`` these functions
aggregate, within j's partition, over:

- the **queue**: jobs pending at ``t_j`` (``eligible ≤ t_j < start``),
- the **ahead** subset: pending jobs with strictly higher priority, and
- the **running** set: jobs executing at ``t_j`` (``start ≤ t_j < end``);

summing jobs / CPUs / memory / nodes / timelimit (and, optionally, the
runtime model's predictions).  The job itself is excluded from every set.

The paper stabs interval trees for these sets; no set is needed, only its
sums, so each partition is one sweep (DESIGN.md §6):

- **queue / running** — a signed-event prefix sum: ``+w`` at ``eligible``
  and ``−w`` at ``start`` (``start``/``end`` for running), read at ``t_j``
  with a ``searchsorted``; the job's own row is then subtracted.
- **ahead** — an offline 2-D dominance sum over (event time, priority
  rank), one argsort/cumsum/searchsorted pass per bit of the rank.

All sums run in exact int64 fixed point (:mod:`repro.features.fixed_point`),
so a row depends on the set of jobs it sums only.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import JobSet
from repro.features.fixed_point import from_fixed, to_fixed
from repro.obs import tracing

__all__ = ["partition_snapshots", "SNAPSHOT_KEYS"]

SNAPSHOT_KEYS: tuple[str, ...] = (
    "par_jobs_ahead",
    "par_cpus_ahead",
    "par_mem_ahead",
    "par_nodes_ahead",
    "par_timelimit_ahead",
    "par_jobs_queue",
    "par_cpus_queue",
    "par_mem_queue",
    "par_nodes_queue",
    "par_timelimit_queue",
    "par_jobs_running",
    "par_cpus_running",
    "par_mem_running",
    "par_nodes_running",
    "par_timelimit_running",
    "par_queue_pred_timelimit",
    "par_running_pred_timelimit",
)

#: Output names of the summed columns, in limb order; the runtime
#: prediction's two limbs come last (summed for queue and running only).
_SUMMED = ("jobs", "cpus", "mem", "nodes", "timelimit")


def _open_at(lo: np.ndarray, hi: np.ndarray, w: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Limb sums over the half-open intervals ``[lo, hi)`` containing each
    of ``ts``: the prefix sum of ``+w`` at ``lo`` and ``−w`` at ``hi``."""
    times = np.concatenate([lo, np.maximum(lo, hi)])  # inverted = empty
    order = np.argsort(times, kind="stable")
    csum = np.zeros((len(times) + 1, w.shape[1]), dtype=np.int64)
    np.cumsum(np.concatenate([w, -w])[order], axis=0, out=csum[1:])
    return csum[np.searchsorted(times[order], ts, side="right")]


def _dominance(
    x: np.ndarray, prio: np.ndarray, w: np.ndarray, ts: np.ndarray, qprio: np.ndarray
) -> np.ndarray:
    """Per query ``k``: limb sum of ``w[i]`` over ``x[i] ≤ ts[k]`` and
    ``prio[i] > qprio[k]``.

    Rank the items by descending priority; the items above a query are
    the ranks ``< R``.  Each set bit ``b`` of ``R`` contributes the block
    of ranks sharing ``R``'s higher bits with bit ``b`` clear — one group
    of ``rank >> b`` — so one pass per bit sorts by (group, time), takes a
    cumsum and reads each query's group prefix with two searchsorteds.
    """
    n = len(x)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(-prio, kind="stable")] = np.arange(n)
    above = n - np.searchsorted(np.sort(prio), qprio, side="right")
    by_time = np.argsort(x, kind="stable")
    tpos = np.empty(n, dtype=np.int64)
    tpos[by_time] = np.arange(n)
    qpos = np.searchsorted(x[by_time], ts, side="right")
    out = np.zeros((len(ts), w.shape[1]), dtype=np.int64)
    csum = np.zeros((n + 1, w.shape[1]), dtype=np.int64)
    for b in range(n.bit_length()):
        sel = np.flatnonzero((above >> b) & 1)
        if not len(sel):
            continue
        key = (rank >> b) * n + tpos
        order = np.argsort(key)
        key = key[order]
        np.cumsum(w[order], axis=0, out=csum[1:])
        base = ((above[sel] >> b) - 1) * n
        out[sel] += (
            csum[np.searchsorted(key, base + qpos[sel])]
            - csum[np.searchsorted(key, base)]
        )
    return out


def _partition_sweep(
    elig: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    prio: np.ndarray,
    w: np.ndarray,
) -> dict[str, np.ndarray]:
    """All aggregates for one partition, from its ``(m, 12)`` value limbs."""
    queue = _open_at(elig, start, w, elig)
    queue -= w * (elig < start)[:, None]
    running = _open_at(start, end, w, elig)
    running -= w * ((start <= elig) & (elig < end))[:, None]
    # Only jobs with start > eligible are ever pending; the job itself is
    # never strictly above its own priority.
    cand = np.flatnonzero(elig < start)
    wa = w[cand, :-2]  # "ahead" has no predicted-runtime column
    ahead = _dominance(
        np.concatenate([elig[cand], start[cand]]),
        np.concatenate([prio[cand], prio[cand]]),
        np.concatenate([wa, -wa]),
        elig,
        prio,
    )
    sums = {"ahead": from_fixed(ahead), "queue": from_fixed(queue), "running": from_fixed(running)}
    out: dict[str, np.ndarray] = {}
    for kind, s in sums.items():
        for c, value in enumerate(_SUMMED):
            out[f"par_{value}_{kind}"] = s[:, c]
    out["par_queue_pred_timelimit"] = sums["queue"][:, 5]
    out["par_running_pred_timelimit"] = sums["running"][:, 5]
    return out


def partition_snapshots(
    jobs: JobSet,
    pred_runtime_min: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Compute all partition-state aggregates for an eligibility-ordered trace.

    Parameters
    ----------
    jobs:
        The full accounting trace.  Must contain final start/end times
        (feature engineering is done on history, as in the paper).
    pred_runtime_min:
        Per-job predicted runtimes from the runtime model; enables the
        ``par_queue_pred_timelimit`` / ``par_running_pred_timelimit``
        features.  ``None`` falls back to the requested timelimit (the
        scheduler's own assumption).

    Returns
    -------
    Mapping of :data:`SNAPSHOT_KEYS` to ``(n_jobs,)`` arrays, aligned with
    the input order.

    Raises
    ------
    ValueError
        For a NaN time or priority, or a summed value that is non-finite,
        negative, or whose partition total is beyond the exact fixed-point
        range (the message names the column).
    """
    n = len(jobs)
    rec = jobs.records
    for name in ("eligible_time", "start_time", "end_time", "priority"):
        if np.isnan(rec[name]).any():  # would silently mis-sort the sweep
            raise ValueError(f"{name}: NaN in a snapshot ordering column")
    if pred_runtime_min is None:
        pred_runtime_min = rec["timelimit_min"].astype(np.float64)
    else:
        pred_runtime_min = np.asarray(pred_runtime_min, dtype=np.float64)
        if pred_runtime_min.shape != (n,):
            raise ValueError("pred_runtime_min must have one value per job")

    values = {
        "jobs": np.ones(n),
        "req_cpus": rec["req_cpus"],
        "req_mem_gb": rec["req_mem_gb"],
        "req_nodes": rec["req_nodes"],
        "timelimit_min": rec["timelimit_min"],
        "pred_runtime_min": pred_runtime_min,
    }
    out: dict[str, np.ndarray] = {k: np.zeros(n) for k in SNAPSHOT_KEYS}
    for p in np.unique(rec["partition"]):
        g = np.flatnonzero(rec["partition"] == p)
        with tracing.span(f"partition[{p}]", rows=len(g)):
            w = to_fixed({f"{k} (partition {p})": v[g] for k, v in values.items()})
            sub = _partition_sweep(
                rec["eligible_time"][g],
                rec["start_time"][g],
                rec["end_time"][g],
                rec["priority"][g],
                w,
            )
        for k in SNAPSHOT_KEYS:
            out[k][g] = sub[k]
    return out
