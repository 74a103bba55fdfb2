"""Centred interval trees with vectorised batch stabbing.

The paper's feature engineering needs, for every job's eligibility instant
``t``, the set of jobs whose pending interval ``[eligible, start)`` or run
interval ``[start, end)`` contains ``t`` — millions of stabbing queries over
millions of intervals.  The paper's solution is interval trees (built over
chunks of 100 000 jobs with a 10 000-job overlap, then merged).  The
feature pipeline no longer stabs: it needs only the sums over those sets,
which :mod:`repro.features.snapshots` reads off prefix sums.  The
unchunked tree stays as the A1 bench's reference for the paper's claim and
as a test oracle, next to the naive O(n·m) scan.

This implementation goes one step further than a textbook tree: stabbing
queries are *batched*.  The query set is pushed down the tree as arrays, and
at each node the matching (query, interval) pairs are emitted with pure
NumPy prefix arithmetic, so the per-query Python overhead is amortised over
the whole batch — the vectorise-the-loop discipline of the hpc-parallel
guides.

All intervals are half-open ``[start, end)``: a point ``t`` is covered when
``start <= t < end``.  Empty intervals (``end <= start``) are legal and
never match.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

__all__ = ["IntervalTree", "naive_stab_batch"]


@dataclass
class _Node:
    """One node of the centred tree.

    ``ids_by_start`` / ``ids_by_end`` index the *original* interval arrays;
    both hold the same interval set (those straddling ``center``), ordered
    by ascending start and descending end respectively.
    """

    center: float
    starts_sorted: np.ndarray  # ascending starts of straddling intervals
    ends_sorted_desc: np.ndarray  # descending ends of the same intervals
    ids_by_start: np.ndarray
    ids_by_end: np.ndarray
    left: "_Node | None"
    right: "_Node | None"


class IntervalTree:
    """Static centred interval tree over parallel ``starts`` / ``ends``.

    Parameters
    ----------
    starts, ends:
        Parallel 1-D arrays defining half-open intervals ``[start, end)``;
        queries return positional indices into them.
    """

    def __init__(self, starts: np.ndarray, ends: np.ndarray) -> None:
        starts = np.ascontiguousarray(starts, dtype=np.float64)
        ends = np.ascontiguousarray(ends, dtype=np.float64)
        if starts.ndim != 1 or starts.shape != ends.shape:
            raise ValueError(
                f"starts/ends must be equal-length 1-D arrays, got "
                f"{starts.shape} and {ends.shape}"
            )
        self.starts = starts
        self.ends = ends
        # Drop empty intervals up front: they can never match a stab.
        live = np.flatnonzero(ends > starts)
        self.n_intervals = len(starts)
        self._root = self._build(live) if len(live) else None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, idx: np.ndarray) -> _Node | None:
        if len(idx) == 0:
            return None
        s = self.starts[idx]
        e = self.ends[idx]
        # Median of all endpoints keeps the tree balanced for clustered data.
        center = float(np.median(np.concatenate([s, e])))
        straddle = (s <= center) & (center < e)
        left_mask = e <= center
        right_mask = s > center
        node_idx = idx[straddle]
        ns = self.starts[node_idx]
        ne = self.ends[node_idx]
        order_s = np.argsort(ns, kind="stable")
        order_e = np.argsort(-ne, kind="stable")
        left_idx = idx[left_mask]
        right_idx = idx[right_mask]
        # Degenerate split guard: if nothing straddles and one side holds
        # everything, recursion would not shrink — split that side by rank.
        if len(node_idx) == 0 and (len(left_idx) == len(idx) or len(right_idx) == len(idx)):
            side = left_idx if len(left_idx) == len(idx) else right_idx
            half = len(side) // 2
            order = np.argsort(self.starts[side], kind="stable")
            side = side[order]
            lo, hi = side[:half], side[half:]
            # Promote one interval to the node to guarantee progress.
            promoted = hi[:1]
            hi = hi[1:]
            ps = self.starts[promoted]
            pe = self.ends[promoted]
            return _Node(
                center=float(ps[0]),
                starts_sorted=ps,
                ends_sorted_desc=pe,
                ids_by_start=promoted.astype(np.int64),
                ids_by_end=promoted.astype(np.int64),
                left=self._build(lo),
                right=self._build(hi),
            )
        return _Node(
            center=center,
            starts_sorted=ns[order_s],
            ends_sorted_desc=ne[order_e],
            ids_by_start=node_idx[order_s].astype(np.int64),
            ids_by_end=node_idx[order_e].astype(np.int64),
            left=self._build(left_idx),
            right=self._build(right_idx),
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def stab(self, t: float) -> np.ndarray:
        """Positional indices of all intervals containing point ``t``."""
        idx, indptr = self.stab_batch(np.asarray([t], dtype=np.float64))
        return idx[indptr[0] : indptr[1]]

    def stab_batch(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched stabbing query.

        Parameters
        ----------
        ts:
            1-D array of query points.

        Returns
        -------
        (indices, indptr):
            CSR layout — matches for query ``k`` are
            ``indices[indptr[k]:indptr[k+1]]`` (positional interval indices,
            unordered).
        """
        ts = np.ascontiguousarray(ts, dtype=np.float64)
        if ts.ndim != 1:
            raise ValueError(f"ts must be 1-D, got shape {ts.shape}")
        m = len(ts)
        pair_q: list[np.ndarray] = []
        pair_i: list[np.ndarray] = []
        if self._root is not None and m:
            stack: list[tuple[_Node, np.ndarray]] = [
                (self._root, np.arange(m, dtype=np.intp))
            ]
            while stack:
                node, qidx = stack.pop()
                tq = ts[qidx]
                lt = tq < node.center
                gt = tq > node.center
                eq = ~lt & ~gt
                # t < center: matching straddlers have start <= t.
                q_lt = qidx[lt]
                if len(q_lt):
                    counts = np.searchsorted(
                        node.starts_sorted, ts[q_lt], side="right"
                    )
                    _emit(pair_q, pair_i, q_lt, counts, node.ids_by_start)
                    if node.left is not None:
                        stack.append((node.left, q_lt))
                # t > center: matching straddlers have end > t.
                q_gt = qidx[gt]
                if len(q_gt):
                    # ends_sorted_desc is descending; count of ends > t is
                    # the insertion point in the ascending reversed array.
                    counts = len(node.ends_sorted_desc) - np.searchsorted(
                        node.ends_sorted_desc[::-1], ts[q_gt], side="right"
                    )
                    _emit(pair_q, pair_i, q_gt, counts, node.ids_by_end)
                    if node.right is not None:
                        stack.append((node.right, q_gt))
                # t == center: every straddler matches.
                q_eq = qidx[eq]
                if len(q_eq):
                    k = len(node.ids_by_start)
                    if k:
                        counts = np.full(len(q_eq), k, dtype=np.intp)
                        _emit(pair_q, pair_i, q_eq, counts, node.ids_by_start)
        if pair_q:
            qs = np.concatenate(pair_q)
            iv = np.concatenate(pair_i)
        else:
            qs = np.zeros(0, dtype=np.intp)
            iv = np.zeros(0, dtype=np.int64)
        order = np.argsort(qs, kind="stable")
        qs = qs[order]
        iv = iv[order]
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.add.at(indptr, qs + 1, 1)
        np.cumsum(indptr, out=indptr)
        return iv, indptr

    @property
    def depth(self) -> int:
        """Tree height (0 for an empty tree)."""

        def _d(node: _Node | None) -> int:
            if node is None:
                return 0
            return 1 + max(_d(node.left), _d(node.right))

        return _d(self._root)


def _emit(
    pair_q: list[np.ndarray],
    pair_i: list[np.ndarray],
    qidx: np.ndarray,
    counts: np.ndarray,
    ids_sorted: np.ndarray,
) -> None:
    """Append the (query, interval) pairs for per-query prefix matches.

    ``counts[k]`` is how many leading entries of ``ids_sorted`` match query
    ``qidx[k]``; the expansion is pure prefix arithmetic (no Python loop).
    """
    total = int(counts.sum())
    if total == 0:
        return
    counts = counts.astype(np.intp, copy=False)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total, dtype=np.intp) - offsets
    pair_q.append(np.repeat(qidx, counts))
    pair_i.append(ids_sorted[within])


def naive_stab_batch(
    starts: np.ndarray,
    ends: np.ndarray,
    ts: np.ndarray,
    block: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """O(n·m) stabbing baseline for the A1 ablation.

    Broadcast comparison in query blocks of ``block`` to bound peak memory.
    Returns the same CSR layout as :meth:`IntervalTree.stab_batch`, with
    matches sorted ascending per query.
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    m = len(ts)
    chunks_i: list[np.ndarray] = []
    counts = np.zeros(m, dtype=np.int64)
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        tq = ts[lo:hi, None]
        hit = (starts[None, :] <= tq) & (tq < ends[None, :])
        qk, ik = np.nonzero(hit)
        chunks_i.append(ik.astype(np.int64))
        np.add.at(counts, qk + lo, 1)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = (
        np.concatenate(chunks_i) if chunks_i else np.zeros(0, dtype=np.int64)
    )
    return indices, indptr
