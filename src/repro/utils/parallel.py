"""Process-level parallelism helpers.

The library's embarrassingly parallel stages (forest training, HPO trials)
fan out through
:func:`parallel_map`, which degrades gracefully to a serial loop when
``n_jobs == 1`` or when the workload is too small to amortise process
startup.  Results are returned in input order regardless of completion
order, so parallel and serial execution are bit-identical given per-task
seeds (see :mod:`repro.utils.rng`).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

__all__ = [
    "ParallelWorkerError",
    "parallel_map",
    "chunk_indices",
    "effective_n_jobs",
]

T = TypeVar("T")
R = TypeVar("R")


class ParallelWorkerError(RuntimeError):
    """A worker task failed; the message names the failing work item.

    Raised (with the original exception chained as ``__cause__``) when
    :func:`parallel_map` is given a ``label`` callable, so a failure deep in
    a fan-out identifies its chunk instead of surfacing as an anonymous
    pickled traceback.
    """


def effective_n_jobs(n_jobs: int | None) -> int:
    """Resolve an ``n_jobs`` request to a worker count.

    ``None`` or ``0`` → 1 (serial).  Negative values count back from the CPU
    count, sklearn-style (``-1`` → all cores).  Positive requests are taken
    at face value — oversubscription is deliberate, so equivalence tests can
    exercise real worker processes even on single-core runners.
    """
    cpus = os.cpu_count() or 1
    if n_jobs is None or n_jobs == 0:
        return 1
    if n_jobs < 0:
        return max(1, cpus + 1 + n_jobs)
    return n_jobs


class _LabelledCall:
    """Picklable wrapper attaching an item label to worker exceptions.

    Items arrive as ``(label_str, item)`` pairs — labels are rendered in the
    parent so the ``label`` callable itself (often a lambda) never needs to
    be picklable.
    """

    def __init__(self, fn: Callable[[T], R]) -> None:
        self.fn = fn

    def __call__(self, pair: tuple[str, T]) -> R:
        label, item = pair
        try:
            return self.fn(item)
        except Exception as exc:
            # Broad on purpose: every worker failure must come back naming
            # its chunk.  Re-raised immediately — nothing is swallowed.
            raise ParallelWorkerError(
                f"worker failed on {label}: {exc!r}"
            ) from exc


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    n_jobs: int | None = 1,
    min_items_per_job: int = 1,
    label: Callable[[T], str] | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, optionally across processes.

    Parameters
    ----------
    fn:
        Picklable callable applied to each item.
    items:
        The work list; each item must be picklable when ``n_jobs > 1``.
    n_jobs:
        Worker processes; see :func:`effective_n_jobs`.
    min_items_per_job:
        If ``len(items) / n_jobs`` falls below this, the pool is shrunk so
        process startup cannot dominate tiny workloads.
    label:
        Optional ``item → str`` describing each work item; when given, a
        worker exception is re-raised as :class:`ParallelWorkerError` naming
        the failing item (identically in serial and parallel execution).
    """
    items = list(items)
    if label is not None:
        items = [(label(item), item) for item in items]
        fn = _LabelledCall(fn)
    n = effective_n_jobs(n_jobs)
    if min_items_per_job > 0:
        n = min(n, max(1, len(items) // min_items_per_job))
    try:
        if n <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ProcessPoolExecutor(max_workers=n) as pool:
            return list(pool.map(fn, items))
    except ParallelWorkerError:
        _count_worker_failure()
        raise


def _count_worker_failure() -> None:
    """Bump the fan-out failure counter in the *parent* process.

    Function-scoped import: ``utils`` sits below ``obs`` in the layering
    DAG, so the dependency stays runtime-only (IMP001 exempts these).
    Counting here, rather than in the worker, also means the bump lands
    in the registry that survives the pool.
    """
    from repro.obs import metrics

    metrics.get_registry().counter(
        "parallel_worker_failures_total",
        help="parallel_map tasks that raised (labelled chunk re-raised)",
    ).inc()


def chunk_indices(n: int, n_chunks: int) -> list[np.ndarray]:
    """Split ``range(n)`` into ``n_chunks`` contiguous, near-equal chunks.

    The first ``n % n_chunks`` chunks get one extra element, matching the
    block decomposition conventional in MPI codes.
    """
    if n_chunks <= 0:
        raise ValueError(f"n_chunks must be positive, got {n_chunks}")
    bounds = np.linspace(0, n, min(n_chunks, max(n, 1)) + 1).astype(np.intp)
    return [np.arange(lo, hi, dtype=np.intp) for lo, hi in zip(bounds[:-1], bounds[1:])]

