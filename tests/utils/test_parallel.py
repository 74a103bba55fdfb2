"""Parallel helpers: ordering, chunking, error labelling."""

import numpy as np
import pytest

from repro.utils.parallel import (
    ParallelWorkerError,
    chunk_indices,
    effective_n_jobs,
    parallel_map,
)


def _square(x):
    return x * x


def _explode_on_bounds(bounds):
    lo, hi = bounds
    if lo == 30:
        raise ValueError("bad chunk data")
    return hi - lo


def test_parallel_map_serial_order():
    assert parallel_map(_square, [1, 2, 3], n_jobs=1) == [1, 4, 9]


def test_parallel_map_processes_match_serial():
    items = list(range(20))
    serial = parallel_map(_square, items, n_jobs=1)
    parallel = parallel_map(_square, items, n_jobs=2, min_items_per_job=1)
    assert serial == parallel


def test_parallel_map_shrinks_pool_for_small_work():
    # 3 items with min 10 per job must run serially without error.
    assert parallel_map(_square, [1, 2, 3], n_jobs=8, min_items_per_job=10) == [1, 4, 9]


def test_effective_n_jobs():
    assert effective_n_jobs(None) == 1
    assert effective_n_jobs(0) == 1
    assert effective_n_jobs(1) == 1
    assert effective_n_jobs(-1) >= 1
    # Positive requests are honoured verbatim so single-core runners can
    # still exercise real worker processes.
    assert effective_n_jobs(4) == 4


@pytest.mark.parametrize("n_jobs", [1, 3])
def test_worker_exception_carries_chunk_bounds(n_jobs):
    """A failing chunk names its [lo, hi) bounds, serial or parallel."""
    bounds = [(0, 10), (10, 20), (30, 45), (45, 60)]
    with pytest.raises(ParallelWorkerError, match=r"chunk \[30, 45\)") as exc:
        parallel_map(
            _explode_on_bounds,
            bounds,
            n_jobs=n_jobs,
            label=lambda b: f"chunk [{b[0]}, {b[1]})",
        )
    # The original error text rides along (the cause chain itself does not
    # survive pickling back from a worker process).
    assert "bad chunk data" in str(exc.value)
    if n_jobs == 1:
        assert isinstance(exc.value.__cause__, ValueError)


def test_parallel_map_without_label_raises_original():
    with pytest.raises(ValueError, match="bad chunk data"):
        parallel_map(_explode_on_bounds, [(30, 45)], n_jobs=1)


def test_chunk_indices_cover_range():
    chunks = chunk_indices(10, 3)
    joined = np.concatenate(chunks)
    np.testing.assert_array_equal(joined, np.arange(10))
    assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1


def test_chunk_indices_invalid():
    with pytest.raises(ValueError):
        chunk_indices(10, 0)

