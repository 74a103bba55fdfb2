"""Interval tree correctness — including hypothesis equivalence with the
naive O(n·m) reference on arbitrary interval sets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.interval_tree import IntervalTree, naive_stab_batch


def _csr_sets(indices, indptr):
    return [
        frozenset(indices[indptr[k] : indptr[k + 1]].tolist())
        for k in range(len(indptr) - 1)
    ]


def test_single_interval_stab():
    t = IntervalTree(np.array([1.0]), np.array([3.0]))
    assert list(t.stab(2.0)) == [0]
    assert list(t.stab(1.0)) == [0]  # inclusive start
    assert list(t.stab(3.0)) == []  # exclusive end
    assert list(t.stab(0.0)) == []


def test_empty_tree():
    t = IntervalTree(np.zeros(0), np.zeros(0))
    iv, indptr = t.stab_batch(np.array([1.0, 2.0]))
    assert len(iv) == 0 and list(indptr) == [0, 0, 0]
    assert t.depth == 0


def test_empty_intervals_never_match():
    t = IntervalTree(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert list(t.stab(1.0)) == []
    assert list(t.stab(2.0)) == []


def test_identical_intervals():
    n = 50
    t = IntervalTree(np.full(n, 5.0), np.full(n, 9.0))
    assert len(t.stab(7.0)) == n
    assert len(t.stab(4.0)) == 0


def test_input_validation():
    with pytest.raises(ValueError):
        IntervalTree(np.zeros(3), np.zeros(2))
    t = IntervalTree(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        t.stab_batch(np.zeros((2, 2)))


@given(
    data=st.lists(
        st.tuples(
            st.floats(-100, 100, allow_nan=False),
            st.floats(0, 50, allow_nan=False),
        ),
        min_size=1,
        max_size=120,
    ),
    queries=st.lists(st.floats(-120, 180, allow_nan=False), min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_tree_matches_naive(data, queries):
    starts = np.array([s for s, _ in data])
    ends = starts + np.array([d for _, d in data])
    ts = np.array(queries)
    tree = IntervalTree(starts, ends)
    got = _csr_sets(*tree.stab_batch(ts))
    want = _csr_sets(*naive_stab_batch(starts, ends, ts))
    assert got == want


def test_depth_logarithmic():
    n = 4096
    rng = np.random.default_rng(0)
    starts = rng.uniform(0, 1e6, n)
    ends = starts + rng.exponential(100, n)
    t = IntervalTree(starts, ends)
    assert t.depth <= 3 * int(np.log2(n))


def test_naive_block_boundaries():
    # Results identical across block sizes.
    rng = np.random.default_rng(1)
    s = rng.uniform(0, 10, 30)
    e = s + 1.0
    ts = rng.uniform(0, 11, 20)
    a = _csr_sets(*naive_stab_batch(s, e, ts, block=3))
    b = _csr_sets(*naive_stab_batch(s, e, ts, block=1000))
    assert a == b
