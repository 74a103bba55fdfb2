"""Exact fixed-point accumulation: representation, exactness and the
values it refuses rather than wrap around in int64."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import JOB_DTYPE, JobSet
from repro.features.fixed_point import from_fixed, to_fixed
from repro.features.snapshots import partition_snapshots
from repro.features.user_history import user_past_day


def test_round_trip_is_exact_for_representable_values():
    v = np.array([0.0, 2.0**-12, 0.1, 1.5, 3.3, 127.9, 1e6 / 3, 2.0**37])
    assert np.array_equal(from_fixed(to_fixed({"v": v}))[:, 0], v)


@given(st.lists(st.floats(2.0**-12, 1e6), min_size=1, max_size=40), st.randoms())
@settings(max_examples=60, deadline=None)
def test_sum_is_order_free_and_cancels_exactly(values, rnd):
    v = np.array(values)
    limbs = to_fixed({"v": v})
    shuffled = limbs[rnd.sample(range(len(v)), len(v))]
    total = limbs.sum(axis=0)
    assert np.array_equal(shuffled.sum(axis=0), total)
    # Adding then removing every value leaves exactly nothing.
    assert from_fixed(total - limbs.sum(axis=0))[0] == 0.0
    np.testing.assert_allclose(from_fixed(total)[0], v.sum(), rtol=1e-12)


@pytest.mark.parametrize(
    "bad, match",
    [
        (np.nan, "non-finite"),
        (np.inf, "non-finite"),
        (-np.inf, "non-finite"),
        (-1.0, "negative"),
        (1e300, "beyond"),
    ],
)
def test_unrepresentable_values_are_refused(bad, match):
    with pytest.raises(ValueError, match=f"mem.*{match}"):
        to_fixed({"cpus": np.ones(3), "mem": np.array([1.0, bad, 2.0])})


def test_partition_total_beyond_range_is_refused():
    # Each value fits; their sum does not.
    v = np.full(4, 2.0**36)
    to_fixed({"v": v[:3]})
    with pytest.raises(ValueError, match="v: total"):
        to_fixed({"v": v})


def _jobs(mem):
    n = len(mem)
    rec = np.zeros(n, dtype=JOB_DTYPE)
    rec["job_id"] = np.arange(n)
    rec["eligible_time"] = rec["submit_time"] = np.arange(n, dtype=np.float64)
    rec["start_time"] = rec["eligible_time"] + 5.0
    rec["end_time"] = rec["start_time"] + 5.0
    rec["req_cpus"] = rec["req_nodes"] = 1
    rec["timelimit_min"] = 10.0
    rec["req_mem_gb"] = mem
    return JobSet(rec, ("p0",))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -5.0])
def test_feature_blocks_name_the_bad_column(bad):
    jobs = _jobs([4.0, bad, 1.0])
    with pytest.raises(ValueError, match="req_mem_gb"):
        partition_snapshots(jobs)
    with pytest.raises(ValueError, match="req_mem_gb"):
        user_past_day(jobs)


def test_bad_runtime_prediction_is_named():
    with pytest.raises(ValueError, match="pred_runtime_min"):
        partition_snapshots(_jobs([1.0, 2.0]), pred_runtime_min=np.array([1.0, np.nan]))


@pytest.mark.parametrize("column", ["eligible_time", "start_time", "end_time", "priority"])
def test_nan_ordering_column_is_named(column):
    jobs = _jobs([1.0, 2.0, 3.0])
    jobs.records[column][1] = np.nan
    with pytest.raises(ValueError, match=column):
        partition_snapshots(jobs)
