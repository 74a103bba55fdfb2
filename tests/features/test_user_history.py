"""User past-day aggregates vs brute force."""

import numpy as np
import pytest

from repro.data.schema import JOB_DTYPE, JobSet
from repro.features.user_history import PAST_DAY_S, USER_KEYS, user_past_day


def _trace(n=80, seed=0, n_users=5):
    rng = np.random.default_rng(seed)
    rec = np.zeros(n, dtype=JOB_DTYPE)
    rec["job_id"] = np.arange(n)
    rec["user_id"] = rng.integers(0, n_users, n)
    submit = np.sort(rng.uniform(0, 5 * PAST_DAY_S, n))
    rec["submit_time"] = submit
    delay = rng.exponential(3600, n) * (rng.random(n) < 0.3)
    rec["eligible_time"] = submit + delay
    rec["start_time"] = rec["eligible_time"] + 1
    rec["end_time"] = rec["start_time"] + 1
    rec["req_cpus"] = rng.integers(1, 32, n)
    rec["req_mem_gb"] = rng.uniform(1, 64, n)
    rec["req_nodes"] = rng.integers(1, 3, n)
    rec["timelimit_min"] = rng.choice([10, 60, 600], n)
    return JobSet(rec, ("p0",))


def _brute(jobs, window):
    rec = jobs.records
    n = len(jobs)
    out = {k: np.zeros(n) for k in USER_KEYS}
    for j in range(n):
        t = rec["eligible_time"][j]
        for i in range(n):
            if i == j or rec["user_id"][i] != rec["user_id"][j]:
                continue
            if t - window <= rec["submit_time"][i] <= t:
                out["user_jobs_past_day"][j] += 1
                out["user_cpus_past_day"][j] += rec["req_cpus"][i]
                out["user_mem_past_day"][j] += rec["req_mem_gb"][i]
                out["user_nodes_past_day"][j] += rec["req_nodes"][i]
                out["user_timelimit_past_day"][j] += rec["timelimit_min"][i]
    return out


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_matches_bruteforce(seed):
    jobs = _trace(seed=seed)
    got = user_past_day(jobs)
    want = _brute(jobs, PAST_DAY_S)
    for key in USER_KEYS:
        np.testing.assert_allclose(got[key], want[key], err_msg=key, atol=1e-6)


def test_submission_at_the_eligibility_instant_counts():
    """The window is closed at ``t``: a job submitted at the very instant
    another job of the same user becomes eligible is in its past day."""
    rec = np.zeros(2, dtype=JOB_DTYPE)
    rec["job_id"] = [0, 1]
    rec["submit_time"] = [0.0, 100.0]
    rec["eligible_time"] = [100.0, 100.0]
    rec["start_time"] = [101.0, 101.0]
    rec["end_time"] = [102.0, 102.0]
    rec["req_cpus"] = [4, 8]
    rec["req_mem_gb"] = [2.0, 16.0]
    rec["req_nodes"] = [1, 2]
    rec["timelimit_min"] = [10, 60]
    jobs = JobSet(rec, ("p0",))
    got = user_past_day(jobs)
    want = _brute(jobs, PAST_DAY_S)
    for key in USER_KEYS:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    assert list(got["user_jobs_past_day"]) == [1.0, 1.0]
    assert list(got["user_cpus_past_day"]) == [8.0, 4.0]


def test_window_parameter():
    jobs = _trace(seed=2)
    narrow = user_past_day(jobs, window_s=60.0)
    wide = user_past_day(jobs, window_s=10 * PAST_DAY_S)
    assert narrow["user_jobs_past_day"].sum() <= wide["user_jobs_past_day"].sum()
    with pytest.raises(ValueError):
        user_past_day(jobs, window_s=0.0)


def test_own_job_excluded():
    # Single user, single job: nothing in the window.
    rec = np.zeros(1, dtype=JOB_DTYPE)
    rec["req_cpus"] = rec["req_nodes"] = 1
    rec["req_mem_gb"] = rec["timelimit_min"] = 1.0
    got = user_past_day(JobSet(rec, ("p0",)))
    assert all(got[k][0] == 0.0 for k in USER_KEYS)


def test_user_alone_in_window_reads_exactly_zero():
    """A user whose only other job has left the window has no past-day
    activity: every column is exactly 0.0, not a prefix-sum residue."""
    rec = np.zeros(2, dtype=JOB_DTYPE)
    rec["job_id"] = [0, 1]
    rec["submit_time"] = rec["eligible_time"] = [0.0, 2 * PAST_DAY_S]
    rec["start_time"] = rec["end_time"] = rec["eligible_time"]
    rec["req_cpus"] = rec["req_nodes"] = 1
    rec["req_mem_gb"] = [0.1, 0.2]
    rec["timelimit_min"] = [0.1, 0.2]
    got = user_past_day(JobSet(rec, ("p0",)))
    for key in USER_KEYS:
        assert got[key][1] == 0.0, (key, got[key][1])
