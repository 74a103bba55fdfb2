"""Partition snapshot aggregates vs a brute-force reference.

Besides fixed traces, Hypothesis draws small traces on a coarse time grid
so ties are the rule: equal eligibility times, ``eligible == start``,
``start == end``, equal priorities and one-job partitions.  Summed values
are drawn where the fixed-point representation is exact (0 or
``>= 2**-12``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import JOB_DTYPE, JobSet
from repro.features.interval_tree import IntervalTree
from repro.features.snapshots import SNAPSHOT_KEYS, partition_snapshots
from repro.features.user_history import user_past_day


def _trace(n=60, seed=0, n_parts=2):
    rng = np.random.default_rng(seed)
    rec = np.zeros(n, dtype=JOB_DTYPE)
    rec["job_id"] = np.arange(n)
    rec["partition"] = rng.integers(0, n_parts, n)
    elig = np.sort(rng.uniform(0, 500, n))
    queue = rng.exponential(40, n) * (rng.random(n) < 0.6)
    run = rng.exponential(60, n) + 1
    rec["submit_time"] = elig
    rec["eligible_time"] = elig
    rec["start_time"] = elig + queue
    rec["end_time"] = elig + queue + run
    rec["req_cpus"] = rng.integers(1, 64, n)
    rec["req_mem_gb"] = rng.uniform(1, 128, n)
    rec["req_nodes"] = rng.integers(1, 4, n)
    rec["timelimit_min"] = rng.choice([30, 60, 240], n)
    rec["priority"] = rng.uniform(0, 1000, n)
    return JobSet(rec, tuple(f"p{i}" for i in range(n_parts)))


def _brute(jobs, pred):
    rec = jobs.records
    n = len(jobs)
    out = {k: np.zeros(n) for k in SNAPSHOT_KEYS}
    for j in range(n):
        t = rec["eligible_time"][j]
        p = rec["partition"][j]
        for i in range(n):
            if i == j or rec["partition"][i] != p:
                continue
            pending = rec["eligible_time"][i] <= t < rec["start_time"][i]
            running = rec["start_time"][i] <= t < rec["end_time"][i]
            if pending:
                out["par_jobs_queue"][j] += 1
                out["par_cpus_queue"][j] += rec["req_cpus"][i]
                out["par_mem_queue"][j] += rec["req_mem_gb"][i]
                out["par_nodes_queue"][j] += rec["req_nodes"][i]
                out["par_timelimit_queue"][j] += rec["timelimit_min"][i]
                out["par_queue_pred_timelimit"][j] += pred[i]
                if rec["priority"][i] > rec["priority"][j]:
                    out["par_jobs_ahead"][j] += 1
                    out["par_cpus_ahead"][j] += rec["req_cpus"][i]
                    out["par_mem_ahead"][j] += rec["req_mem_gb"][i]
                    out["par_nodes_ahead"][j] += rec["req_nodes"][i]
                    out["par_timelimit_ahead"][j] += rec["timelimit_min"][i]
            if running:
                out["par_jobs_running"][j] += 1
                out["par_cpus_running"][j] += rec["req_cpus"][i]
                out["par_mem_running"][j] += rec["req_mem_gb"][i]
                out["par_nodes_running"][j] += rec["req_nodes"][i]
                out["par_timelimit_running"][j] += rec["timelimit_min"][i]
                out["par_running_pred_timelimit"][j] += pred[i]
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_snapshots_match_bruteforce(seed):
    jobs = _trace(seed=seed)
    rng = np.random.default_rng(seed + 99)
    pred = rng.uniform(1, 100, len(jobs))
    got = partition_snapshots(jobs, pred_runtime_min=pred)
    want = _brute(jobs, pred)
    for key in SNAPSHOT_KEYS:
        np.testing.assert_allclose(got[key], want[key], err_msg=key, atol=1e-9)


def _tree_reference(jobs, pred):
    """The same aggregates from unchunked interval-tree stabs + bincount."""
    rec = jobs.records
    n = len(jobs)
    out = {k: np.zeros(n) for k in SNAPSHOT_KEYS}
    values = {"cpus": rec["req_cpus"], "mem": rec["req_mem_gb"],
              "nodes": rec["req_nodes"], "timelimit": rec["timelimit_min"]}
    for p in np.unique(rec["partition"]):
        g = np.flatnonzero(rec["partition"] == p)
        elig, prio = rec["eligible_time"][g], rec["priority"][g]
        for kind, lo, hi in (("queue", elig, rec["start_time"][g]),
                             ("running", rec["start_time"][g], rec["end_time"][g])):
            iv, ptr = IntervalTree(lo, hi).stab_batch(elig)
            qq = np.repeat(np.arange(len(g)), np.diff(ptr))
            keep = iv != qq
            qq, iv = qq[keep], iv[keep]
            sets = [(kind, qq, iv)]
            if kind == "queue":
                above = prio[iv] > prio[qq]
                sets.append(("ahead", qq[above], iv[above]))
            for name, q, i in sets:
                out[f"par_jobs_{name}"][g] = np.bincount(q, minlength=len(g))
                for key, v in values.items():
                    out[f"par_{key}_{name}"][g] = np.bincount(
                        q, weights=v[g][i].astype(np.float64), minlength=len(g))
            out[f"par_{kind}_pred_timelimit"][g] = np.bincount(
                qq, weights=pred[g][iv], minlength=len(g))
    return out


def test_snapshots_match_interval_tree():
    jobs = _trace(n=400, seed=3, n_parts=3)
    pred = np.random.default_rng(3).uniform(1, 100, len(jobs))
    got = partition_snapshots(jobs, pred_runtime_min=pred)
    want = _tree_reference(jobs, pred)
    for key in SNAPSHOT_KEYS:
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)
    for key in ("jobs", "cpus", "nodes", "timelimit"):
        for kind in ("ahead", "queue", "running"):
            name = f"par_{key}_{kind}"
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def test_ahead_subset_of_queue():
    jobs = _trace(n=100, seed=4)
    got = partition_snapshots(jobs)
    assert np.all(got["par_jobs_ahead"] <= got["par_jobs_queue"])
    assert np.all(got["par_cpus_ahead"] <= got["par_cpus_queue"] + 1e-9)


def test_zero_queue_jobs_see_no_self():
    # A job that starts instantly has an empty pending interval and must
    # not count itself anywhere.
    rec = np.zeros(1, dtype=JOB_DTYPE)
    rec["end_time"] = 10.0
    rec["req_cpus"] = rec["req_nodes"] = 1
    rec["req_mem_gb"] = rec["timelimit_min"] = 1.0
    got = partition_snapshots(JobSet(rec, ("p0",)))
    for key in ("par_jobs_queue", "par_jobs_ahead", "par_jobs_running"):
        assert got[key][0] == 0.0


def test_pred_runtime_shape_checked():
    jobs = _trace(n=10)
    with pytest.raises(ValueError):
        partition_snapshots(jobs, pred_runtime_min=np.ones(3))


_VALUE = st.sampled_from([0.0, 0.1, 0.25, 1.5, 2.0**-12, 3.3, 127.9, 1e4 / 3]) | st.floats(
    2.0**-12, 1e4
)


@st.composite
def _tie_traces(draw, n_min=1, n_max=30):
    """A small trace on a coarse grid (plus predicted runtimes)."""
    n = draw(st.integers(n_min, n_max))
    n_parts = draw(st.integers(1, 3))

    def col(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    rec = np.zeros(n, dtype=JOB_DTYPE)
    rec["job_id"] = np.arange(n)
    rec["user_id"] = col(st.integers(0, 2))
    rec["partition"] = col(st.integers(0, n_parts - 1))
    elig = col(st.integers(0, 12)).astype(np.float64)
    rec["submit_time"] = elig - col(st.integers(0, 2))
    rec["eligible_time"] = elig
    rec["start_time"] = elig + col(st.integers(0, 3))  # 0: eligible == start
    rec["end_time"] = rec["start_time"] + col(st.integers(0, 3))  # 0: start == end
    rec["priority"] = col(st.integers(0, 3))
    rec["req_cpus"] = col(st.integers(1, 128))
    rec["req_mem_gb"] = col(_VALUE)
    rec["req_nodes"] = col(st.integers(1, 4))
    rec["timelimit_min"] = col(st.integers(1, 2880))
    return JobSet(rec, tuple(f"p{i}" for i in range(n_parts))), col(_VALUE)


_INTEGER_VALUED = [
    f"par_{key}_{kind}"
    for key in ("jobs", "cpus", "nodes", "timelimit")
    for kind in ("ahead", "queue", "running")
]


@given(trace=_tie_traces())
@settings(max_examples=150, deadline=None)
def test_snapshots_match_definitions_with_ties(trace):
    jobs, pred = trace
    got = partition_snapshots(jobs, pred_runtime_min=pred)
    want = _brute(jobs, pred)
    for key in _INTEGER_VALUED:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    for key in SNAPSHOT_KEYS:
        # atol=0: an empty set must read exactly 0.0.
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)
    for kind, pred_key in (("ahead", None), ("queue", "par_queue_pred_timelimit"),
                           ("running", "par_running_pred_timelimit")):
        empty = got[f"par_jobs_{kind}"] == 0
        keys = [f"par_{k}_{kind}" for k in ("cpus", "mem", "nodes", "timelimit")]
        for key in keys + ([pred_key] if pred_key else []):
            assert np.all(got[key][empty] == 0.0), key


@given(trace=_tie_traces(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_permuting_rows_permutes_output_bitwise(trace, data):
    jobs, pred = trace
    perm = np.array(data.draw(st.permutations(range(len(jobs)))), dtype=np.intp)
    base = partition_snapshots(jobs, pred_runtime_min=pred)
    shuffled = partition_snapshots(jobs[perm], pred_runtime_min=pred[perm])
    for key in SNAPSHOT_KEYS:
        assert shuffled[key].tobytes() == base[key][perm].tobytes(), key


@given(trace=_tie_traces(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_appending_a_later_job_leaves_rows_bitwise(trace, data):
    """What ``trout hypothetical`` relies on: a job eligible after every
    other one changes no existing row, in any column block it touches."""
    jobs, pred = trace
    n = len(jobs)
    rec = jobs.records
    extra = np.zeros(1, dtype=JOB_DTYPE)
    extra["job_id"] = n
    extra["user_id"] = data.draw(st.integers(0, 2))
    extra["partition"] = data.draw(st.integers(0, len(jobs.partition_names) - 1))
    t = rec["eligible_time"].max() + data.draw(st.integers(1, 3))
    extra["submit_time"] = extra["eligible_time"] = t
    extra["start_time"] = t + data.draw(st.integers(0, 3))
    extra["end_time"] = extra["start_time"] + data.draw(st.integers(0, 3))
    extra["priority"] = data.draw(st.integers(0, 4))
    extra["req_cpus"] = data.draw(st.integers(1, 128))
    extra["req_mem_gb"] = data.draw(_VALUE)
    extra["req_nodes"] = data.draw(st.integers(1, 4))
    extra["timelimit_min"] = data.draw(st.integers(1, 2880))
    longer = jobs.concat(JobSet(extra, jobs.partition_names))
    pred_longer = np.append(pred, data.draw(_VALUE))
    for before, after in (
        (partition_snapshots(jobs, pred), partition_snapshots(longer, pred_longer)),
        (user_past_day(jobs), user_past_day(longer)),
    ):
        for key, col in before.items():
            assert after[key][:n].tobytes() == col.tobytes(), key
