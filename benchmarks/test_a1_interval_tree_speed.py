"""A1 — §V claim: interval trees accelerate overlap feature engineering.

"Using interval trees offers an improved solution to this problem,
resulting in faster compute times for engineering features relating to
overlapping jobs."  The bench stabs the benchmark trace's pending intervals
at every eligibility instant through (a) an unchunked interval tree and
(b) the naive O(n·m) scan, on growing slices, and reports the speed-up —
which must grow with n.

Alongside both it times (c) the production sweep,
``partition_snapshots`` on the slice as one partition.  It does more work
than either stab — every queue, running and "ahead" aggregate, from prefix
sums rather than stab lists — so its column is the cost of the whole
snapshot stage, not a like-for-like ratio.  Its queue count must equal the
tree's stab count less the job itself.
"""

import time

import numpy as np

from benchmarks.conftest import emit, once
from repro.data.schema import JobSet
from repro.eval.report import format_table
from repro.features.interval_tree import IntervalTree, naive_stab_batch
from repro.features.snapshots import partition_snapshots


def test_a1_tree_vs_naive_scaling(benchmark, bench_trace):
    result, _ = bench_trace
    rec = result.jobs.records
    elig = rec["eligible_time"]
    start = rec["start_time"]

    sizes = [1000, 4000, 16000]
    sizes = [n for n in sizes if n <= len(rec)]
    rows = []
    speedups = []
    for n in sizes:
        s, e, ts = elig[:n], start[:n], elig[:n]
        merged = result.jobs[:n].records.copy()
        merged["partition"] = 0
        one_partition = JobSet(merged, ("all",))
        t0 = time.perf_counter()
        iv_t, ptr_t = IntervalTree(s, e).stab_batch(ts)
        t_tree = time.perf_counter() - t0
        t0 = time.perf_counter()
        iv_n, ptr_n = naive_stab_batch(s, e, ts)
        t_naive = time.perf_counter() - t0
        t0 = time.perf_counter()
        sweep = partition_snapshots(one_partition)
        t_sweep = time.perf_counter() - t0
        # Same answers (counts per query suffice; exact sets are covered by
        # the unit tests).  The sweep excludes the job's own interval.
        np.testing.assert_array_equal(np.diff(ptr_t), np.diff(ptr_n))
        np.testing.assert_array_equal(
            sweep["par_jobs_queue"], np.diff(ptr_t) - (s < e)
        )
        rows.append([n, t_sweep * 1e3, t_tree * 1e3, t_naive * 1e3, t_naive / t_tree])
        speedups.append(t_naive / t_tree)

    emit(
        "a1_interval_tree_speed",
        format_table(
            ["n jobs", "sweep: all 17 aggregates (ms)", "tree: pending stab (ms)",
             "naive: pending stab (ms)", "tree vs naive"],
            rows,
            float_fmt="{:.2f}",
        ),
    )

    # Timed artefact: the production sweep at the largest size.
    n = sizes[-1]
    once(benchmark, lambda: partition_snapshots(result.jobs[:n]))

    # The paper's claim: the tree's speed-up exists at scale and grows with n.
    assert speedups[-1] > 2.0, speedups
    assert speedups[-1] > speedups[0]
