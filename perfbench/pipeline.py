"""``pipeline``: simulate → train, one op at a time, as a user runs it.

Each op is ``trout simulate`` of 60 000 jobs (load 0.32, scale 0.05)
followed by ``trout train`` on that trace, both in-process through
``repro.cli.main.main``.  The inputs are fixed — trace seed and training
seed included — so every op of every run must produce the same trace and
the same holdout quality, which makes the quality numbers exact gates; the
workload seed changes nothing here.  This is the only workload that times
the simulator, bulk featurisation and network training.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from time import perf_counter

from perfbench import common, layers
from perfbench.common import Quality, check
from perfbench.harness import closed_loop, finish, layer_values
from perfbench.stats import describe_tail, median
from perfbench.tracer import Tracer

N_JOBS = 60_000
LOAD = "0.32"
WARMUP_JOBS = 3_000
WARMUPS = 3
# Two ~15 s ops fit a 30 s run; the median of two is their mean.
MIN_OPS = 2

EXPECTED = {
    "workload.generate_s", "slurm.run_s", "data.swf_write_s", "data.swf_read_s",
    "core.runtime_fit_s", "core.runtime_predict_s", "features.compute_s",
    "features.snapshots_s", "features.user_history_s", "nn.classifier_fit_s",
    "nn.regressor_fit_s", "core.model_save_s",
}


def _check_trace(trace: Path, work: Path) -> None:
    """The trace holds exactly N jobs and survives an SWF round trip."""
    from repro.data.swf import read_swf, write_swf

    jobs = read_swf(trace)
    check(len(jobs) == N_JOBS, f"trace holds {len(jobs)} jobs, expected {N_JOBS}")
    again = work / "roundtrip.swf"
    write_swf(jobs, again)
    check(again.read_bytes() == trace.read_bytes(), "SWF write(read(trace)) differs")
    check(read_swf(again).records.tobytes() == jobs.records.tobytes(),
          "SWF records differ after a round trip")


def run(work: Path, seed: int, seconds: float, trace: bool):
    tracer = Tracer() if trace else None
    if tracer is not None:
        layers.install(tracer)
    # Warm-up ops at a small size: lazy imports and first-call costs land
    # here, not in the first measured op.
    warm = []
    for k in range(WARMUPS):
        t0 = perf_counter()
        common.simulate_and_train(work / f"warm{k}", WARMUP_JOBS, LOAD)
        warm.append(perf_counter() - t0)

    digests: list[str] = []
    qualities: list[Quality] = []

    def op(i: int):
        return common.simulate_and_train(work / "op", N_JOBS, LOAD)

    def after(i: int, result) -> None:
        out, fm = result
        digests.append(hashlib.sha256((work / "op" / "trace.swf").read_bytes()).hexdigest())
        qualities.append(common.holdout_quality(fm, work / "op" / "model", out))

    ops = closed_loop(seconds, op, after, tracer, min_ops=MIN_OPS)
    _check_trace(work / "op" / "trace.swf", work)
    check(len(set(digests)) == 1, "ops with the same inputs wrote different traces")
    check(len(set(qualities)) == 1, f"ops disagree on holdout quality: {set(qualities)}")
    q = qualities[0]

    notes = [
        f"pipeline: {len(ops.durations)} ops of {N_JOBS} jobs; op times "
        + ", ".join(f"{t:.2f}" for t in ops.durations) + " s",
        f"warm-up ops ({WARMUP_JOBS} jobs): " + ", ".join(f"{t:.2f}" for t in warm) + " s",
        f"jobs_per_s = {N_JOBS / median(ops.durations):.1f} 1/s at the median op",
        "op CPU times: " + ", ".join(f"{t:.2f}" for t in ops.cpu) + " s",
        "op_tail_ms: " + describe_tail(ops.durations),
        f"inputs are fixed: --seed {seed} changes nothing in this workload",
        f"holdout: accuracy {q.accuracy:.4f}, MAPE {q.mape:.2f}%, "
        f"80% interval coverage {q.coverage_80:.4f} on {q.n_long} long-wait jobs",
    ]
    e2e = {
        "setup_s": median(warm),
        "peak_rss_mb": common.peak_rss_mb(),
        "ok_share": 1.0,
        "op_p50_ms": 1e3 * median(ops.durations),
        "throughput_per_s": N_JOBS / median(ops.durations),
        "holdout_accuracy": q.accuracy,
        "holdout_mape": q.mape,
        "interval_miss_80": q.interval_miss_80,
    }
    per_layer, missing = ({}, {})
    if tracer is not None:
        tracer.unwrap_all()
        per_layer, missing = layer_values(tracer, ops, None, EXPECTED)
    return finish("pipeline", trace, e2e, per_layer, len(ops.durations), 0, notes, missing)
