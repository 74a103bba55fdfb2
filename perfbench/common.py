"""Shared plumbing: in-process CLI calls, result capture, quality, memory."""

from __future__ import annotations

import contextlib
import inspect
import io
import resource
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Trace shape shared by every workload: the benches' defaults.
SCALE = "0.05"
# Traces and models are built from fixed seeds (`trout simulate`'s and
# `trout train`'s defaults), so every holdout-quality number is exact run
# to run: across traces or network initialisations MAPE alone moves by
# 25-80 %, far past any usable bound.  Workload seeds vary what users ask.
TRACE_SEED = "7"
TRAIN_SEED = "0"
CUTOFF_MIN = 10.0
HOLDOUT_FRACTION = 0.2


class CheckFailed(Exception):
    """An output check failed: the run's results are not trustworthy."""


def check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def cli(argv: list[str]) -> str:
    """Run ``trout <argv>`` in-process; returns its stdout, raises on rc != 0."""
    from repro.cli.main import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    check(rc == 0, f"trout {' '.join(argv[:1])} exited {rc}: {out.getvalue()[-300:]}")
    return out.getvalue()


@contextlib.contextmanager
def capture_returns(owner: type, name: str):
    """Keep a reference to every value ``owner.name`` returns (no timing)."""
    original = inspect.getattr_static(owner, name)
    seen: list = []

    def keep(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append(result)
        return result

    setattr(owner, name, keep)
    try:
        yield seen
    finally:
        setattr(owner, name, original)


def simulate_and_train(work: Path, n_jobs: int, load: str) -> tuple[str, object]:
    """``trout simulate`` then ``trout train``; returns train's stdout and
    the feature matrix it trained on."""
    from repro.features.pipeline import FeaturePipeline

    work.mkdir(parents=True, exist_ok=True)
    trace = work / "trace.swf"
    cli(["simulate", "--n-jobs", str(n_jobs), "--seed", TRACE_SEED, "--load", load,
         "--scale", SCALE, "--out", str(trace)])
    with capture_returns(FeaturePipeline, "compute") as fms:
        out = cli(["train", "--trace", str(trace), "--out", str(work / "model"),
                   "--scale", SCALE, "--seed", TRAIN_SEED])
    check(len(fms) == 1, f"train featurised {len(fms)} times, expected once")
    return out, fms[0]


@dataclass(frozen=True)
class Quality:
    accuracy: float
    mape: float
    interval_miss_80: float
    coverage_80: float
    n_long: int


def holdout_quality(fm, model_dir: Path, train_stdout: str) -> Quality:
    """Holdout quality of a saved model, cross-checked against what
    ``trout train`` printed.

    Accuracy is the classifier's on the most recent 20 %; MAPE and the 80 %
    interval coverage (``QueueTimeRegressor.predict_interval(alpha=0.2)``,
    the API behind ``trout predict --interval``) are on that holdout's
    long-wait jobs.
    """
    from repro.core.hierarchical import TroutModel
    from repro.data.splits import holdout_recent
    from repro.eval.metrics import mean_absolute_percentage_error

    model = TroutModel.load(model_dir)
    q = fm.queue_time_min
    _past, recent = holdout_recent(len(fm), HOLDOUT_FRACTION)
    y_long = q > CUTOFF_MIN
    pred_long = model.classifier.predict(fm.X[recent]).astype(bool)
    acc = float(np.mean(pred_long == y_long[recent]))
    long_te = recent[y_long[recent]]
    check(len(long_te) >= 10, f"only {len(long_te)} long-wait holdout jobs")
    mape = mean_absolute_percentage_error(
        q[long_te], model.regressor.predict_minutes(fm.X[long_te])
    )
    iv = model.regressor.predict_interval(fm.X[long_te], n_samples=30, alpha=0.2)
    inside = (q[long_te] >= iv["lower"]) & (q[long_te] <= iv["upper"])
    coverage = float(np.mean(inside))
    check(f"holdout): {acc:.4f}" in train_stdout,
          f"saved model accuracy {acc:.4f} differs from what train printed")
    check(f"jobs: {mape:.1f}%" in train_stdout,
          f"saved model MAPE {mape:.1f}% differs from what train printed")
    return Quality(acc, mape, abs(coverage - 0.8), coverage, len(long_te))


def peak_rss_mb() -> float:
    """This process's peak resident set size so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def proc_peak_rss_mb(pid: int) -> float:
    """Another process's peak RSS (``VmHWM``) while it is still alive."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for pid {pid}")
