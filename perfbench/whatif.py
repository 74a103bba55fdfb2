"""``whatif``: one user asking "when would this job start?", closed loop.

Set-up simulates a congested 20 000-job trace (load 0.5, fixed seed) and
trains its model with ``trout simulate`` and ``trout train``.  Each op is
then one in-process ``trout hypothetical`` for the next job description of
a cycle with one per partition: each copies a real job of that partition
in the trace, picked by the workload seed, so both the short-wait and the
long-wait branch answer.  Each
query re-featurises the whole trace for its one job, so this workload
prices per-query featurisation — the counterpart of ``pipeline``'s bulk
featurisation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import common, layers
from perfbench.common import SCALE, capture_returns, check, cli
from perfbench.harness import closed_loop, finish, layer_values
from perfbench.stats import describe_tail, median
from perfbench.tracer import Tracer

N_JOBS = 20_000
LOAD = "0.5"
BULK_CHECKS = 50

EXPECTED = {
    "data.swf_read_s", "core.runtime_predict_s", "features.compute_s",
    "features.snapshots_s", "features.user_history_s", "core.model_load_s",
    "core.predict_s", "workload.generate_s", "slurm.run_s",
}

ANSWER = re.compile(
    r"limit\): (Predicted to (?:start in (\d+)|take less than (\d+)) minutes)$", re.M
)


@dataclass(frozen=True)
class Query:
    """A job description, copied from a real job of the trace."""

    source: int  # trace index of the job it was copied from
    partition: str
    cpus: int
    mem_gb: float
    nodes: int
    timelimit_min: float
    user_id: int

    def argv(self, model: Path, trace: Path) -> list[str]:
        return [
            "hypothetical", "--model", str(model), "--trace", str(trace),
            "--scale", SCALE, "--partition", self.partition,
            "--cpus", str(self.cpus), "--mem-gb", repr(self.mem_gb),
            "--nodes", str(self.nodes), "--timelimit-min", repr(self.timelimit_min),
            "--user-id", str(self.user_id),
        ]


def make_queries(jobs, seed: int) -> list[Query]:
    """One description per partition, each a seeded real job of that
    partition, in seeded order."""
    rng = np.random.default_rng([seed, 1])
    rec = jobs.records
    out = []
    for p in rng.permutation(len(jobs.partition_names)):
        k = int(rng.choice(np.flatnonzero(rec["partition"] == p)))
        out.append(Query(
            source=k,
            partition=jobs.partition_names[p],
            cpus=int(rec["req_cpus"][k]),
            mem_gb=float(rec["req_mem_gb"][k]),
            nodes=int(rec["req_nodes"][k]),
            timelimit_min=float(rec["timelimit_min"][k]),
            user_id=int(rec["user_id"][k]),
        ))
    return out


class Reference:
    """Expected features and answers, computed without the features layer.

    Queue-state and user-history columns follow their documented
    definitions (``repro.features.snapshots``, ``repro.features.user_history``)
    by brute force over the trace: at instant ``t`` in partition ``p``, the
    queue is the jobs pending (``eligible <= t < start``), "ahead" those of
    strictly higher priority, the running set ``start <= t < end``, and the
    user's past day the submissions in ``[t - 1 day, t]``.
    """

    USER_WINDOW_S = 24 * 3600.0

    def __init__(self, jobs, bulk: np.ndarray, model_dir: Path) -> None:
        import pickle

        from repro.core.hierarchical import TroutModel
        from repro.features.names import FEATURE_GROUPS, FEATURE_NAMES

        self.rec = jobs.records
        self.bulk = bulk
        self.col = {name: j for j, name in enumerate(FEATURE_NAMES)}
        self.groups = FEATURE_GROUPS
        with open(model_dir / "runtime_model.pkl", "rb") as fh:
            self.pred = pickle.load(fh).predict_minutes(jobs)
        self.model = TroutModel.load(model_dir)
        # `trout hypothetical` asks at "now", just past the last
        # eligibility, with the trace's median priority.
        self.t_now = float(self.rec["eligible_time"].max()) + 1.0
        self.priority = float(np.median(self.rec["priority"]))

    def state(self, t: float, part: int, prio: float, user: int,
              exclude: int | None = None) -> dict[str, float]:
        """Raw (pre-log) queue-state and user-history features at ``t``."""
        rec = self.rec
        keep = np.ones(len(rec), dtype=bool)
        if exclude is not None:
            keep[exclude] = False
        mine = keep & (rec["partition"] == part)
        pending = mine & (rec["eligible_time"] <= t) & (t < rec["start_time"])
        sets = {
            "ahead": pending & (rec["priority"] > prio),
            "queue": pending,
            "running": mine & (rec["start_time"] <= t) & (t < rec["end_time"]),
        }
        values = {"cpus": rec["req_cpus"], "mem": rec["req_mem_gb"],
                  "nodes": rec["req_nodes"], "timelimit": rec["timelimit_min"]}
        out = {}
        for name, m in sets.items():
            out[f"par_jobs_{name}"] = float(m.sum())
            for key, v in values.items():
                out[f"par_{key}_{name}"] = float(v[m].astype(np.float64).sum())
        out["par_queue_pred_timelimit"] = float(self.pred[sets["queue"]].sum())
        out["par_running_pred_timelimit"] = float(self.pred[sets["running"]].sum())
        past = (keep & (rec["user_id"] == user) & (rec["submit_time"] >= t - self.USER_WINDOW_S)
                & (rec["submit_time"] <= t))
        out["user_jobs_past_day"] = float(past.sum())
        for key, v in values.items():
            out[f"user_{key}_past_day"] = float(v[past].astype(np.float64).sum())
        return out

    def check_row(self, row: np.ndarray, expected: dict[str, float], what: str) -> None:
        for name, value in expected.items():
            got = row[self.col[name]]
            check(np.isclose(got, np.log1p(value), rtol=1e-9, atol=1e-9),
                  f"{what}: {name} is {got}, expected log1p({value})")

    def check_bulk(self, rng: np.random.Generator, k: int) -> None:
        """A seeded sample of the bulk rows follows the definitions."""
        rec = self.rec
        for j in rng.choice(len(rec), size=min(k, len(rec)), replace=False):
            expected = self.state(rec["eligible_time"][j], rec["partition"][j],
                                  rec["priority"][j], rec["user_id"][j], exclude=j)
            self.check_row(self.bulk[j], expected, f"bulk row {j}")

    def check_query(self, query: Query, out: str, X: np.ndarray, p_long: float) -> str:
        """Check one answer, from the matrix and ``p_long`` captured from
        the CLI's own calls.

        The trace's rows must equal the bulk rows ``trout train`` built, bit
        for bit.  The appended row must carry the description's request,
        its partition's static columns, and the queue state and user history
        at "now"; the answer must be the saved model's on that row.
        Returns the printed answer.
        """
        m = ANSWER.search(out)
        check(m is not None, f"unparseable hypothetical answer: {out[-200:]!r}")
        n = len(self.bulk)
        check(X.shape == (n + 1, self.bulk.shape[1]),
              f"query featurised {X.shape}, expected the trace plus one job")
        check(X[:n].tobytes() == self.bulk.tobytes(),
              "per-query features of the trace's jobs differ from the bulk features")
        row = X[n]
        request = {"priority": self.priority, "timelimit_raw": query.timelimit_min,
                   "req_cpus": query.cpus, "req_mem": query.mem_gb, "req_nodes": query.nodes}
        self.check_row(row, request, f"{query} request")
        part = int(self.rec["partition"][query.source])
        self.check_row(row, self.state(self.t_now, part, self.priority, query.user_id),
                       f"{query} queue state")
        static = [self.col[name] for name in self.groups["static"]]
        check(np.allclose(row[static], self.bulk[query.source, static], rtol=1e-12, atol=0),
              f"{query}: static partition columns differ from the partition's")
        ref = self.model.predict(X[n:])[0]
        check(np.isclose(p_long, ref.p_long, rtol=1e-6, atol=1e-9),
              f"{query}: CLI p_long {p_long} vs TroutModel.predict {ref.p_long}")
        msg = ref.message(self.model.cutoff_min)
        check(m.group(1) == msg, f"{query}: CLI said {m.group(1)!r}, model says {msg!r}")
        return m.group(1)


def run(work: Path, seed: int, seconds: float, trace: bool):
    from repro.core.hierarchical import TroutModel
    from repro.data.swf import read_swf
    from repro.features.pipeline import FeaturePipeline

    tracer = Tracer() if trace else None
    setup_rec = None
    if tracer is not None:
        layers.install(tracer)
        t0 = tracer.begin()
    t_setup = perf_counter()
    train_out, fm = common.simulate_and_train(work, N_JOBS, LOAD)
    setup_s = perf_counter() - t_setup
    if tracer is not None:
        setup_rec = tracer.end(t0)
    quality = common.holdout_quality(fm, work / "model", train_out)

    trace_path, model_dir = work / "trace.swf", work / "model"
    jobs = read_swf(trace_path)
    check(len(jobs) == len(fm), f"trace holds {len(jobs)} jobs, train featurised {len(fm)}")
    reference = Reference(jobs, fm.X, model_dir)
    reference.check_bulk(np.random.default_rng([seed, 2]), BULK_CHECKS)
    queries = make_queries(jobs, seed)
    answers: dict[Query, tuple[str, float]] = {}
    repeats = 0

    def op(i: int) -> str:
        return cli(queries[i % len(queries)].argv(model_dir, trace_path))

    # The CLI's own feature matrix and prediction, captured per query and
    # checked (then dropped) outside the timed region.
    with capture_returns(FeaturePipeline, "compute") as computed, \
            capture_returns(TroutModel, "predict") as predicted:

        def after(i: int, out: str) -> None:
            nonlocal repeats
            q = queries[i % len(queries)]
            check(len(computed) == 1 and len(predicted) == 1,
                  f"query featurised {len(computed)} times and predicted {len(predicted)} times")
            preds = predicted.pop()
            check(len(preds) == 1, f"query predicted {len(preds)} rows")
            p_long = preds[0].p_long
            answer = reference.check_query(q, out, computed.pop().X, p_long)
            if q in answers:
                repeats += 1
                check(answers[q] == (answer, p_long),
                      f"repeated query {q} answered {(answer, p_long)}, first {answers[q]}")
            answers[q] = (answer, p_long)
            predicted.clear()  # drops the reference prediction too

        ops = closed_loop(seconds, op, after, tracer)
    n_long = sum("start in" in a for a, _ in answers.values())

    notes = [
        f"whatif: {len(ops.durations)} queries over {len(queries)} descriptions, "
        f"{repeats} repeats; set-up {setup_s:.2f} s",
        "op_tail_ms: " + describe_tail(ops.durations),
        f"checks: {BULK_CHECKS} bulk rows follow the feature definitions; every query's "
        f"{len(jobs)} trace rows equal the bulk rows bit for bit; its own row carries its "
        "request, partition, queue state and user history; p_long and answer match "
        "TroutModel.predict",
        f"answers: {n_long} of {len(answers)} descriptions (real jobs of the trace) "
        "predicted to wait past the cutoff",
        f"op wall p50 {1e3 * median(ops.durations):.1f} ms, CPU p50 {1e3 * median(ops.cpu):.1f} ms",
        f"holdout (set-up model): accuracy {quality.accuracy:.4f}, MAPE {quality.mape:.2f}%, "
        f"80% interval coverage {quality.coverage_80:.4f} on {quality.n_long} long-wait jobs",
    ]
    e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": common.peak_rss_mb(),
        "ok_share": 1.0,
        "op_p50_ms": 1e3 * median(ops.durations),
        "throughput_per_s": 1.0 / median(ops.durations),
        "holdout_accuracy": quality.accuracy,
        "holdout_mape": quality.mape,
        "interval_miss_80": quality.interval_miss_80,
    }
    per_layer, missing = ({}, {})
    if tracer is not None:
        tracer.unwrap_all()
        per_layer, missing = layer_values(tracer, ops, setup_rec, EXPECTED)
    return finish("whatif", trace, e2e, per_layer, len(ops.durations), 0, notes, missing)
