"""``serve``: open-loop HTTP load on ``trout serve`` over keep-alive connections.

Set-up trains a model on a small fixed-seed trace and starts ``trout serve``
as a subprocess with ``--audit-log`` and ``--event-log`` on, as in
production; it is started ``SPAWNS`` times and ``setup_s`` is the median
spawn-to-ready time.

Arrivals model a resource manager that asks for a prediction for every job
submitted (Hariharan et al.): each rung replays the submissions of the
set-up trace's holdout (the most recent 20 %), bursts and gaps as the
trace has them, rescaled to the rung's rate (``loadgen.replay_arrivals``).
The replayed stretch is the same in every run, so the bursts a rung meets
do not change with the seed; the seed picks the holdout feature row each
request carries, so both branches of the classifier run.  Requests go out
over at most ``nproc`` persistent HTTP/1.1 connections (2 here).  Load
climbs a ladder of fixed rates and stops at the first rung whose latency
tail misses ``LIMIT_MS``, whose failures exceed 1 %, or whose backlog
grows.

This workload bypasses featurisation, the simulator and training: it is
the no-change control for gains in those layers.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

import numpy as np

from perfbench import common, loadgen
from perfbench.common import check
from perfbench.harness import finish
from perfbench.stats import median, tail

N_JOBS = 8_000
LOAD = "0.32"
RATES = [5.0, 10.0, 40.0, 160.0]
FIRST_RUNG_SHARE = 0.5
# Submissions replayed in a row; most of the trace's bursts fit whole.
SEGMENT = 25
LIMIT_MS = 500.0
SPAWNS = 3
READY_TIMEOUT_S = 60.0
SAMPLED_CHECKS = 64
HOST = "127.0.0.1"

# /metrics samples the per-layer numbers are read from; absent ones are
# reported missing.
SERVER_METRICS = (
    "serve_request_seconds_sum", "serve_request_seconds_count",
    "serve_queue_wait_seconds_sum", "serve_queue_wait_seconds_count",
    "serve_batches_total", "serve_batched_requests_total", "serve_shed_total",
)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


class Server:
    """One ``trout serve`` subprocess; always stopped by :meth:`stop`."""

    def __init__(self, root: Path, model_dir: Path, work: Path, tag: str) -> None:
        self.port = _free_port()
        self.audit = work / f"audit-{tag}.jsonl"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(work / f"server-{tag}.log", "wb")
        self.t_spawn = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.main", "serve",
             "--model-dir", str(model_dir), "--host", HOST, "--port", str(self.port),
             "--audit-log", str(self.audit), "--event-log", str(work / f"events-{tag}.jsonl")],
            stdout=self._log, stderr=subprocess.STDOUT, env=env,
        )

    def wait_ready(self) -> float:
        """Seconds from spawn to the first ``/healthz`` 200."""
        deadline = self.t_spawn + READY_TIMEOUT_S
        while perf_counter() < deadline:
            check(self.proc.poll() is None, f"trout serve exited {self.proc.returncode}")
            try:
                conn = http.client.HTTPConnection(HOST, self.port, timeout=1.0)
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                resp.read()
                conn.close()
                if resp.status == 200:
                    return perf_counter() - self.t_spawn
            except OSError:
                pass
            sleep(0.01)
        raise common.CheckFailed(f"trout serve not ready after {READY_TIMEOUT_S:g} s")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        return self.proc.returncode


def _import_time(root: Path) -> float:
    """Fresh-interpreter ``import repro.cli.main`` time."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = ("import time; t = time.perf_counter(); import repro.cli.main; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def _check_responses(phases, X: np.ndarray, model_dir: Path, rng) -> int:
    """Every 200 carries the response fields; a sample matches the model."""
    from repro.core.hierarchical import TroutModel

    ok = [r for ph in phases for r in ph.requests if r.ok]
    for r in ok:
        missing = [f for f in loadgen.RESPONSE_FIELDS if f not in r.payload]
        check(not missing, f"200 response lacks {missing}")
    model = TroutModel.load(model_dir)
    threshold = model.classifier.config.threshold
    picks = rng.choice(len(ok), size=min(SAMPLED_CHECKS, len(ok)), replace=False)
    checked = 0
    for k in picks:
        r = ok[int(k)]
        ref = model.predict(X[r.row : r.row + 1])[0]
        # Batched and single-row float32 passes may round differently at
        # the last ulp, which can flip a row sitting on the threshold.
        if abs(ref.p_long - threshold) <= 1e-4:
            continue
        got = r.payload
        check(got["long_wait"] == ref.long_wait, f"row {r.row}: long_wait differs")
        check(np.isclose(got["p_long"], ref.p_long, rtol=1e-4, atol=1e-6),
              f"row {r.row}: p_long {got['p_long']} vs {ref.p_long}")
        if ref.long_wait:
            check(np.isclose(got["minutes"], ref.minutes, rtol=1e-4, atol=1e-4),
                  f"row {r.row}: minutes {got['minutes']} vs {ref.minutes}")
        else:
            check(got["minutes"] is None, f"row {r.row}: short wait with minutes")
        checked += 1
    check(checked > 0, "no sampled response could be checked")
    branches = {r.payload["long_wait"] for r in ok}
    check(branches == {True, False}, f"answers exercised only long_wait={branches}")
    return checked


def run(work: Path, seed: int, seconds: float, trace: bool, root: Path):
    from repro.data.splits import holdout_recent
    from repro.data.swf import read_swf
    from repro.serve.audit import iter_audit_records
    from repro.workload.arrivals import diurnal_rate

    train_out, fm = common.simulate_and_train(work, N_JOBS, LOAD)
    quality = common.holdout_quality(fm, work / "model", train_out)
    _past, recent = holdout_recent(len(fm), common.HOLDOUT_FRACTION)
    X = fm.X[recent]
    bodies = [json.dumps({"features": [float(v) for v in row]}).encode() for row in X]
    submit = np.sort(read_swf(work / "trace.swf").column("submit_time")[recent])

    ready = []
    for k in range(SPAWNS - 1):
        server = Server(root, work / "model", work, f"warm{k}")
        try:
            ready.append(server.wait_ready())
        finally:
            server.stop()
    server = Server(root, work / "model", work, "main")
    n_conns = max(1, min(os.cpu_count() or 1, 2))
    rng = np.random.default_rng([seed, 2])
    phases: list[loadgen.PhaseResult] = []
    scrape_s = 0.0
    try:
        ready.append(server.wait_ready())
        t_ladder = perf_counter()
        for rate, duration in loadgen.plan_ladder(RATES, seconds, FIRST_RUNG_SHARE):
            if trace:
                t0 = perf_counter()
                before = loadgen.scrape(HOST, server.port)
                scrape_s += perf_counter() - t0
            offsets, _ = loadgen.replay_arrivals(submit, rate, duration, SEGMENT, diurnal_rate)
            rows = rng.integers(0, len(bodies), size=len(offsets))
            reqs = loadgen.run_phase(HOST, server.port, offsets, rows, bodies, n_conns,
                                     abandon_ms=2 * LIMIT_MS)
            phase = loadgen.judge(loadgen.PhaseResult(rate, duration, reqs), LIMIT_MS, n_conns)
            if trace:
                t0 = perf_counter()
                phase.metrics_delta = loadgen.diff_metrics(before, loadgen.scrape(HOST, server.port))
                scrape_s += perf_counter() - t0
            phases.append(phase)
            if not phase.passed:
                break
        ladder_s = perf_counter() - t_ladder
        peak_rss = common.proc_peak_rss_mb(server.proc.pid)
    finally:
        rc = server.stop()
    check(rc == 0, f"trout serve exited {rc} on SIGTERM")

    sent = [r for ph in phases for r in ph.requests if r.attempted]
    n_ok = sum(r.ok for r in sent)
    n_audit = sum(1 for _ in iter_audit_records(server.audit))
    check(n_audit == n_ok, f"audit trail holds {n_audit} records for {n_ok} answered requests")
    checked = _check_responses(phases, X, work / "model", np.random.default_rng([seed, 3]))

    first = phases[0]
    lat = first.latencies_ms()
    passed = [ph.rate for ph in phases if ph.passed]
    check(bool(passed), f"lowest rung {first.rate:g}/s failed: {first.reason}")
    t = tail(lat)
    notes = [f"serve: {n_conns} keep-alive connections, arrivals replayed from "
             f"{len(submit)} holdout submissions, latency limit {LIMIT_MS:g} ms on the tail"]
    for ph in phases:
        pl = ph.latencies_ms()
        notes.append(
            f"rung {ph.rate:g}/s for {ph.duration_s:.1f} s: {len(ph.requests)} due, "
            f"{sum(not r.attempted for r in ph.requests)} abandoned, {ph.n_failed} failed, "
            f"p50 {median(pl):.1f} ms, tail "
            + (f"{ph.tail.value:.1f} ms ({ph.tail.label()})" if ph.tail else "n/a")
            + f", {'pass' if ph.passed else 'FAIL'} ({ph.reason})"
        )
    notes += [
        f"latency_p50_ms = {median(lat):.2f} ms, latency_tail_ms = "
        + (f"{t.value:.2f} ms ({t.label()})" if t else "n/a") + f" at {first.rate:g}/s",
        f"max_rate_per_s = {max(passed):g} 1/s",
        f"checks: {n_ok} answers carry all fields, {checked} sampled answers match "
        f"TroutModel.predict, audit records = answers = {n_audit}",
        f"holdout (served model): accuracy {quality.accuracy:.4f}, MAPE {quality.mape:.2f}%, "
        f"80% interval coverage {quality.coverage_80:.4f} on {quality.n_long} long-wait jobs",
    ]
    e2e = {
        "setup_s": median(ready),
        "peak_rss_mb": peak_rss,
        "ok_share": n_ok / len(sent),
        "op_p50_ms": median(lat),
        "throughput_per_s": max(passed),
        "holdout_accuracy": quality.accuracy,
        "holdout_mape": quality.mape,
        "interval_miss_80": quality.interval_miss_80,
    }
    per_layer: dict[str, float] = {}
    missing: dict[str, str] = {}
    if trace:
        per_layer, missing = _layers(first, phases, ready, root, scrape_s, ladder_s)
    return finish("serve", trace, e2e, per_layer, len(sent), len(sent) - n_ok, notes, missing)


def _layers(first, phases, ready, root: Path, scrape_s: float, ladder_s: float):
    """Server-side numbers from the lowest rung's ``/metrics`` diff."""
    d = first.metrics_delta
    missing = {name: "absent from /metrics" for name in SERVER_METRICS
               if not any(k.split("{")[0] == name for k in d)}
    s = lambda name: loadgen.metric_sum(d, name)  # noqa: E731
    handle_ms = 1e3 * s("serve_request_seconds_sum") / max(s("serve_request_seconds_count"), 1)
    answered = [r for r in first.requests if r.ok]
    wire_ms = np.mean([r.service_ms for r in answered]) - handle_ms
    conn_wait_ms = np.mean([r.client_wait_ms for r in answered])
    late = tail(r.late_ms for ph in phases for r in ph.requests)
    values = {
        "serve.handle_ms": handle_ms,
        "serve.queue_wait_ms": 1e3 * s("serve_queue_wait_seconds_sum")
        / max(s("serve_queue_wait_seconds_count"), 1),
        "serve.batch_size_mean": s("serve_batched_requests_total") / max(s("serve_batches_total"), 1),
        "serve.wire_ms": wire_ms,
        "serve.conn_wait_ms": conn_wait_ms,
        "serve.shed": sum(loadgen.metric_sum(ph.metrics_delta, "serve_shed_total") for ph in phases),
        "serve.generator_late_ms": late.value if late else 0.0,
        "serve.ready_s": median(ready),
        "cli.import_s": median(_import_time(root) for _ in range(3)),
        # Spans here are the client-side wait and the server's handling, so
        # what neither covers is the wire time: the same quantity.
        "trace.unattributed_s": wire_ms / 1e3,
        "trace.overhead_pct": 100.0 * scrape_s / ladder_s,
        "trace.missing_targets": float(len(missing)),
    }
    return values, missing
