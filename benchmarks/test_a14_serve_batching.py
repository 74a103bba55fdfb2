"""A14 — serve micro-batching gate.

The serving contract (README "Serving", DESIGN.md §10), probed in the two
regimes that matter:

- **saturated** — the pending queue never empties, so every batch fills
  to ``max_batch``.  This is the regime micro-batching exists for, and
  here it must sustain at least :data:`MIN_SPEEDUP`× the single-request
  (``max_batch=1``) throughput.
- **closed loop** — N clients each submit-then-wait.  The batcher is
  work-conserving (no timed wait for company), so a batch is whatever
  queued during the previous model call.  Batching adds no wait, so the
  p99 request latency may exceed the single-request p99 by at most
  :data:`P99_JITTER_S`, an allowance for scheduling jitter.

The probe drives the :class:`~repro.serve.batcher.MicroBatcher` through
the same predict closure the HTTP layer uses, with a production-shaped
(two hidden layers) model, so it measures the batching economics rather
than socket overhead; the HTTP path itself is covered end-to-end by
``tests/serve``.
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np

from benchmarks.conftest import emit, once
from repro.core.classifier import QuickStartClassifier
from repro.core.config import ClassifierConfig, RegressorConfig
from repro.core.hierarchical import TroutModel
from repro.core.regressor import QueueTimeRegressor
from repro.eval.report import format_table
from repro.features.names import FEATURE_NAMES
from repro.nn import Activation, Dense, Sequential
from repro.serve import MicroBatcher
from repro.utils.rng import default_rng

N_FEATURES = len(FEATURE_NAMES)
HIDDEN = 512
MIN_SPEEDUP = 3.0

#: Saturated-regime knobs: enough pre-submitted rows that the queue never
#: runs dry mid-measurement, and the production default batch cap.
SATURATED_REQUESTS = 4096
MAX_BATCH = 32

#: Closed-loop knobs: the batch cap matches the offered concurrency.
N_THREADS = 8
PER_THREAD = 250
LOOP_BATCH = N_THREADS
#: how far the batched closed-loop p99 may sit above the single-request
#: p99: thread-scheduling jitter, not a batching wait
P99_JITTER_S = 0.002


def _net(rng, hidden: int) -> Sequential:
    return Sequential(
        [
            Dense(N_FEATURES, hidden, seed=rng),
            Activation("elu"),
            Dense(hidden, hidden, seed=rng),
            Activation("elu"),
            Dense(hidden, 1, seed=rng),
        ]
    )


def _production_shaped_model(seed: int = 0) -> TroutModel:
    rng = default_rng(seed)
    clf = QuickStartClassifier(N_FEATURES, ClassifierConfig(threshold=0.5))
    clf.net_ = _net(rng, HIDDEN)
    clf._scaler.mean_ = np.zeros(N_FEATURES)
    clf._scaler.scale_ = np.ones(N_FEATURES)
    reg = QueueTimeRegressor(N_FEATURES, RegressorConfig(log_target=False))
    reg.net_ = _net(rng, HIDDEN)
    reg._scaler.mean_ = np.zeros(N_FEATURES)
    reg._scaler.scale_ = np.ones(N_FEATURES)
    return TroutModel(
        classifier=clf,
        regressor=reg,
        cutoff_min=10.0,
        feature_names=FEATURE_NAMES,
    )


def _saturated_wall(batcher: MicroBatcher, rows: np.ndarray) -> float:
    """Pre-submit every request, then wait for all of them; wall seconds."""
    t0 = perf_counter()
    tickets = [
        batcher.submit(rows[i % len(rows)]) for i in range(SATURATED_REQUESTS)
    ]
    for ticket in tickets:
        ticket.wait(300.0)
    return perf_counter() - t0


def _closed_loop(batcher: MicroBatcher, rows: np.ndarray) -> list[float]:
    """N_THREADS submit-then-wait clients; per-request latencies."""
    latencies: list[float] = []
    lock = threading.Lock()
    barrier = threading.Barrier(N_THREADS)
    errors: list[BaseException] = []

    def client(t: int) -> None:
        mine = []
        try:
            barrier.wait(timeout=60)
            for c in range(PER_THREAD):
                row = rows[(t * PER_THREAD + c) % len(rows)]
                t0 = perf_counter()
                batcher.submit(row).wait(60.0)
                mine.append(perf_counter() - t0)
        except BaseException as exc:
            errors.append(exc)
            raise
        finally:
            with lock:
                latencies.extend(mine)

    threads = [
        threading.Thread(target=client, args=(t,), daemon=True)
        for t in range(N_THREADS)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=300)
    if errors:
        raise errors[0]
    assert len(latencies) == N_THREADS * PER_THREAD
    return latencies


def test_a14_batching_throughput_and_latency(benchmark):
    model = _production_shaped_model()
    rng = default_rng(99)
    rows = rng.normal(size=(512, N_FEATURES))

    def predict_fn(block):
        return model.predict(block)

    predict_fn(rows[:MAX_BATCH])  # warm BLAS/import paths outside timing

    def batcher(max_batch: int) -> MicroBatcher:
        return MicroBatcher(
            predict_fn,
            n_features=N_FEATURES,
            max_batch=max_batch,
            queue_depth=SATURATED_REQUESTS,
        )

    def measure(saturated_batch: int, loop_batch: int):
        b = batcher(saturated_batch)
        try:
            wall = _saturated_wall(b, rows)
        finally:
            b.close()
        b = batcher(loop_batch)
        try:
            latencies = _closed_loop(b, rows)
        finally:
            b.close()
        return wall, latencies

    wall_1, lat_1 = measure(1, 1)
    wall_b, lat_b = once(benchmark, lambda: measure(MAX_BATCH, LOOP_BATCH))

    rps_1 = SATURATED_REQUESTS / wall_1
    rps_b = SATURATED_REQUESTS / wall_b
    speedup = rps_b / rps_1
    p99_1 = float(np.percentile(lat_1, 99))
    p99_b = float(np.percentile(lat_b, 99))
    added_p99 = p99_b - p99_1

    emit(
        "a14_serve_batching",
        format_table(
            ["mode", "saturated req/s", "loop p50 ms", "loop p99 ms"],
            [
                [
                    "max_batch=1",
                    rps_1,
                    float(np.percentile(lat_1, 50)) * 1e3,
                    p99_1 * 1e3,
                ],
                [
                    f"max_batch={MAX_BATCH}/{LOOP_BATCH}",
                    rps_b,
                    float(np.percentile(lat_b, 50)) * 1e3,
                    p99_b * 1e3,
                ],
                ["delta", speedup, 0.0, added_p99 * 1e3],
            ],
            float_fmt="{:.3f}",
        ),
    )

    assert speedup >= MIN_SPEEDUP, (rps_1, rps_b)
    # Batching adds no wait of its own — under concurrent load it
    # *removes* queueing delay, so the added p99 is typically negative.
    assert added_p99 <= P99_JITTER_S, (p99_1, p99_b)
