"""Concurrency suite: many threads hammering ``/predict`` over real HTTP.

The served model has seeded random weights, so every distinct feature row
maps to a distinct prediction; each response must match the
single-threaded in-process reference for *its own* row.  Any interleaving
corruption in the shared micro-batch workspace (a row overwritten while
another thread's batch is in flight, results handed to the wrong ticket)
shows up as a response matching some other row's reference.

Rows whose classifier probability sits within 1e-4 of the decision
threshold are excluded up front: batched and single-row float32 BLAS
passes may round differently at the last ulp, and a threshold flip there
would change ``long_wait`` legitimately — that tolerance question is
PR-4's, not the server's.
"""

from __future__ import annotations

import time

import numpy as np

from repro.serve import ServeConfig
from repro.utils.rng import default_rng

from tests.serve.conftest import (
    N_FEATURES,
    as_loaded,
    hammer,
    make_random_model,
    metric_value,
)

N_THREADS = 8
PER_THREAD = 25


def _distinct_rows(model, n: int) -> tuple[np.ndarray, list]:
    """n feature rows, none near the classifier threshold, plus their
    single-threaded reference predictions."""
    rng = default_rng(1234)
    rows: list[np.ndarray] = []
    while len(rows) < n:
        batch = rng.normal(size=(4 * n, N_FEATURES))
        p = model.classifier.predict_proba(batch)
        keep = np.abs(p - model.classifier.config.threshold) > 1e-4
        rows.extend(batch[keep])
    X = np.stack(rows[:n])
    reference = [model.predict(X[i : i + 1])[0] for i in range(n)]
    return X, reference


def test_hammered_predictions_match_single_threaded_reference(serve_harness):
    model = make_random_model(seed=5)
    X, reference = _distinct_rows(model, N_THREADS * PER_THREAD)
    harness = serve_harness(
        as_loaded(model),
        ServeConfig(max_batch=16, queue_depth=512),
    )

    def one(thread_idx: int, call_idx: int):
        i = thread_idx * PER_THREAD + call_idx
        status, payload = harness.predict({"features": [float(v) for v in X[i]]})
        return i, status, payload

    results = hammer(one, N_THREADS, PER_THREAD)
    assert len(results) == N_THREADS * PER_THREAD
    long_waits = 0
    for i, status, payload in results:
        ref = reference[i]
        assert status == 200
        assert payload["model_version"] == 1
        assert payload["long_wait"] == ref.long_wait, f"row {i}"
        assert np.isclose(payload["p_long"], ref.p_long, rtol=1e-4, atol=1e-6), (
            f"row {i}: {payload['p_long']} vs {ref.p_long}"
        )
        if ref.long_wait:
            long_waits += 1
            assert payload["minutes"] is not None
            assert np.isclose(
                payload["minutes"], ref.minutes, rtol=1e-4, atol=1e-4
            ), f"row {i}: {payload['minutes']} vs {ref.minutes}"
        else:
            assert payload["minutes"] is None
    # The model must actually exercise both branches of the hierarchy.
    assert 0 < long_waits < len(results)


def test_hammering_actually_batches(serve_harness):
    """Under concurrent load the server must coalesce, not serialise:
    requests that arrive while a model call runs form the next batch.
    A 5 ms model call holds the worker long enough for the other clients'
    requests to queue behind it."""
    model = make_random_model(seed=6)
    X, _ = _distinct_rows(model, N_THREADS * PER_THREAD)
    harness = serve_harness(
        as_loaded(model), ServeConfig(max_batch=32, queue_depth=512)
    )
    batcher = harness.service.batcher
    inner = batcher.predict_fn

    def slow(rows):
        time.sleep(0.005)
        return inner(rows)

    batcher.predict_fn = slow

    def one(thread_idx: int, call_idx: int):
        i = thread_idx * PER_THREAD + call_idx
        return harness.predict({"features": [float(v) for v in X[i]]})[0]

    statuses = hammer(one, N_THREADS, PER_THREAD)
    assert statuses == [200] * (N_THREADS * PER_THREAD)
    n_requests = metric_value("serve_batched_requests_total")
    n_batches = metric_value("serve_batches_total")
    assert n_requests == float(N_THREADS * PER_THREAD)
    # Mean batch size comfortably above 1 proves coalescing happened.
    assert n_requests / n_batches > 1.5, (
        f"{n_batches} batches for {n_requests} requests"
    )


def test_mixed_route_traffic_stays_consistent(serve_harness):
    """Interleaved /predict, /healthz and /metrics requests never break
    each other (the metrics route walks the registry the predict path is
    concurrently writing to)."""
    model = make_random_model(seed=7)
    X, reference = _distinct_rows(model, 6 * 10)
    harness = serve_harness(
        as_loaded(model), ServeConfig(max_batch=8)
    )

    def one(thread_idx: int, call_idx: int):
        i = thread_idx * 10 + call_idx
        if thread_idx % 3 == 2:
            route = "/healthz" if call_idx % 2 else "/metrics"
            status, _headers, _data = harness.request("GET", route)
            return ("meta", status)
        status, payload = harness.predict(
            {"features": [float(v) for v in X[i]]}
        )
        return ("predict", status, payload.get("p_long"), i)

    for result in hammer(one, 6, 10):
        if result[0] == "meta":
            assert result[1] == 200
        else:
            _kind, status, p_long, i = result
            assert status == 200
            assert np.isclose(
                p_long, reference[i].p_long, rtol=1e-4, atol=1e-6
            )
