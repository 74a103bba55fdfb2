"""Serve-suite fixtures: handcrafted models (no training), HTTP helpers.

Two model builders:

- :func:`golden_model` — all-zero weights, constant outputs (p_long
  exactly 0.5, minutes exactly 42.0).  Every arithmetic step is exact in
  float32, so responses are bit-stable across platforms and safe to
  check against checked-in golden JSON.
- :func:`make_random_model` — seeded nontrivial weights, so distinct
  feature rows map to distinct predictions; the concurrency suite uses
  that to catch cross-request corruption.
"""

from __future__ import annotations

import http.client
import json
import threading

import numpy as np
import pytest

from repro.core.classifier import QuickStartClassifier
from repro.core.config import ClassifierConfig, RegressorConfig
from repro.core.hierarchical import TroutModel
from repro.core.regressor import QueueTimeRegressor
from repro.features.names import FEATURE_NAMES
from repro.nn import Activation, Dense, Sequential
from repro.obs.metrics import get_registry
from repro.serve import (
    LoadedModel,
    PredictionService,
    ServeConfig,
    start_server,
)
from repro.utils.rng import default_rng

N_FEATURES = len(FEATURE_NAMES)


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Each test reads its own counters, not a prior test's."""
    get_registry().reset()
    yield
    get_registry().reset()


def _identity_scaler(estimator, n_features: int) -> None:
    estimator._scaler.mean_ = np.zeros(n_features)
    estimator._scaler.scale_ = np.ones(n_features)


def _zero_dense(n_in: int, n_out: int, bias: float = 0.0) -> Dense:
    layer = Dense(n_in, n_out, seed=0)
    layer.params[0][:] = 0.0
    layer.params[1][:] = bias
    return layer


def golden_model(minutes_bias: float = 42.0) -> TroutModel:
    """Constant-output model: p_long = 0.5 (>= threshold → long wait),
    minutes = ``minutes_bias`` exactly (log_target off, zero weights)."""
    clf = QuickStartClassifier(N_FEATURES, ClassifierConfig(threshold=0.5))
    clf.net_ = Sequential([_zero_dense(N_FEATURES, 1)])
    _identity_scaler(clf, N_FEATURES)
    reg = QueueTimeRegressor(N_FEATURES, RegressorConfig(log_target=False))
    reg.net_ = Sequential([_zero_dense(N_FEATURES, 1, bias=minutes_bias)])
    _identity_scaler(reg, N_FEATURES)
    return TroutModel(
        classifier=clf,
        regressor=reg,
        cutoff_min=10.0,
        feature_names=FEATURE_NAMES,
    )


def make_random_model(seed: int = 0, hidden: int = 16) -> TroutModel:
    """Seeded random weights: row-dependent, deterministic predictions."""
    rng = default_rng(seed)
    clf = QuickStartClassifier(N_FEATURES, ClassifierConfig(threshold=0.5))
    clf.net_ = Sequential(
        [
            Dense(N_FEATURES, hidden, seed=rng),
            Activation("elu"),
            Dense(hidden, 1, seed=rng),
        ]
    )
    _identity_scaler(clf, N_FEATURES)
    reg = QueueTimeRegressor(N_FEATURES, RegressorConfig(log_target=False))
    reg.net_ = Sequential(
        [
            Dense(N_FEATURES, hidden, seed=rng),
            Activation("elu"),
            Dense(hidden, 1, seed=rng),
        ]
    )
    _identity_scaler(reg, N_FEATURES)
    return TroutModel(
        classifier=clf,
        regressor=reg,
        cutoff_min=10.0,
        feature_names=FEATURE_NAMES,
    )


def as_loaded(model: TroutModel, version: int = 1) -> LoadedModel:
    return LoadedModel(
        model=model, version=version, fingerprint="fixed", partitions=()
    )


def golden_loaded() -> LoadedModel:
    """The golden model as the golden suite serves it."""
    return LoadedModel(
        model=golden_model(),
        version=1,
        fingerprint="golden",
        partitions=("shared", "gpu"),
    )


class ServerHarness:
    """A live server on an ephemeral port plus a tiny JSON client."""

    def __init__(self, service: PredictionService, server) -> None:
        self.service = service
        self.server = server
        self.port = server.port

    def request(
        self,
        method: str,
        path: str,
        body: dict | str | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            payload = None
            if body is not None:
                payload = (
                    body.encode("utf-8")
                    if isinstance(body, str)
                    else json.dumps(body).encode("utf-8")
                )
            conn.request(method, path, body=payload, headers=headers or {})
            resp = conn.getresponse()
            data = resp.read()
            headers = {k.lower(): v for k, v in resp.getheaders()}
            return resp.status, headers, data
        finally:
            conn.close()

    def predict(self, body: dict | str) -> tuple[int, dict]:
        status, _headers, data = self.request("POST", "/predict", body)
        return status, json.loads(data)


@pytest.fixture
def serve_harness():
    """Factory fixture: boot (and tear down) servers inside a test."""
    started: list[ServerHarness] = []

    def boot(
        loaded: LoadedModel,
        config: ServeConfig | None = None,
        registry=None,
        audit=None,
    ) -> ServerHarness:
        config = config or ServeConfig(max_batch=8)
        service = PredictionService(loaded, config, registry=registry, audit=audit)
        server = start_server(service, "127.0.0.1", 0)
        harness = ServerHarness(service, server)
        started.append(harness)
        return harness

    yield boot
    for harness in started:
        harness.server.shutdown_service()


def feature_row(rng: np.random.Generator | int = 0) -> list[float]:
    rng = default_rng(rng) if isinstance(rng, int) else rng
    return [float(v) for v in rng.normal(size=N_FEATURES)]


def hammer(fn, n_threads: int, per_thread: int):
    """Run ``fn(thread_idx, call_idx)`` from many threads; returns results
    in a stable (thread, call) order, re-raising the first error."""
    results: dict[tuple[int, int], object] = {}
    errors: list[BaseException] = []
    lock = threading.Lock()
    barrier = threading.Barrier(n_threads)

    def run(t: int) -> None:
        try:
            barrier.wait(timeout=30)
            for c in range(per_thread):
                out = fn(t, c)
                with lock:
                    results[(t, c)] = out
        except BaseException as exc:  # re-raised in the main thread below
            with lock:
                errors.append(exc)
            raise

    threads = [
        threading.Thread(target=run, args=(t,), daemon=True)
        for t in range(n_threads)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=120)
    if errors:
        raise errors[0]
    return [
        results[(t, c)]
        for t in range(n_threads)
        for c in range(per_thread)
    ]


def metric_value(name: str, **labels: str) -> float:
    """Current value of a counter/gauge in the global registry (0 if unset)."""
    for metric_name, metric_labels, instrument in get_registry().items():
        if metric_name == name and dict(metric_labels) == labels:
            return instrument.value
    return 0.0
