"""A15 — serving-path observability overhead gate.

The request-observability contract (README "Serving", DESIGN.md §11):
per-request tracing, the structured event log, and the prediction audit
trail are cheap enough to leave on in production — a fully observed
serving path (spans + events + audit trail on disk) stays within 5 % of
the same path with no audit trail and no event sink, and under
``REPRO_TELEMETRY=0`` the whole layer nulls itself to within ~1 %.

The probe drives :meth:`PredictionService.handle_predict` directly —
request parsing, span, batcher round-trip, audit append — with a
zero-weight model, so the measured time is
dominated by the serving machinery the observability rides on, not by
model arithmetic or socket overhead.  Medians over several repetitions,
with an absolute slack so sub-millisecond jitter cannot fail the ratio.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

from benchmarks.conftest import emit, once
from repro.core.classifier import QuickStartClassifier
from repro.core.config import ClassifierConfig, RegressorConfig
from repro.core.hierarchical import TroutModel
from repro.core.regressor import QueueTimeRegressor
from repro.eval.report import format_table
from repro.features.names import FEATURE_NAMES
from repro.nn import Dense, Sequential
from repro.obs import metrics, tracing
from repro.obs.events import get_event_log, reset_event_log
from repro.serve import LoadedModel, PredictionService, ServeConfig
from repro.serve.audit import AuditTrail
from repro.utils.rng import default_rng

N_FEATURES = len(FEATURE_NAMES)
REQUESTS = 500
REPS = 5
MAX_OBSERVED_OVERHEAD = 1.05
MAX_DISABLED_OVERHEAD = 1.01
#: Below this absolute delta the ratio gate is vacuous — at ~500 requests
#: per rep, 50 ms of slack is 100 µs/request of allowed jitter.
ABS_SLACK_S = 0.05


def _zero_model() -> TroutModel:
    """Constant-output hierarchy: serving cost without model cost."""

    def zero_net(n_in: int) -> Sequential:
        layer = Dense(n_in, 1, seed=0)
        layer.params[0][:] = 0.0
        layer.params[1][:] = 0.0
        return Sequential([layer])

    clf = QuickStartClassifier(N_FEATURES, ClassifierConfig(threshold=0.5))
    clf.net_ = zero_net(N_FEATURES)
    clf._scaler.mean_ = np.zeros(N_FEATURES)
    clf._scaler.scale_ = np.ones(N_FEATURES)
    reg = QueueTimeRegressor(N_FEATURES, RegressorConfig(log_target=False))
    reg.net_ = zero_net(N_FEATURES)
    reg._scaler.mean_ = np.zeros(N_FEATURES)
    reg._scaler.scale_ = np.ones(N_FEATURES)
    return TroutModel(
        classifier=clf,
        regressor=reg,
        cutoff_min=10.0,
        feature_names=FEATURE_NAMES,
    )


def _service(audit: AuditTrail | None = None) -> PredictionService:
    loaded = LoadedModel(
        model=_zero_model(), version=1, fingerprint="bench", partitions=()
    )
    return PredictionService(
        loaded,
        ServeConfig(max_batch=8, request_timeout_s=30.0),
        audit=audit,
    )


def _drive(service: PredictionService, bodies: list[bytes]) -> float:
    t0 = time.perf_counter()
    for body in bodies:
        resp = service.handle_predict(body)
        assert resp.status == 200, resp.payload
    return time.perf_counter() - t0


def _median_runtime(service: PredictionService, bodies: list[bytes]) -> float:
    return statistics.median(_drive(service, bodies) for _ in range(REPS))


def test_a15_serve_observability_overhead(benchmark, tmp_path):
    rng = default_rng(0)
    bodies = [
        json.dumps({"features": [float(v) for v in rng.normal(size=N_FEATURES)]}).encode()
        for _ in range(REQUESTS)
    ]

    def measure(observed: bool, enabled: bool) -> float:
        metrics.set_enabled(enabled)
        metrics.get_registry().reset()
        tracing.reset()
        reset_event_log()
        audit = None
        if observed:
            audit = AuditTrail(tmp_path / f"audit-{enabled}.jsonl")
            get_event_log().configure_file(
                tmp_path / f"events-{enabled}.jsonl", sink_level="info"
            )
        service = _service(audit=audit)
        try:
            _drive(service, bodies[:50])  # warm the path outside timing
            return _median_runtime(service, bodies)
        finally:
            service.close()
            if audit is not None:
                audit.close()
            reset_event_log()

    try:
        t_plain = measure(observed=False, enabled=True)
        t_observed = measure(observed=True, enabled=True)
        t_disabled = measure(observed=True, enabled=False)
    finally:
        metrics.set_enabled(True)
        metrics.get_registry().reset()
        tracing.reset()
        reset_event_log()

    ratio_obs = t_observed / t_plain if t_plain > 0 else 1.0
    ratio_off = t_disabled / t_plain if t_plain > 0 else 1.0
    emit(
        "a15_serve_observability",
        format_table(
            ["requests", "plain (s)", "observed (s)", "telemetry=0 (s)",
             "obs ratio", "off ratio"],
            [[REQUESTS, t_plain, t_observed, t_disabled, ratio_obs, ratio_off]],
            float_fmt="{:.4f}",
        ),
    )
    service = _service()
    try:
        once(benchmark, lambda: _drive(service, bodies))
    finally:
        service.close()

    # Fully observed serving stays within the 5 % envelope ...
    assert (
        ratio_obs <= MAX_OBSERVED_OVERHEAD
        or (t_observed - t_plain) <= ABS_SLACK_S
    ), (t_plain, t_observed)
    # ... and REPRO_TELEMETRY=0 nulls the whole layer.
    assert (
        ratio_off <= MAX_DISABLED_OVERHEAD
        or (t_disabled - t_plain) <= ABS_SLACK_S
    ), (t_plain, t_disabled)
