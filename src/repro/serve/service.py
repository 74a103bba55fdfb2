"""Request validation, admission control, and hot reload.

:class:`PredictionService` is the HTTP-agnostic middle of the serving
stack: it owns the loaded model, the micro-batcher, and (in registry
mode) the reload watcher.  The HTTP front end hands it raw request
bodies and gets back a status code + JSON-able payload + headers, so the
whole wire contract is unit-testable without a socket.

Error contract (golden-tested, do not drift):

- malformed body / wrong feature shape → **400** ``{"error": ...}``
- unknown partition → **422** ``{"error": ...}``
- queue full (admission control) → **503** + ``Retry-After``
- model call failure / timeout → **500** / **503**

Hot reload: the watcher polls the registry every ``reload_interval_s``.
A new highest version is loaded and verified **off the request path**,
then swapped in by a single attribute assignment — in-flight batches
finish on the model they started with, so no request is dropped.  Any
failure (corrupt artifact, half-written publish, version mismatch,
feature-width change) leaves the current model serving and bumps
``serve_reload_failures_total``.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.hierarchical import TroutModel
from repro.obs import tracing
from repro.obs.context import new_request_id
from repro.obs.events import emit
from repro.obs.metrics import get_registry
from repro.serve.audit import AuditTrail
from repro.serve.batcher import MicroBatcher, QueueFullError
from repro.serve.config import ServeConfig
from repro.serve.registry import LoadedModel, ModelRegistry, RegistryError
from repro.utils.logging import get_logger

__all__ = ["PredictionService", "ServeResponse"]

log = get_logger(__name__)


@dataclass
class ServeResponse:
    """One HTTP-shaped answer: status, JSON payload, extra headers."""

    status: int
    payload: dict
    headers: dict[str, str] = field(default_factory=dict)


class _BadRequest(ValueError):
    """Client-side validation failure; ``status`` picks 400 vs 422."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class PredictionService:
    """Model + batcher + (optionally) registry watcher, one object.

    Build from a registry root for hot reload, or from a fixed
    :class:`LoadedModel` (``registry=None``) for tests and single-model
    serving.
    """

    def __init__(
        self,
        loaded: LoadedModel,
        config: ServeConfig | None = None,
        registry: ModelRegistry | None = None,
        audit: AuditTrail | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = registry
        self.audit = audit
        self._current = loaded
        self._reload_lock = threading.Lock()
        reg = get_registry()
        self._reloads_total = reg.counter(
            "serve_reloads_total", help="successful model hot reloads"
        )
        self._shed_total = reg.counter(
            "serve_shed_total",
            help="requests shed by admission control (503)",
        )
        self._version_gauge = reg.gauge(
            "serve_model_version", help="currently served registry version"
        )
        self._version_gauge.set(float(loaded.version))
        self.batcher = MicroBatcher(
            self._predict_fn_for(loaded),
            n_features=loaded.model.classifier.n_features,
            max_batch=self.config.max_batch,
            queue_depth=self.config.queue_depth,
        )
        self._stop = threading.Event()
        self._watcher: threading.Thread | None = None
        if registry is not None:
            self._watcher = threading.Thread(
                target=self._watch, name="trout-serve-reload", daemon=True
            )
            self._watcher.start()

    # ------------------------------------------------------------------ #
    # model lifecycle
    # ------------------------------------------------------------------ #
    @property
    def current(self) -> LoadedModel:
        return self._current

    @staticmethod
    def _predict_fn_for(loaded: LoadedModel):
        model: TroutModel = loaded.model
        version = loaded.version
        fingerprint = loaded.fingerprint

        def predict(rows: np.ndarray) -> list[tuple[int, str, object]]:
            return [(version, fingerprint, p) for p in model.predict(rows)]

        return predict

    def _reload_failure(self, reason: str, detail: str) -> None:
        get_registry().counter(
            "serve_reload_failures_total",
            help="registry reloads rejected (current model kept serving)",
            labels={"reason": reason},
        ).inc()
        emit("serve.reload_rejected", level="warning", reason=reason, detail=detail)

    def poll_registry(self) -> bool:
        """One reload check; True iff a new version was swapped in.

        Safe to call from tests or cron-style drivers; the watcher thread
        calls it on its interval.  A failed candidate is retried on the
        next poll (it may still be mid-publish repair).
        """
        if self.registry is None:
            return False
        with self._reload_lock:
            latest = self.registry.latest_version()
            if latest is None or latest <= self._current.version:
                return False
            try:
                candidate = self.registry.load(latest)
            except RegistryError as exc:
                self._reload_failure("load", str(exc))
                return False
            width = candidate.model.classifier.n_features
            if width != self.batcher.n_features:
                self._reload_failure(
                    "shape",
                    f"version {latest} expects {width} features, "
                    f"server built for {self.batcher.n_features}",
                )
                return False
            self._current = candidate
            self.batcher.predict_fn = self._predict_fn_for(candidate)
            self._version_gauge.set(float(candidate.version))
            self._reloads_total.inc()
            emit(
                "serve.model_reloaded",
                version=candidate.version,
                fingerprint=candidate.fingerprint[:16],
            )
            return True

    def _watch(self) -> None:
        while not self._stop.wait(self.config.reload_interval_s):
            try:
                self.poll_registry()
            except Exception:
                # A watcher crash must never take serving down with it.
                log.exception("reload watcher error; current model kept")
                self._reload_failure("watcher", "unexpected watcher error")

    def close(self) -> None:
        self._stop.set()
        if self._watcher is not None:
            self._watcher.join(timeout=5.0)
        self.batcher.close()
        if self.audit is not None:
            self.audit.flush()

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _parse_features(self, body: bytes) -> tuple[np.ndarray, str | None]:
        try:
            doc = json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"invalid JSON body: {exc}") from exc
        if not isinstance(doc, dict):
            raise _BadRequest("request body must be a JSON object")
        names = self._current.model.feature_names
        features = doc.get("features")
        if features is None:
            raise _BadRequest("missing required field 'features'")
        if isinstance(features, dict):
            missing = [n for n in names if n not in features]
            unknown = sorted(set(features) - set(names))
            if missing or unknown:
                raise _BadRequest(
                    "feature dict mismatch: "
                    f"missing {missing[:5]}, unknown {unknown[:5]}"
                )
            values = [features[n] for n in names]
        elif isinstance(features, list):
            if len(features) != len(names):
                raise _BadRequest(
                    f"'features' must have {len(names)} entries, "
                    f"got {len(features)}"
                )
            values = features
        else:
            raise _BadRequest("'features' must be a list or an object")
        if not all(_is_number(v) and math.isfinite(v) for v in values):
            raise _BadRequest("features must all be finite numbers")
        partition = doc.get("partition")
        if partition is not None and not isinstance(partition, str):
            raise _BadRequest("'partition' must be a string")
        if partition is not None and not self._current.known_partition(partition):
            raise _BadRequest(
                f"unknown partition {partition!r}; model serves "
                f"{list(self._current.partitions)}",
                status=422,
            )
        return np.array(values, dtype=np.float64), partition

    def _shed(self, why: str, request_id: str) -> ServeResponse:
        self._shed_total.inc()
        emit("serve.request_shed", level="warning", request_id=request_id, reason=why)
        return ServeResponse(
            status=503,
            payload={"error": why, "request_id": request_id},
            headers={"Retry-After": str(self.config.retry_after_s)},
        )

    def handle_predict(
        self, body: bytes, request_id: str | None = None
    ) -> ServeResponse:
        """The full ``/predict`` pipeline for one request body.

        ``request_id`` is the (already sanitised) client-supplied id; one
        is minted here otherwise.  Every JSON answer echoes it, and the
        whole pipeline runs inside a ``serve.request`` span whose context
        rides the batch ticket into the worker thread — handler span and
        batch span share one ``trace_id``.
        """
        rid = request_id or new_request_id()
        with tracing.span("serve.request", request_id=rid) as req_span:
            return self._predict(body, rid, req_span)

    def _predict(
        self, body: bytes, rid: str, req_span: tracing.Span
    ) -> ServeResponse:
        t0 = perf_counter()
        try:
            row, partition = self._parse_features(body)
        except _BadRequest as exc:
            return ServeResponse(
                status=exc.status,
                payload={"error": str(exc), "request_id": rid},
            )
        try:
            ticket = self.batcher.submit(row, context=req_span.context(rid))
        except QueueFullError as exc:
            return self._shed(f"overloaded: {exc}", rid)
        try:
            version, fingerprint, prediction = ticket.wait(
                self.config.request_timeout_s
            )
        except TimeoutError:
            return self._shed("prediction timed out", rid)
        except Exception as exc:
            get_registry().counter(
                "serve_prediction_failures_total",
                help="predictions that raised inside the batch worker",
            ).inc()
            emit(
                "serve.prediction_failed",
                level="error",
                request_id=rid,
                error=str(exc),
            )
            return ServeResponse(
                status=500,
                payload={"error": f"prediction failed: {exc}", "request_id": rid},
            )
        total_s = perf_counter() - t0
        req_span.meta["batch_size"] = ticket.batch_size
        req_span.meta["queue_wait_s"] = round(ticket.queue_wait_s, 6)
        req_span.meta["compute_s"] = round(ticket.compute_s, 6)
        req_span.meta["model_version"] = version
        minutes = prediction.minutes
        cutoff = self._current.model.cutoff_min
        if self.audit is not None:
            self.audit.append(
                request_id=rid,
                trace_id=req_span.trace_id,
                row=row,
                model_version=version,
                model_fingerprint=fingerprint,
                p_long=float(prediction.p_long),
                long_wait=bool(prediction.long_wait),
                minutes=None if minutes is None else float(minutes),
                cutoff_min=float(cutoff),
                partition=partition,
                queue_wait_s=ticket.queue_wait_s,
                compute_s=ticket.compute_s,
                total_s=total_s,
                batch_size=ticket.batch_size,
            )
        return ServeResponse(
            status=200,
            payload={
                "long_wait": prediction.long_wait,
                "message": prediction.message(cutoff),
                "minutes": None if minutes is None else float(minutes),
                "model_version": version,
                "p_long": float(prediction.p_long),
                "request_id": rid,
            },
        )

    def handle_healthz(self) -> ServeResponse:
        loaded = self._current
        if loaded is None:  # defensive: construction requires a model
            return ServeResponse(status=503, payload={"status": "unavailable"})
        return ServeResponse(
            status=200,
            payload={
                "model_version": loaded.version,
                "partitions": list(loaded.partitions),
                "status": "ok",
            },
        )
