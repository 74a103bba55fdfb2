"""End-to-end request observability: one id across response, spans,
event log, and audit trail.

The acceptance path of the observability PR: a ``/predict`` request must
be traceable by its ``request_id`` through (1) the HTTP response (body +
``X-Request-Id`` header), (2) the span forest, where the handler's
``serve.request`` span and the worker's ``serve.batch`` span share a
``trace_id`` across the thread boundary, (3) the structured event log,
and (4) the prediction audit trail.
"""

import json
import re
import threading
import time

import pytest

from repro.obs import tracing
from repro.obs.events import get_event_log
from repro.serve import ServeConfig
from repro.serve.audit import AuditTrail, iter_audit_records

from tests.serve.conftest import as_loaded, feature_row, golden_model

_MINTED_RE = re.compile(r"^r[0-9a-f]+-[0-9a-f]{8}$")


@pytest.fixture
def observed():
    """Force retention/emission on the process-wide tracer and event log
    (restored afterwards), so assertions hold under REPRO_TELEMETRY=0."""
    tracer = tracing.get_tracer()
    glog = get_event_log()
    prev_retain, prev_enabled = tracer.retain, glog._enabled
    tracer.retain = True
    tracer.drain()
    glog._enabled = True
    glog.clear()
    yield tracer, glog
    tracer.retain = prev_retain
    tracer.drain()
    glog._enabled = prev_enabled
    glog.clear()


def _spans_named(roots, name):
    return [s for s in roots if s.name == name]


def _wait_for_event(glog, event, **fields):
    """The access event is emitted after the response bytes go out, so a
    fast client can assert before the handler thread gets there."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        for rec in glog.tail():
            if rec["event"] == event and all(
                rec.get(k) == v for k, v in fields.items()
            ):
                return rec
        time.sleep(0.01)
    raise AssertionError(f"no {event} event with {fields}: {glog.tail()}")


def test_request_id_threads_through_everything(
    observed, serve_harness, tmp_path
):
    tracer, glog = observed
    audit = AuditTrail(tmp_path / "audit.jsonl", enabled=True)
    harness = serve_harness(
        as_loaded(golden_model()),
        ServeConfig(max_batch=4),
        audit=audit,
    )

    status, headers, data = harness.request(
        "POST",
        "/predict",
        {"features": feature_row(0)},
        headers={"X-Request-Id": "client-42"},
    )
    payload = json.loads(data)

    # (1) the response echoes the client id in body and header
    assert status == 200
    assert payload["request_id"] == "client-42"
    assert headers["x-request-id"] == "client-42"

    # (2) the span forest connects handler and worker across threads
    roots = tracer.drain()
    (req_span,) = [
        s
        for s in _spans_named(roots, "serve.request")
        if s.meta.get("request_id") == "client-42"
    ]
    batches = [
        s
        for s in _spans_named(roots, "serve.batch")
        if "client-42" in s.meta.get("request_ids", ())
    ]
    (batch_span,) = batches
    assert batch_span.trace_id == req_span.trace_id  # one trace
    assert batch_span.parent_id == req_span.span_id  # causally linked
    assert batch_span.tid != req_span.tid  # across threads
    assert req_span.meta["batch_size"] >= 1
    assert req_span.meta["queue_wait_s"] >= 0.0
    assert req_span.meta["compute_s"] >= 0.0
    assert req_span.meta["model_version"] == 1

    # (3) the structured event log saw the request
    access = _wait_for_event(
        glog, "serve.access", request_id="client-42", route="/predict"
    )
    assert access["status"] == 200
    assert access["method"] == "POST"
    assert access["duration_s"] >= 0.0

    # (4) the audit trail recorded the prediction
    audit.flush()
    (rec,) = iter_audit_records(tmp_path / "audit.jsonl")
    assert rec["request_id"] == "client-42"
    assert rec["trace_id"] == req_span.trace_id
    assert rec["model_version"] == 1
    assert rec["p_long"] == pytest.approx(0.5)
    assert rec["minutes"] == pytest.approx(42.0)
    assert rec["long_wait"] is True
    assert rec["batch_size"] >= 1
    audit.close()


def test_garbage_client_id_is_replaced(serve_harness):
    harness = serve_harness(as_loaded(golden_model()))
    status, headers, _data = harness.request(
        "POST",
        "/predict",
        {"features": feature_row(0)},
        headers={"X-Request-Id": "bad id with spaces!"},
    )
    assert status == 200
    assert _MINTED_RE.match(headers["x-request-id"])


def test_request_id_is_minted_when_absent(serve_harness):
    harness = serve_harness(as_loaded(golden_model()))
    status, payload = harness.predict({"features": feature_row(0)})
    assert status == 200
    assert _MINTED_RE.match(payload["request_id"])


def test_every_route_answers_with_a_request_id(serve_harness):
    harness = serve_harness(as_loaded(golden_model()))
    for method, path in [
        ("GET", "/healthz"),
        ("GET", "/metrics"),
        ("GET", "/nowhere"),
    ]:
        _status, headers, _data = harness.request(method, path)
        assert "x-request-id" in headers, (method, path)


def test_error_responses_echo_the_request_id(serve_harness):
    harness = serve_harness(as_loaded(golden_model()))
    status, payload = harness.predict({"features": [1.0]})  # wrong width
    assert status == 400
    assert _MINTED_RE.match(payload["request_id"])


def test_batched_requests_keep_distinct_traces(
    observed, serve_harness
):
    """Requests sharing one batch keep their own serve.request spans;
    each batch span lists every member request id.  The worker is held
    inside a gated model call while seven more requests queue, so those
    seven deterministically share the next batch."""
    tracer, _glog = observed
    harness = serve_harness(
        as_loaded(golden_model()), ServeConfig(max_batch=8)
    )
    batcher = harness.service.batcher
    inner = batcher.predict_fn
    release = threading.Event()
    entered = threading.Event()

    def gated(rows):
        entered.set()
        assert release.wait(30.0)
        return inner(rows)

    batcher.predict_fn = gated
    ids: list[str] = []
    lock = threading.Lock()

    def fire(t: int) -> None:
        rid = harness.predict({"features": feature_row(t)})[1]["request_id"]
        with lock:
            ids.append(rid)

    threads = [
        threading.Thread(target=fire, args=(t,), daemon=True) for t in range(8)
    ]
    try:
        threads[0].start()
        assert entered.wait(10.0)
        for th in threads[1:]:
            th.start()
        deadline = time.monotonic() + 30.0
        while len(batcher._queue) < 7 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert len(batcher._queue) == 7
    finally:
        release.set()
        for th in threads:
            th.join(timeout=30)
    assert len(set(ids)) == 8

    roots = tracer.drain()
    req_spans = {
        s.meta["request_id"]: s for s in _spans_named(roots, "serve.request")
    }
    assert set(req_spans) >= set(ids)
    batches = _spans_named(roots, "serve.batch")
    assert sorted(len(s.meta["request_ids"]) for s in batches) == [1, 7]
    batch_members = [rid for s in batches for rid in s.meta["request_ids"]]
    assert sorted(batch_members) == sorted(ids)
    # The shared batch continues ONE member's trace (its oldest); every
    # other member keeps a trace of its own.
    (shared,) = [s for s in batches if len(s.meta["request_ids"]) == 7]
    members = [req_spans[rid] for rid in shared.meta["request_ids"]]
    assert shared.trace_id == members[0].trace_id
    assert len({m.trace_id for m in members}) == 7
