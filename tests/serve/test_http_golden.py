"""Golden-response suite: the wire format cannot drift silently.

Every ``tests/serve/golden/*.json`` file is one request/response pair
replayed against a live server on an ephemeral port.  Responses are
compared **exactly** (a ``{"$regex": ...}`` value opts one field into
pattern matching, used only where Python error strings vary by version).
The served model is the all-zero-weight golden model, whose arithmetic is
exact in float32, so even the numeric fields are platform-stable.

Also here: ``/metrics`` output must obey the OBS001 name grammar —
snake_case, counters ``_total``, histograms with a unit suffix — checked
against the exposition text itself, not just the source AST.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

import pytest

from repro.analysis.config import DEFAULT_HISTOGRAM_SUFFIXES
from repro.serve import ServeConfig

from tests.serve.conftest import feature_row, golden_loaded

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_CASES = sorted(GOLDEN_DIR.glob("*.json"))


def _match(expected, actual, path="$"):
    if isinstance(expected, dict) and set(expected) == {"$regex"}:
        assert isinstance(actual, str) and re.search(expected["$regex"], actual), (
            f"{path}: {actual!r} !~ {expected['$regex']!r}"
        )
        return
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and set(expected) == set(actual), (
            f"{path}: keys {sorted(actual)} != {sorted(expected)}"
        )
        for key in expected:
            _match(expected[key], actual[key], f"{path}.{key}")
        return
    assert expected == actual, f"{path}: {actual!r} != {expected!r}"


@pytest.fixture
def golden_server(serve_harness):
    return serve_harness(
        golden_loaded(), ServeConfig(max_batch=8)
    )


@pytest.mark.parametrize(
    "case_path", GOLDEN_CASES, ids=[p.stem for p in GOLDEN_CASES]
)
def test_golden_pair(case_path, serve_harness):
    case = json.loads(case_path.read_text())
    if case.get("setup") == "shed":
        harness, cleanup = _shedding_server(serve_harness)
    else:
        harness, cleanup = (
            serve_harness(golden_loaded(), ServeConfig(max_batch=8)),
            lambda: None,
        )
    try:
        body = case.get("raw_body", case.get("request"))
        status, headers, data = harness.request(
            case["method"], case["path"], body
        )
        assert status == case["status"], data
        _match(case["response"], json.loads(data))
        for key, value in case.get("headers", {}).items():
            assert headers.get(key) == value, f"header {key}: {headers}"
    finally:
        cleanup()


def _shedding_server(serve_harness):
    """A server whose single batch slot is stalled and whose queue is full,
    so the next request deterministically sheds with 503."""
    harness = serve_harness(
        golden_loaded(),
        ServeConfig(max_batch=1, queue_depth=1),
    )
    batcher = harness.service.batcher
    inner = batcher.predict_fn
    release = threading.Event()
    entered = threading.Event()

    def stalled(rows):
        entered.set()
        assert release.wait(30.0)
        return inner(rows)

    batcher.predict_fn = stalled
    background = []

    def fire() -> None:
        harness.predict({"features": feature_row(0)})

    # First request occupies the worker.  Only once it is provably inside
    # the stalled model call does the second go out — were both in flight
    # at once, the second could reach the depth-1 queue before the worker
    # drained the first and shed *itself*, leaving the queue empty.
    first = threading.Thread(target=fire, daemon=True)
    first.start()
    background.append(first)
    assert entered.wait(10.0)
    second = threading.Thread(target=fire, daemon=True)
    second.start()
    background.append(second)
    deadline = threading.Event()
    # Generous: under a loaded parallel run the second handler thread can
    # take whole seconds to get scheduled.
    for _ in range(3000):
        if len(batcher._queue) >= 1:
            break
        deadline.wait(0.01)
    assert len(batcher._queue) >= 1

    def cleanup() -> None:
        release.set()
        for t in background:
            t.join(timeout=10)

    return harness, cleanup


# --------------------------------------------------------------------- #
# /metrics obeys the OBS001 name grammar on the wire
# --------------------------------------------------------------------- #
_SNAKE = re.compile(r"^[a-z][a-z0-9_]*$")
_TYPE_LINE = re.compile(r"^# TYPE (\S+) (counter|gauge|histogram)$")


def test_metrics_output_passes_obs001_grammar(golden_server):
    # Generate traffic across every route first.
    assert golden_server.predict({"features": feature_row(0)})[0] == 200
    assert golden_server.predict({"features": [1.0]})[0] == 400
    assert golden_server.request("GET", "/healthz")[0] == 200
    status, _headers, text = golden_server.request("GET", "/metrics")
    assert status == 200
    families = dict(
        m.groups()
        for m in map(_TYPE_LINE.match, text.decode().splitlines())
        if m
    )
    assert "serve_requests_total" in families
    assert "serve_queue_wait_seconds" in families
    for name, kind in families.items():
        assert _SNAKE.match(name), f"{name} is not snake_case"
        if kind == "counter":
            assert name.endswith("_total"), f"counter {name} lacks _total"
        elif kind == "histogram":
            assert name.endswith(DEFAULT_HISTOGRAM_SUFFIXES), (
                f"histogram {name} lacks a unit suffix"
            )


def test_metrics_counts_requests_by_route_and_code(golden_server):
    golden_server.predict({"features": feature_row(0)})
    golden_server.predict({"features": [2.0]})
    _status, _headers, text = golden_server.request("GET", "/metrics")
    body = text.decode()
    assert 'serve_requests_total{code="200",route="/predict"} 1' in body
    assert 'serve_requests_total{code="400",route="/predict"} 1' in body
