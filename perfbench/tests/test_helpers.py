"""Self-tests for the benchmark's helpers.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import math
import sys
import threading
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import sleep

import numpy as np
import pytest

from perfbench import harness, loadgen
from perfbench.loadgen import ABANDONED, PhaseResult, Request
from perfbench.stats import tail
from perfbench.tracer import Tracer


# --------------------------------------------------------------------- #
# tails: highest percentile with >= 10 samples beyond it
# --------------------------------------------------------------------- #
def test_tail_is_p90_at_100_samples_and_p50_at_20():
    t = tail(range(1, 101))
    assert (t.percentile, t.value, t.n) == (90.0, 90, 100)
    assert sum(x > t.value for x in range(1, 101)) == 10
    t = tail(range(20))
    assert (t.percentile, t.value) == (50.0, 9)


def test_no_tail_without_ten_samples_beyond():
    assert tail(range(10)) is None
    assert tail([]) is None
    assert tail(range(11)).value == 0


def test_failed_samples_sort_beyond_the_tail():
    t = tail([1.0] * 30 + [math.inf] * 10)
    assert t.value == 1.0
    t = tail([1.0] * 30 + [math.inf] * 11)
    assert t.value == math.inf


# --------------------------------------------------------------------- #
# open loop: due times and lateness accounting
# --------------------------------------------------------------------- #
def test_replayed_arrivals_keep_the_trace_bursts_at_the_asked_rate():
    # Bursts of 3 submissions 1 s apart, one burst every 100 s.
    submit = np.sort(np.concatenate([np.arange(40) * 100.0 + k for k in range(3)]))
    off, idx = loadgen.replay_arrivals(submit, rate=6.0, duration_s=5.0, segment=30)
    again = loadgen.replay_arrivals(submit, rate=6.0, duration_s=5.0, segment=30)
    assert np.array_equal(off, again[0]) and np.array_equal(idx, again[1])
    assert len(off) == 30 and off[0] == 0.0 and off.max() < 5.0
    assert np.all(np.diff(off) > 0)
    # Order and gap ratios are the trace's: 1 : 1 : 98 within each burst.
    assert np.array_equal(idx, np.arange(30))
    gaps = np.diff(off)
    assert gaps[1] == pytest.approx(gaps[0]) and gaps[2] == pytest.approx(98 * gaps[0])


def test_replayed_arrivals_are_a_cross_section_of_the_trace():
    submit = np.arange(1000.0)
    off, idx = loadgen.replay_arrivals(submit, rate=10.0, duration_s=10.0, segment=25)
    # 100 arrivals as 4 runs of 25 consecutive submissions, evenly spaced.
    assert np.array_equal(idx, np.concatenate([s + np.arange(25) for s in (0, 250, 500, 750)]))
    assert off == pytest.approx(np.arange(100) * 0.1)
    # More arrivals than submissions wrap around to the trace's start.
    off, idx = loadgen.replay_arrivals(submit[:10], rate=3.0, duration_s=10.0, segment=30)
    assert np.array_equal(idx, np.arange(30) % 10)


def test_replayed_gaps_are_read_on_the_intensity_clock():
    # Four submissions: 1 s apart at intensity 1, then 10 s apart at
    # intensity 0.1 — the same spacing once the quiet hours are divided out.
    submit = np.array([0.0, 1.0, 2.0, 12.0, 22.0])

    def intensity(t):
        return np.where(t <= 2.0, 1.0, 0.1)

    off, _ = loadgen.replay_arrivals(submit, rate=1.0, duration_s=4.0, segment=4,
                                     intensity=intensity)
    assert np.diff(off) == pytest.approx([1.0, 1.0, 1.0], rel=0.02)


def test_request_accounting_runs_from_the_due_time():
    r = Request(due=10.0, body=b"", row=0, handed=10.001, sent=10.2, done=10.25, status=200)
    assert r.latency_ms == pytest.approx(250.0)
    assert r.client_wait_ms == pytest.approx(200.0)
    assert r.service_ms == pytest.approx(50.0)
    assert r.late_ms == pytest.approx(1.0)
    failed = Request(due=10.0, body=b"", row=0, sent=10.0, done=10.01, status=503)
    assert failed.latency_ms == math.inf and failed.attempted
    dropped = Request(due=10.0, body=b"", row=0, done=11.5, status=ABANDONED)
    assert not dropped.attempted and dropped.latency_ms == math.inf
    assert dropped.client_wait_ms == pytest.approx(1500.0)


class _SlowHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    delay_s = 0.05

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        sleep(self.delay_s)
        body = b'{"ok": true}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def slow_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5.0)
        assert not thread.is_alive()


def test_queueing_behind_a_busy_connection_counts_as_latency(slow_server):
    # Four requests due at once over one keep-alive connection to a server
    # that takes 50 ms each: the last waits for the three before it.
    reqs = loadgen.run_phase("127.0.0.1", slow_server, np.zeros(4), np.zeros(4, int),
                             [b"{}"], n_conns=1)
    assert [r.status for r in reqs] == [200] * 4
    lat = sorted(r.latency_ms for r in reqs)
    assert lat[-1] >= 4 * 50.0 - 1.0
    assert lat[-1] - lat[0] >= 3 * 50.0 - 1.0
    assert all(r.late_ms < 50.0 for r in reqs)


def test_requests_waiting_past_the_abandon_limit_are_not_sent(slow_server):
    reqs = loadgen.run_phase("127.0.0.1", slow_server, np.zeros(6), np.zeros(6, int),
                             [b"{}"], n_conns=1, abandon_ms=120.0)
    sent = [r for r in reqs if r.attempted]
    assert 2 <= len(sent) <= 4
    assert all(r.status == ABANDONED for r in reqs if not r.attempted)


# --------------------------------------------------------------------- #
# ladder: pass/fail with the backlog check
# --------------------------------------------------------------------- #
def _phase(waits_ms, service_ms=10.0, status=200):
    reqs = []
    for i, w in enumerate(waits_ms):
        due = float(i)
        reqs.append(Request(due=due, body=b"", row=0, handed=due, sent=due + w / 1e3,
                            done=due + (w + service_ms) / 1e3, status=status))
    return PhaseResult(rate=1.0, duration_s=len(reqs), requests=reqs)


def test_steady_phase_passes():
    ph = loadgen.judge(_phase([5.0] * 100), limit_ms=100.0, n_conns=1)
    assert ph.passed and not ph.growing_backlog
    assert ph.busy_share == pytest.approx(0.01)


def test_bursts_that_drain_pass():
    # Waits that rise and fall with bursts, one of them in the last
    # quarter, on connections mostly idle: no backlog.
    waits = [0.0, 20.0, 40.0, 60.0, 0.0] * 16 + [0.0, 30.0, 60.0, 90.0, 60.0] * 4
    ph = loadgen.judge(_phase(waits), limit_ms=100.0, n_conns=1)
    assert ph.passed and not ph.growing_backlog


def test_growing_backlog_fails_even_under_the_limit():
    # Each request holds its connection 0.95 s of every second due.
    ph = loadgen.judge(_phase([5.0] * 100, service_ms=950.0), limit_ms=2000.0, n_conns=1)
    assert ph.growing_backlog and not ph.passed and ph.reason.startswith("backlog grows")
    # The same work over two connections drains.
    assert loadgen.judge(_phase([5.0] * 100, service_ms=950.0), limit_ms=2000.0,
                         n_conns=2).passed


def test_tail_over_the_limit_fails():
    ph = loadgen.judge(_phase([5.0] * 85 + [500.0] * 15), limit_ms=100.0, n_conns=1)
    assert not ph.passed and ph.reason.startswith("tail")


def test_failures_fail_the_rung():
    ph = _phase([5.0] * 100)
    ph.requests[0].status = ph.requests[1].status = 503
    assert not loadgen.judge(ph, limit_ms=100.0, n_conns=1).passed


def test_ladder_plan_gives_the_first_rung_its_share():
    plan = loadgen.plan_ladder([8.0, 24.0, 72.0], 30.0, 0.4)
    assert plan == [(8.0, 12.0), (24.0, 9.0), (72.0, 9.0)]


# --------------------------------------------------------------------- #
# /metrics diffing
# --------------------------------------------------------------------- #
PROM_BEFORE = """# HELP serve_requests_total HTTP requests served
# TYPE serve_requests_total counter
serve_requests_total{code="200",route="/predict"} 10
serve_requests_total{code="200",route="/healthz"} 3
serve_request_seconds_sum 0.5
serve_request_seconds_count 13
"""
PROM_AFTER = """serve_requests_total{code="200",route="/predict"} 25
serve_requests_total{code="503",route="/predict"} 2
serve_requests_total{code="200",route="/healthz"} 3
serve_request_seconds_sum 0.8
serve_request_seconds_count 30
"""


def test_metrics_diff_counts_new_label_sets_from_zero():
    d = loadgen.diff_metrics(loadgen.parse_prometheus(PROM_BEFORE),
                             loadgen.parse_prometheus(PROM_AFTER))
    assert loadgen.metric_sum(d, "serve_requests_total", route="/predict") == 17
    assert loadgen.metric_sum(d, "serve_requests_total", code="503") == 2
    assert loadgen.metric_sum(d, "serve_requests_total", route="/healthz") == 0
    assert loadgen.metric_sum(d, "serve_request_seconds_sum") == pytest.approx(0.3)
    assert loadgen.metric_sum(d, "serve_request_seconds_count") == 17
    assert loadgen.metric_sum(d, "no_such_metric") == 0


# --------------------------------------------------------------------- #
# tracer: wrapping, attribution and missing targets
# --------------------------------------------------------------------- #
@pytest.fixture
def fake_modules(monkeypatch):
    lib = types.ModuleType("pb_fake_lib")

    def inner(x):
        sleep(0.01)
        return x

    def outer(x):
        return lib.inner(x) + 1

    class Model:
        def fit(self, x):
            return self

        @classmethod
        def load(cls):
            return cls()

    lib.inner, lib.outer, lib.Model, lib.unused = inner, outer, Model, lambda: None
    user = types.ModuleType("pb_fake_user")
    user.outer = outer  # as if `from pb_fake_lib import outer`
    monkeypatch.setitem(sys.modules, "pb_fake_lib", lib)
    monkeypatch.setitem(sys.modules, "pb_fake_user", user)
    return lib, user


def test_wrapped_calls_nest_and_are_patched_at_from_import_copies(fake_modules):
    lib, user = fake_modules
    tr = Tracer()
    assert tr.wrap("outer", "pb_fake_lib:outer")
    assert tr.wrap("inner", "pb_fake_lib:inner")
    assert tr.wrap("fit", "pb_fake_lib:Model.fit")
    assert tr.wrap("load", "pb_fake_lib:Model.load")
    t0 = tr.begin()
    assert user.outer(1) == 2
    assert isinstance(lib.Model.load().fit(0), lib.Model)
    sleep(0.01)
    rec = tr.end(t0)
    tr.unwrap_all()
    assert user.outer is lib.outer and not hasattr(user.outer, "__wrapped__")
    assert rec.layer_s["inner"] >= 0.009
    assert rec.layer_self_s["outer"] < rec.layer_s["outer"]
    assert set(rec.layer_s) == {"outer", "inner", "fit", "load"}
    assert rec.top_level_s == pytest.approx(
        rec.layer_s["outer"] + rec.layer_s["fit"] + rec.layer_s["load"])
    assert rec.unattributed_s >= 0.009


def test_inactive_tracer_records_nothing(fake_modules):
    lib, _ = fake_modules
    tr = Tracer()
    tr.wrap("inner", "pb_fake_lib:inner")
    lib.inner(1)
    assert tr.fired == {}


def test_gone_and_silent_targets_are_reported_missing_not_zero(fake_modules):
    tr = Tracer()
    assert not tr.wrap("gone_module", "pb_no_such_module:f")
    assert not tr.wrap("gone_attr", "pb_fake_lib:renamed_away")
    assert tr.wrap("silent", "pb_fake_lib:unused")
    assert tr.wrap("inner", "pb_fake_lib:inner")
    ops = harness.closed_loop(0.0, lambda i: sys.modules["pb_fake_lib"].inner(i),
                              lambda i, r: None, tr)
    tr.unwrap_all()
    expected = {"gone_module", "gone_attr", "silent", "inner"}
    missing = tr.missing(expected)
    assert set(missing) == {"gone_module", "gone_attr", "silent"}
    assert missing["silent"] == "never fired"
    values, missing2 = harness.layer_values(tr, ops, None, expected)
    assert missing2 == missing
    assert values["trace.missing_targets"] == 3.0


def test_closed_loop_alternates_traced_and_untraced_ops(fake_modules):
    tr = Tracer()
    tr.wrap("inner", "pb_fake_lib:inner")
    seen = []
    ops = harness.closed_loop(0.1, lambda i: sys.modules["pb_fake_lib"].inner(i),
                              lambda i, r: seen.append(r), tr)
    tr.unwrap_all()
    assert seen == list(range(len(seen))) and len(seen) >= 4
    assert len(ops.traced) == (len(seen) + 1) // 2
    assert len(ops.untraced) == len(seen) // 2
