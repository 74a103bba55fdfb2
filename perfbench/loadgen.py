"""Open-loop HTTP load over persistent connections, a rate ladder, and
``/metrics`` diffing.

Every request has a due time fixed before the phase starts, replayed
from a trace's submissions.  A generator thread hands each request over at its
due time to a shared queue; at most ``n_conns`` worker threads, each
holding one keep-alive HTTP/1.1 connection, send them.  A request's
latency runs from its due time to its response, so time spent waiting for
a busy connection — the cost a stalled server imposes on later requests
— is counted.  How late the generator itself handed requests over is
recorded separately: a late generator invalidates the phase, not the
server.
"""

from __future__ import annotations

import http.client
import json
import math
import queue
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Callable

import numpy as np

from perfbench.stats import Tail, tail

ABANDONED = -2
# Connection-busy share above which a phase's backlog cannot drain.
MAX_BUSY = 0.9
RESPONSE_FIELDS = ("long_wait", "message", "minutes", "model_version", "p_long", "request_id")


def replay_arrivals(
    submit_s: np.ndarray,
    rate: float,
    duration_s: float,
    segment: int = 25,
    intensity: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Due offsets in ``[0, duration_s)`` and trace indices for one rung.

    Replays ``round(rate * duration_s)`` submissions of a trace as a cross
    section: runs of ``segment`` consecutive submissions (long enough to
    keep most bursts whole) starting at evenly spaced points of the trace,
    with their order, bursts and gaps.  Gaps are read on a clock that ticks
    with ``intensity`` (the diurnal and weekly cycle the trace was
    generated with), so nights and weekends do not open holes in a rung,
    and are then scaled so that the arrivals fill the rung exactly: the
    rung holds one mean rate, with the trace's burst structure intact.
    The same trace and rung always give the same arrivals.  ``submit_s``
    must be sorted.
    """
    t = np.asarray(submit_s, dtype=np.float64)
    if intensity is not None:
        grid = np.linspace(t[0], t[-1], 8192)
        lam = intensity(grid)
        clock = np.concatenate([[0.0], np.cumsum(0.5 * (lam[1:] + lam[:-1]) * np.diff(grid))])
        t = np.interp(t, grid, clock)
    # The gap after the last submission, back to the first, is the mean.
    gaps = np.diff(t)
    gaps = np.append(gaps, gaps.mean() if len(gaps) else 1.0)
    n = max(int(round(rate * duration_s)), 1)
    k = -(-n // segment)
    runs = np.array_split(np.arange(n), k)
    idx = np.concatenate([len(t) * j // k + np.arange(len(r)) for j, r in enumerate(runs)])
    idx %= len(t)
    g = gaps[idx]
    offsets = np.concatenate([[0.0], np.cumsum(g[:-1])]) * (duration_s / g.sum())
    return offsets, idx


@dataclass
class Request:
    due: float
    body: bytes
    row: int
    handed: float = math.nan  # when the generator queued it
    sent: float = math.nan  # when a connection picked it up
    done: float = math.nan
    status: int = 0
    payload: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def attempted(self) -> bool:
        """False when the client gave up before sending (see ``abandon_ms``)."""
        return self.status != ABANDONED

    @property
    def latency_ms(self) -> float:
        """Due time to response; a failed request never meets any limit."""
        return (self.done - self.due) * 1e3 if self.ok else math.inf

    @property
    def service_ms(self) -> float:
        """Send to response: the time the connection was busy with it."""
        return (self.done - self.sent) * 1e3

    @property
    def client_wait_ms(self) -> float:
        """Due to send (or to abandonment): queueing for a free connection,
        plus generator lag."""
        return ((self.sent if self.attempted else self.done) - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.handed - self.due) * 1e3


@dataclass
class PhaseResult:
    rate: float
    duration_s: float
    requests: list[Request]
    growing_backlog: bool = False
    busy_share: float = 0.0
    tail: Tail | None = None
    passed: bool = False
    reason: str = ""
    metrics_delta: dict[str, float] = field(default_factory=dict)

    @property
    def n_failed(self) -> int:
        return sum(not r.ok for r in self.requests)

    def latencies_ms(self) -> list[float]:
        return [r.latency_ms for r in self.requests]


def run_phase(
    host: str,
    port: int,
    offsets: np.ndarray,
    rows: np.ndarray,
    bodies: list[bytes],
    n_conns: int,
    abandon_ms: float = math.inf,
    timeout_s: float = 5.0,
) -> list[Request]:
    """Drive one open-loop phase: request ``k`` carries ``bodies[rows[k]]``
    and is due ``offsets[k]`` seconds after the start.  Returns every
    request due.

    A request still waiting for a connection ``abandon_ms`` after its due
    time is dropped unsent, so an overloaded rung ends promptly; it counts
    as missing the latency limit.
    """
    t0 = perf_counter() + 0.05
    reqs = [Request(t0 + float(o), bodies[int(r)], int(r)) for o, r in zip(offsets, rows)]
    work: queue.Queue[Request | None] = queue.Queue()

    def sender() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
        try:
            while (req := work.get()) is not None:
                now = perf_counter()
                if (now - req.due) * 1e3 > abandon_ms:
                    req.done, req.status = now, ABANDONED
                    continue
                req.sent = now
                try:
                    conn.request(
                        "POST", "/predict", body=req.body,
                        headers={"Content-Type": "application/json"},
                    )
                    resp = conn.getresponse()
                    data = resp.read()
                    req.done = perf_counter()
                    req.status = resp.status
                    if resp.status == 200:
                        req.payload = json.loads(data)
                except (OSError, http.client.HTTPException, ValueError):
                    # Timeouts, resets and bad bodies are failures of this
                    # request; reconnect for the next one.
                    req.done = perf_counter()
                    req.status = -1
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
        finally:
            conn.close()

    workers = [threading.Thread(target=sender, daemon=True) for _ in range(n_conns)]
    for w in workers:
        w.start()
    for req in reqs:
        wait = req.due - perf_counter()
        if wait > 0:
            sleep(wait)
        req.handed = perf_counter()
        work.put(req)
    for _ in workers:
        work.put(None)
    for w in workers:
        w.join(timeout_s + 60.0)
        if w.is_alive():
            raise RuntimeError("load-generator connection thread did not finish")
    return reqs


def judge(
    phase: PhaseResult,
    limit_ms: float,
    n_conns: int,
    max_busy: float = MAX_BUSY,
    max_failed_share: float = 0.01,
) -> PhaseResult:
    """Pass when the tail meets the limit, failures stay rare and no backlog grows.

    A backlog grows when the requests held the ``n_conns`` connections for
    more than ``max_busy`` of the phase's duration: an open loop that
    cannot drain its queue falls further behind for as long as the rate
    holds.  The client-side wait is not compared over time, because
    replayed bursts make it rise and fall at any rate.
    """
    reqs = phase.requests
    phase.tail = tail(phase.latencies_ms())
    busy_s = sum(r.service_ms for r in reqs if r.attempted) / 1e3
    phase.busy_share = busy_s / (n_conns * phase.duration_s)
    phase.growing_backlog = phase.busy_share > max_busy
    if not reqs or phase.tail is None:
        phase.reason = f"too few requests ({len(reqs)}) for a tail"
    elif phase.n_failed > max_failed_share * len(reqs):
        phase.reason = f"{phase.n_failed}/{len(reqs)} requests failed"
    elif phase.tail.value > limit_ms:
        phase.reason = f"tail {phase.tail.value:.1f} ms ({phase.tail.label()}) > {limit_ms:g} ms"
    elif phase.growing_backlog:
        phase.reason = f"backlog grows: connections busy {phase.busy_share:.0%} of the phase"
    else:
        phase.passed = True
        phase.reason = "ok"
    return phase


def plan_ladder(rates: list[float], seconds: float, first_share: float) -> list[tuple[float, float]]:
    """(rate, duration) per rung: the lowest rung gets ``first_share`` of
    the run, the others split the rest evenly."""
    first = seconds * first_share
    rest = (seconds - first) / max(len(rates) - 1, 1)
    return [(rate, first if i == 0 else rest) for i, rate in enumerate(rates)]


# ---------------------------------------------------------------------- #
# /metrics (Prometheus text) parsing and diffing
# ---------------------------------------------------------------------- #
def parse_prometheus(text: str) -> dict[str, float]:
    """``{'name{labels}': value}`` for every sample line."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            out[key] = float(value)
        except ValueError:
            continue
    return out


def diff_metrics(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Per-sample change over a phase; samples new in ``after`` count from 0."""
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def metric_sum(delta: dict[str, float], name: str, **labels: str) -> float:
    """Sum a diffed metric over every label set matching ``labels``."""
    total = 0.0
    for key, value in delta.items():
        base, _, rest = key.partition("{")
        if base != name:
            continue
        if all(f'{k}="{v}"' in rest for k, v in labels.items()):
            total += value
    return total


def scrape(host: str, port: int, timeout_s: float = 5.0) -> dict[str, float]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        text = resp.read().decode("utf-8")
    finally:
        conn.close()
    if resp.status != 200:
        raise RuntimeError(f"/metrics answered {resp.status}")
    return parse_prometheus(text)
