"""Closed-loop op timing, per-layer aggregation and the result line."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Callable

from perfbench import layers
from perfbench.stats import median
from perfbench.tracer import OpRecord, Tracer

# The JSON `metrics` of an untraced run: (unit, better) per name, the same
# set on every workload.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_share": ("1", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "holdout_accuracy": ("1", "higher"),
    "holdout_mape": ("%", "lower"),
    "interval_miss_80": ("1", "lower"),
}


@dataclass
class Ops:
    """Durations of the measured ops, with traced records where taken."""

    durations: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    traced: list[OpRecord] = field(default_factory=list)
    untraced: list[float] = field(default_factory=list)


def closed_loop(
    seconds: float,
    op: Callable[[int], object],
    after: Callable[[int, object], None],
    tracer: Tracer | None = None,
    min_ops: int = 1,
) -> Ops:
    """Run ``op(i)`` back to back for about ``seconds`` of op time, and at
    least ``min_ops`` times.

    ``after(i, result)`` checks each op's output outside the timed region.
    A new op starts only if, at the median op time so far, the measured
    time would end within a quarter op of ``seconds``, so long ops neither
    overrun the run by a whole op nor get cut short.  With a tracer,
    even-numbered ops are traced and odd ones are not, so the tracing
    overhead is measured within the run.
    """
    ops = Ops()
    i = 0
    while True:
        if len(ops.durations) >= min_ops:
            typical = median(ops.durations)
            if sum(ops.durations) + typical > seconds + 0.25 * typical:
                break
        traced = tracer is not None and i % 2 == 0
        c0 = process_time()
        if traced:
            t0 = tracer.begin()
            try:
                result = op(i)
            finally:
                rec = tracer.end(t0)
            ops.traced.append(rec)
            ops.durations.append(rec.duration_s)
        else:
            t0 = perf_counter()
            result = op(i)
            d = perf_counter() - t0
            ops.durations.append(d)
            ops.untraced.append(d)
        ops.cpu.append(process_time() - c0)
        after(i, result)
        i += 1
    return ops


def layer_values(
    tracer: Tracer,
    ops: Ops,
    setup: OpRecord | None,
    expected: set[str],
) -> tuple[dict[str, float], dict[str, str]]:
    """Median per-op value of every wrapped layer and counter.

    A layer that fired only during set-up reports its set-up value.  Layers
    this workload does not exercise read 0; expected ones that are gone or
    never fired are returned as missing.
    """
    values: dict[str, float] = {}
    records = ops.traced
    for layer in [*layers.WRAP_TARGETS, "slurm.passes", "features.rows", "nn.epochs"]:
        attr = "layer_self_s" if layer in layers.SELF_TIME else "layer_s"
        if layer in layers.WRAP_TARGETS:
            per_op = [getattr(r, attr)[layer] for r in records if layer in r.layer_s]
            from_setup = setup is not None and layer in setup.layer_s
            fallback = getattr(setup, attr)[layer] if from_setup else 0.0
        else:
            per_op = [r.counts[layer] for r in records if layer in r.counts]
            fallback = setup.counts.get(layer, 0.0) if setup is not None else 0.0
        values[layer] = median(per_op) if per_op else fallback
    for metric, layer in layers.RSS_OF.items():
        per_op = [r.layer_rss_mb[layer] for r in records if layer in r.layer_rss_mb]
        values[metric] = max(per_op, default=0.0)
    missing = tracer.missing(expected)
    for layer in missing:
        values[layer] = 0.0
    if records:
        values["trace.unattributed_s"] = median(r.unattributed_s for r in records)
    if records and ops.untraced:
        traced_med = median(r.duration_s for r in records)
        values["trace.overhead_pct"] = 100.0 * (traced_med / median(ops.untraced) - 1.0)
    values["trace.missing_targets"] = float(len(missing))
    return values, missing


@dataclass
class Result:
    workload: str
    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, tuple[str, str]]
    notes: list[str] = field(default_factory=list)
    missing: dict[str, str] = field(default_factory=dict)

    def emit(self) -> None:
        """Human-readable lines, then the one-line JSON result last.

        A result exists only once every output check passed; a failed
        check aborts the run before this (see ``run.py``).
        """
        for note in self.notes:
            print(f"# {note}")
        for layer, why in self.missing.items():
            print(f"MISSING {layer}: {why}")
        for name, value in self.metrics.items():
            unit = self.units[name][0]
            print(f"{self.workload} {name} = {value:.6g} {unit}")
        doc = {
            "correct": True,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name][0]}
                for name, value in self.metrics.items()
            },
        }
        print(json.dumps(doc), flush=True)


def finish(
    workload: str,
    trace: bool,
    e2e: dict[str, float],
    per_layer: dict[str, float],
    attempted: int,
    failed: int,
    notes: list[str],
    missing: dict[str, str] | None = None,
) -> Result:
    """Select the metric set the run mode reports; fill unexercised layers with 0."""
    if trace:
        units = layers.PER_LAYER
        metrics = {name: float(per_layer.get(name, 0.0)) for name in units}
    else:
        units = END_TO_END
        metrics = {name: float(e2e[name]) for name in units}
    return Result(workload, attempted, failed, metrics, units, notes, missing or {})
