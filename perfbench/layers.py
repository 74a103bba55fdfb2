"""The per-layer metrics, the public functions they time, and the map to
the end-to-end metric each should move.

Every traced run reports every metric below.  A layer a workload does not
exercise by design reads 0; a layer it should exercise whose wrap target is
gone or never fired is listed as missing (and counted in
``trace.missing_targets``) instead.
"""

from __future__ import annotations

from perfbench.tracer import Tracer

# name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "workload.generate_s": ("s", "lower"),
    "slurm.run_s": ("s", "lower"),
    "slurm.passes": ("count", "lower"),
    "data.swf_write_s": ("s", "lower"),
    "data.swf_read_s": ("s", "lower"),
    "core.runtime_fit_s": ("s", "lower"),
    "core.runtime_predict_s": ("s", "lower"),
    "features.compute_s": ("s", "lower"),
    "features.snapshots_s": ("s", "lower"),
    "features.user_history_s": ("s", "lower"),
    "features.rows": ("count", "lower"),
    "features.rss_delta_mb": ("MB", "lower"),
    "nn.classifier_fit_s": ("s", "lower"),
    "nn.regressor_fit_s": ("s", "lower"),
    "nn.epochs": ("count", "lower"),
    "core.model_load_s": ("s", "lower"),
    "core.model_save_s": ("s", "lower"),
    "core.predict_s": ("s", "lower"),
    "serve.handle_ms": ("ms", "lower"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.batch_size_mean": ("count", "higher"),
    "serve.wire_ms": ("ms", "lower"),
    "serve.conn_wait_ms": ("ms", "lower"),
    "serve.shed": ("count", "lower"),
    "serve.generator_late_ms": ("ms", "lower"),
    "serve.ready_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.missing_targets": ("count", "lower"),
}

# Layers timed by wrapping a public function: layer -> "module:attr".
WRAP_TARGETS: dict[str, str] = {
    "workload.generate_s": "repro.workload.generator:generate_trace",
    "slurm.run_s": "repro.slurm.simulator:Simulator.run",
    "data.swf_write_s": "repro.data.swf:write_swf",
    "data.swf_read_s": "repro.data.swf:read_swf",
    "core.runtime_fit_s": "repro.core.runtime_model:RuntimePredictor.fit",
    "core.runtime_predict_s": "repro.core.runtime_model:RuntimePredictor.predict_minutes",
    "features.compute_s": "repro.features.pipeline:FeaturePipeline.compute",
    "features.snapshots_s": "repro.features.snapshots:partition_snapshots",
    "features.user_history_s": "repro.features.user_history:user_past_day",
    "nn.classifier_fit_s": "repro.core.classifier:QuickStartClassifier.fit",
    "nn.regressor_fit_s": "repro.core.regressor:QueueTimeRegressor.fit",
    "core.model_load_s": "repro.core.hierarchical:TroutModel.load",
    "core.model_save_s": "repro.core.hierarchical:TroutModel.save",
    "core.predict_s": "repro.core.hierarchical:TroutModel.predict",
}

# Layers reported as self time: generate_trace minus the Simulator.run
# it calls is workload generation proper.
SELF_TIME = {"workload.generate_s"}

# Peak RSS growth across one layer's calls: metric -> layer.
RSS_OF = {"features.rss_delta_mb": "features.compute_s"}


def _passes(tracer: Tracer, result) -> None:
    tracer.count("slurm.passes", result.n_scheduler_passes)


def _rows(tracer: Tracer, result) -> None:
    tracer.count("features.rows", len(result))


def _epochs(tracer: Tracer, result) -> None:
    tracer.count("nn.epochs", len(result.net_.history.epochs))


ON_RETURN = {
    "slurm.run_s": _passes,
    "features.compute_s": _rows,
    "nn.classifier_fit_s": _epochs,
    "nn.regressor_fit_s": _epochs,
}


def install(tracer: Tracer) -> None:
    """Wrap every target; unresolvable ones are recorded on the tracer."""
    for layer, target in WRAP_TARGETS.items():
        tracer.wrap(layer, target, ON_RETURN.get(layer))
