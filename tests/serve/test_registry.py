"""Registry fault injection: every bad publish leaves the current model
serving and bumps ``serve_reload_failures_total``; good publishes hot-swap
without dropping in-flight requests."""

from __future__ import annotations

import json
import shutil
import threading

import numpy as np
import pytest

from repro.core.classifier import QuickStartClassifier
from repro.core.config import ClassifierConfig, RegressorConfig
from repro.core.hierarchical import TroutModel
from repro.core.regressor import QueueTimeRegressor
from repro.nn import Sequential
from repro.serve import (
    ModelRegistry,
    PredictionService,
    RegistryError,
    ServeConfig,
    publish_model,
)
from repro.serve.registry import MANIFEST_NAME, artifact_fingerprint

from tests.serve.conftest import (
    N_FEATURES,
    feature_row,
    golden_model,
    metric_value,
)


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


def _service(registry: ModelRegistry) -> PredictionService:
    return PredictionService(
        registry.load_latest(),
        ServeConfig(max_batch=4, reload_interval_s=600.0),
        registry=registry,
    )


# --------------------------------------------------------------------- #
# publish / load round trip
# --------------------------------------------------------------------- #
def test_publish_assigns_sequential_versions(registry):
    assert publish_model(registry.root, golden_model()) == 1
    assert publish_model(registry.root, golden_model(7.0)) == 2
    assert registry.versions() == [1, 2]
    assert registry.latest_version() == 2


def test_load_roundtrip_preserves_model_and_manifest(registry):
    publish_model(registry.root, golden_model(), partitions=("shared", "gpu"))
    loaded = registry.load_latest()
    assert loaded.version == 1
    assert loaded.partitions == ("shared", "gpu")
    assert loaded.fingerprint == artifact_fingerprint(registry.version_dir(1))
    X = np.array([feature_row(0)])
    pred = loaded.model.predict(X)[0]
    assert pred.minutes == 42.0 and pred.p_long == 0.5


def test_empty_registry_refuses_to_load(registry):
    with pytest.raises(RegistryError, match="no published versions"):
        registry.load_latest()


def test_staging_dirs_are_invisible(registry):
    publish_model(registry.root, golden_model())
    (registry.root / ".staging-v0002").mkdir()
    (registry.root / "not-a-version").mkdir()
    assert registry.versions() == [1]


# --------------------------------------------------------------------- #
# fault injection: each corruption keeps the old model serving
# --------------------------------------------------------------------- #
def _corrupt_truncate(version_dir):
    target = version_dir / "regressor.npz"
    target.write_bytes(target.read_bytes()[: 100])


def _corrupt_half_written(version_dir):
    # Simulate a non-atomic publisher dying before the manifest write.
    (version_dir / MANIFEST_NAME).unlink()


def _corrupt_downgrade(version_dir):
    # A v0001 artifact copied over the new version dir wholesale: its
    # manifest still declares version 1.
    manifest = json.loads((version_dir / MANIFEST_NAME).read_text())
    manifest["version"] = 1
    (version_dir / MANIFEST_NAME).write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (_corrupt_truncate, "fingerprint mismatch"),
        (_corrupt_half_written, "half-written publish"),
        (_corrupt_downgrade, "downgrade/mismatch"),
    ],
    ids=["truncated-artifact", "missing-manifest", "version-downgrade"],
)
def test_bad_publish_keeps_current_model(registry, corrupt, match):
    publish_model(registry.root, golden_model())
    service = _service(registry)
    try:
        v2 = publish_model(registry.root, golden_model(7.0))
        corrupt(registry.version_dir(v2))
        with pytest.raises(RegistryError, match=match):
            registry.load(v2)

        assert service.poll_registry() is False
        assert service.current.version == 1
        assert metric_value("serve_reload_failures_total", reason="load") == 1.0
        # Still serving version 1's constant answer.
        _version, _fp, pred = service.batcher.submit(
            np.array(feature_row(3))
        ).wait(10.0)
        assert pred.minutes == 42.0
    finally:
        service.close()


def _wide_model(n_features: int) -> TroutModel:
    from tests.serve.conftest import _identity_scaler, _zero_dense

    clf = QuickStartClassifier(n_features, ClassifierConfig(threshold=0.5))
    clf.net_ = Sequential([_zero_dense(n_features, 1)])
    _identity_scaler(clf, n_features)
    reg = QueueTimeRegressor(n_features, RegressorConfig(log_target=False))
    reg.net_ = Sequential([_zero_dense(n_features, 1, bias=9.0)])
    _identity_scaler(reg, n_features)
    names = tuple(f"f{i}" for i in range(n_features))
    return TroutModel(clf, reg, cutoff_min=10.0, feature_names=names)


def test_feature_width_change_is_rejected(registry):
    publish_model(registry.root, golden_model())
    service = _service(registry)
    try:
        publish_model(registry.root, _wide_model(N_FEATURES + 1))
        assert service.poll_registry() is False
        assert service.current.version == 1
        assert (
            metric_value("serve_reload_failures_total", reason="shape") == 1.0
        )
    finally:
        service.close()


def test_failed_candidate_retried_after_repair(registry):
    publish_model(registry.root, golden_model())
    service = _service(registry)
    try:
        v2 = publish_model(registry.root, golden_model(7.0))
        broken = registry.version_dir(v2)
        backup = registry.root / "backup"
        shutil.copytree(broken, backup)
        _corrupt_truncate(broken)
        assert service.poll_registry() is False
        # Repair (re-copy the good artifact); the next poll succeeds.
        shutil.rmtree(broken)
        shutil.copytree(backup, broken)
        shutil.rmtree(backup)
        assert service.poll_registry() is True
        assert service.current.version == v2
    finally:
        service.close()


# --------------------------------------------------------------------- #
# hot reload under load
# --------------------------------------------------------------------- #
def test_hot_reload_does_not_drop_in_flight_requests(registry):
    publish_model(registry.root, golden_model(42.0))
    service = _service(registry)
    stop = threading.Event()
    minutes_seen: set[float] = set()
    errors: list[BaseException] = []

    def client() -> None:
        i = 0
        while not stop.is_set():
            try:
                _v, _fp, pred = service.batcher.submit(
                    np.array(feature_row(i % 7))
                ).wait(10.0)
                minutes_seen.add(pred.minutes)
            except BaseException as exc:
                errors.append(exc)
                return
            i += 1

    threads = [threading.Thread(target=client, daemon=True) for _ in range(4)]
    try:
        for t in threads:
            t.start()
        # Guarantee at least one pre-reload answer is on record.
        _v, _fp, pred = service.batcher.submit(np.array(feature_row(0))).wait(10.0)
        minutes_seen.add(pred.minutes)
        assert pred.minutes == 42.0
        # Publish + reload while traffic is flowing.
        publish_model(registry.root, golden_model(77.0))
        assert service.poll_registry() is True
        # Let post-reload traffic through, then stop.
        deadline_pred = service.batcher.submit(np.array(feature_row(1)))
        _v, _fp, pred = deadline_pred.wait(10.0)
        assert pred.minutes == 77.0
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)
        service.close()
    assert not errors  # nothing dropped or failed across the swap
    assert 42.0 in minutes_seen and 77.0 in minutes_seen
    assert metric_value("serve_reloads_total") == 1.0
    assert service.current.version == 2


def test_watcher_thread_polls_on_interval(registry):
    publish_model(registry.root, golden_model())
    service = PredictionService(
        registry.load_latest(),
        ServeConfig(max_batch=4, reload_interval_s=0.05),
        registry=registry,
    )
    try:
        publish_model(registry.root, golden_model(5.0))
        deadline = threading.Event()
        for _ in range(100):  # up to ~5 s for the watcher to pick it up
            if service.current.version == 2:
                break
            deadline.wait(0.05)
        assert service.current.version == 2
    finally:
        service.close()
