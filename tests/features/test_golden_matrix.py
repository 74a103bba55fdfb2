"""Golden-matrix regression lock.

A fixed-seed simulated trace is featurised and the SHA-256 of the exact
bytes of the Table II matrix is compared against a checked-in digest.  Any
silent numeric drift in featurisation — a reordered reduction, a changed
default, an accidental dtype change — fails loudly here, whereas metric-
level tests could quietly absorb it.

A second digest covers the float32 view of the ``par_*`` columns.  It was
pinned on the interval-tree engine and the sweep-line engine reproduces it:
the engines differ in the float64 columns by ≤ 6e-15 relative, never in
what a float32 model sees.

If a deliberate featurisation change lands, regenerate the digests with::

    PYTHONPATH=src python -c "
    import hashlib
    import numpy as np
    from repro.workload import WorkloadConfig, generate_trace
    from repro.features.names import FEATURE_NAMES
    from repro.features.pipeline import FeaturePipeline
    r, c = generate_trace(WorkloadConfig(n_jobs=2000, seed=42, load=0.4,
                                         cluster_scale=0.05))
    fm = FeaturePipeline(c).compute(r.jobs)
    par = [j for j, n in enumerate(FEATURE_NAMES) if n.startswith('par_')]
    print(hashlib.sha256(fm.X.tobytes()).hexdigest())
    print(hashlib.sha256(fm.queue_time_min.tobytes()).hexdigest())
    print(hashlib.sha256(fm.X[:, par].astype(np.float32).tobytes()).hexdigest())"

and bump :data:`repro.features.cache.CACHE_VERSION`.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.features.names import FEATURE_NAMES
from repro.features.pipeline import FeaturePipeline
from repro.workload import WorkloadConfig, generate_trace

GOLDEN_X_SHA256 = "30537caf318198b6fbbe3e3b06300340c5e1a5a7b056088046bd436446fff50a"
GOLDEN_Q_SHA256 = "3c8eb759f1bcf22895fced0f1a5bb70d9857491bf2925d8a3790e43eedbe91d1"
GOLDEN_PAR_F32_SHA256 = "2982d81f805915e93d9c82944d499612d6c1cacd4b3319d3946857e618601de5"


@pytest.fixture(scope="module")
def golden_matrix():
    result, cluster = generate_trace(
        WorkloadConfig(n_jobs=2000, seed=42, load=0.4, cluster_scale=0.05)
    )
    return FeaturePipeline(cluster).compute(result.jobs)


def test_golden_matrix_serial(golden_matrix):
    fm = golden_matrix
    assert fm.X.shape == (2000, 33)
    assert hashlib.sha256(fm.X.tobytes()).hexdigest() == GOLDEN_X_SHA256, (
        "feature matrix bytes drifted"
    )
    assert hashlib.sha256(fm.queue_time_min.tobytes()).hexdigest() == GOLDEN_Q_SHA256, (
        "queue-time target bytes drifted"
    )


def test_golden_par_columns_float32(golden_matrix):
    par = [j for j, name in enumerate(FEATURE_NAMES) if name.startswith("par_")]
    view = golden_matrix.X[:, par].astype(np.float32)
    assert hashlib.sha256(view.tobytes()).hexdigest() == GOLDEN_PAR_F32_SHA256, (
        "float32 view of the partition-state columns drifted"
    )
