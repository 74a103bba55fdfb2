"""Feature engineering (paper §III, Table II).

Submodules:

- :mod:`repro.features.interval_tree` — centred interval trees with fully
  vectorised batched stabbing queries and a naive baseline: the A1 bench's
  reference for the paper's interval-tree claim, and test oracles.
- :mod:`repro.features.snapshots` — partition queue / running /
  higher-priority ("ahead") aggregates at each job's eligibility instant,
  as sweep-line prefix sums.
- :mod:`repro.features.user_history` — per-user past-day aggregates.
- :mod:`repro.features.fixed_point` — exact int64 accumulation behind
  both aggregate blocks.
- :mod:`repro.features.static_specs` — partition/cluster specification
  features.
- :mod:`repro.features.transforms` — log1p, min-max, standard and Box-Cox
  scaling.
- :mod:`repro.features.pipeline` — assembles the full Table II matrix.
- :mod:`repro.features.cache` — content-addressed on-disk store of
  finished feature matrices.
"""

from repro.features.cache import CacheStats, FeatureCache
from repro.features.interval_tree import IntervalTree, naive_stab_batch
from repro.features.names import FEATURE_NAMES, feature_index
from repro.features.pipeline import FeatureMatrix, FeaturePipeline
from repro.features.transforms import (
    BoxCoxScaler,
    Log1pTransform,
    MinMaxScaler,
    StandardScaler,
    TransformChain,
)

__all__ = [
    "IntervalTree",
    "naive_stab_batch",
    "FEATURE_NAMES",
    "feature_index",
    "FeaturePipeline",
    "FeatureMatrix",
    "FeatureCache",
    "CacheStats",
    "Log1pTransform",
    "MinMaxScaler",
    "StandardScaler",
    "BoxCoxScaler",
    "TransformChain",
]
