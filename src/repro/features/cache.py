"""On-disk feature-matrix cache.

Featurising the paper's 3.8 M-record trace is the dominant offline cost
(§V), yet every train/eval run used to recompute the full Table II matrix
from scratch.  :class:`FeatureCache` stores finished
:class:`~repro.features.pipeline.FeatureMatrix` objects on disk keyed by a
SHA-256 **content hash** of everything the matrix is a function of: the raw
trace records, the partition vocabulary, the pipeline configuration
(including the cluster's static specs) and the predicted-runtime vector.
Any change to any input changes the key, so entries never need explicit
invalidation — stale entries are simply never addressed again.

Robustness rules (all exercised by the failure-path tests):

- **atomic writes** — entries are written to a temp file in the cache
  directory and ``os.replace``-d into place, so a concurrent writer or a
  crash mid-write can never publish a half-written entry;
- **versioned invalidation** — every entry embeds :data:`CACHE_VERSION`;
  entries from an older layout are treated as misses;
- **corrupt-entry fallback** — the failures a bad entry can cause
  (truncation, bad bytes, missing or wrong arrays) are counted in
  :class:`CacheStats` (mirrored to telemetry) and answered with a
  recompute; anything outside that set is a bug and propagates.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data.schema import JobSet
from repro.features.pipeline import FeatureMatrix
from repro.obs import metrics
from repro.utils.logging import get_logger

__all__ = ["CACHE_VERSION", "CacheStats", "FeatureCache", "content_key"]

log = get_logger(__name__)

#: Bump whenever the on-disk entry layout or the featurisation semantics
#: change; older entries then read as misses and are recomputed.
CACHE_VERSION = 2


def content_key(
    jobs: JobSet,
    pred_runtime_min: np.ndarray,
    pipeline_signature: tuple,
) -> str:
    """SHA-256 key of everything a feature matrix depends on."""
    h = hashlib.sha256()
    h.update(f"v{CACHE_VERSION}".encode())
    h.update(repr(pipeline_signature).encode())
    h.update(repr(tuple(jobs.partition_names)).encode())
    h.update(np.ascontiguousarray(jobs.records).tobytes())
    h.update(np.ascontiguousarray(pred_runtime_min, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting, surfaced by ``eval.report`` and the benches.

    Each bump mirrors into the process-wide telemetry registry
    (``feature_cache_<event>_total``) so dashboards see cache behaviour
    without holding a reference to the cache object.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0  # corrupt / stale-version entries discarded
    store_failed: int = 0  # write attempts lost to I/O errors

    def bump(self, event: str, n: int = 1) -> None:
        setattr(self, event, getattr(self, event) + n)
        metrics.get_registry().counter(
            f"feature_cache_{event}_total",
            help="feature-cache events by outcome",
        ).inc(n)


class FeatureCache:
    """Content-addressed store of feature matrices under one directory.

    Parameters
    ----------
    root:
        Cache directory (created on first use).  One ``<key>.npz`` file per
        entry; safe to delete wholesale at any time.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise NotADirectoryError(
                f"feature cache root {self.root} exists and is not a directory"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        """The entry file a key addresses (whether or not it exists)."""
        return self.root / f"{key}.npz"

    def key_for(
        self,
        jobs: JobSet,
        pred_runtime_min: np.ndarray,
        pipeline_signature: tuple,
    ) -> str:
        """Convenience wrapper around :func:`content_key` (lets the pipeline
        stay import-free of this module)."""
        return content_key(jobs, pred_runtime_min, pipeline_signature)

    # ------------------------------------------------------------------ #
    # read / write
    # ------------------------------------------------------------------ #
    def load(self, key: str) -> FeatureMatrix | None:
        """Return the cached matrix for ``key``, or ``None`` to recompute.

        Never raises: a missing entry is a miss; a corrupt or stale-version
        entry is discarded, counted, and also reported as a miss.
        """
        path = self.path_for(key)
        if not path.exists():
            self.stats.bump("misses")
            return None
        try:
            with np.load(path, allow_pickle=False) as z:
                if int(z["version"]) != CACHE_VERSION:
                    raise ValueError(
                        f"stale cache version {int(z['version'])} "
                        f"(current {CACHE_VERSION})"
                    )
                fm = FeatureMatrix(
                    X=np.ascontiguousarray(z["X"], dtype=np.float64),
                    names=tuple(str(s) for s in z["names"]),
                    queue_time_min=np.ascontiguousarray(
                        z["queue_time_min"], dtype=np.float64
                    ),
                    log_transformed=bool(z["log_transformed"]),
                    cache_hit=True,
                )
            if fm.X.ndim != 2 or fm.X.shape[0] != len(fm.queue_time_min):
                raise ValueError("cached matrix shape is inconsistent")
        # Exactly the failures a bad entry can produce: truncated/corrupt
        # zip containers, missing or mistyped members, short reads.  A
        # TypeError or MemoryError here is a bug, not a bad entry — let it
        # propagate instead of silently recomputing forever.
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
            self.stats.bump("invalid")
            self.stats.bump("misses")
            log.warning("discarding unusable cache entry %s: %r", path.name, exc)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.bump("hits")
        return fm

    def store(self, key: str, fm: FeatureMatrix) -> None:
        """Atomically persist a matrix under ``key`` (best-effort).

        The entry is staged in a temp file in the cache directory and
        published with ``os.replace``, so concurrent writers of the same
        key race benignly: the file is always one writer's complete entry.
        Storage failures are logged, never raised.
        """
        path = self.path_for(key)
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(
                    fh,
                    version=np.int64(CACHE_VERSION),
                    X=np.ascontiguousarray(fm.X, dtype=np.float64),
                    names=np.array(fm.names),
                    queue_time_min=np.ascontiguousarray(
                        fm.queue_time_min, dtype=np.float64
                    ),
                    log_transformed=np.bool_(fm.log_transformed),
                )
            os.replace(tmp, path)
            self.stats.bump("stores")
        except OSError as exc:  # disk-full, permission flips, etc.
            self.stats.bump("store_failed")
            log.warning("failed to store cache entry %s: %r", path.name, exc)
            try:
                os.unlink(tmp)
            except OSError:
                pass
