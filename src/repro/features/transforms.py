"""Feature scaling and skew-reducing transforms (paper §III).

The paper applies a natural-log transform to every feature "to manage the
highly skewed nature of the data and reduce the input scale", and reports
testing min-max and Box-Cox scaling without benefit.  All of those are
implemented here with a common fit/transform/inverse interface so the
ablations can swap them freely; :class:`TransformChain` composes them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.validation import check_2d, check_fitted

__all__ = [
    "Log1pTransform",
    "MinMaxScaler",
    "StandardScaler",
    "BoxCoxScaler",
    "TransformChain",
    "IdentityTransform",
]


class IdentityTransform:
    """No-op transform (the control arm of scaling ablations)."""

    def fit(self, X: np.ndarray) -> "IdentityTransform":
        check_2d(X)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return check_2d(X)

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        return check_2d(X)

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class Log1pTransform:
    """Natural-log transform ``log(1 + x)`` applied columnwise.

    ``log1p`` rather than ``log`` because most engineered features (queue
    counts, resource sums) are legitimately zero; negative inputs raise.
    """

    def fit(self, X: np.ndarray) -> "Log1pTransform":
        X = check_2d(X)
        if np.any(X < 0):
            raise ValueError("Log1pTransform requires non-negative inputs")
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = check_2d(X)
        if np.any(X < 0):
            raise ValueError("Log1pTransform requires non-negative inputs")
        return np.log1p(X)

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        return np.expm1(check_2d(X))

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class MinMaxScaler:
    """Columnwise rescale to ``[0, 1]`` on the fitted range.

    Constant columns map to 0.  Out-of-range values at transform time are
    allowed (deployment sees values outside the training range) and simply
    fall outside ``[0, 1]``.
    """

    def __init__(self) -> None:
        self.data_min_: np.ndarray | None = None
        self.data_range_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "MinMaxScaler":
        X = check_2d(X)
        self.data_min_ = X.min(axis=0)
        rng = X.max(axis=0) - self.data_min_
        rng[rng == 0.0] = 1.0
        self.data_range_ = rng
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "data_min_")
        X = check_2d(X)
        return (X - self.data_min_) / self.data_range_

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "data_min_")
        X = check_2d(X)
        return X * self.data_range_ + self.data_min_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class StandardScaler:
    """Columnwise standardisation to zero mean, unit variance."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = check_2d(X)
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "mean_")
        X = check_2d(X)
        return (X - self.mean_) / self.scale_

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "mean_")
        X = check_2d(X)
        return X * self.scale_ + self.mean_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class BoxCoxScaler:
    """Columnwise Box-Cox power transform with per-column fitted λ.

    Box-Cox requires strictly positive inputs, so each column is shifted by
    ``1 - min`` first (recorded for the inverse).  The paper tried this and
    found no benefit over the plain log transform; it is kept for the
    scaling ablation.
    """

    def __init__(self) -> None:
        self.lambdas_: np.ndarray | None = None
        self.shifts_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "BoxCoxScaler":
        # Deferred: importing scipy.stats costs ~0.5 s, and only the
        # scaling ablation fits a Box-Cox scaler.
        from scipy import stats as sps

        X = check_2d(X)
        n_features = X.shape[1]
        self.lambdas_ = np.zeros(n_features)
        self.shifts_ = np.zeros(n_features)
        for j in range(n_features):
            col = X[:, j]
            shift = 1.0 - col.min() if col.min() <= 0 else 0.0
            shifted = col + shift
            if np.allclose(shifted, shifted[0]):
                lam = 1.0  # constant column: identity power
            else:
                _, lam = sps.boxcox(shifted)
            self.shifts_[j] = shift
            self.lambdas_[j] = lam
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "lambdas_")
        X = check_2d(X)
        out = np.empty_like(X)
        for j in range(X.shape[1]):
            shifted = X[:, j] + self.shifts_[j]
            if np.any(shifted <= 0):
                raise ValueError(
                    f"column {j} not positive after fitted shift; Box-Cox "
                    "cannot transform values below the training minimum"
                )
            lam = self.lambdas_[j]
            if abs(lam) < 1e-12:
                out[:, j] = np.log(shifted)
            else:
                out[:, j] = (shifted**lam - 1.0) / lam
        return out

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "lambdas_")
        X = check_2d(X)
        out = np.empty_like(X)
        for j in range(X.shape[1]):
            lam = self.lambdas_[j]
            if abs(lam) < 1e-12:
                shifted = np.exp(X[:, j])
            else:
                shifted = np.power(np.maximum(lam * X[:, j] + 1.0, 1e-300), 1.0 / lam)
            out[:, j] = shifted - self.shifts_[j]
        return out

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class TransformChain:
    """Compose transforms left to right; inverse runs right to left."""

    def __init__(self, steps: Sequence[object]) -> None:
        self.steps = list(steps)

    def fit(self, X: np.ndarray) -> "TransformChain":
        for step in self.steps:
            X = step.fit(X).transform(X)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        for step in self.steps:
            X = step.transform(X)
        return X

    def inverse_transform(self, X: np.ndarray) -> np.ndarray:
        for step in reversed(self.steps):
            X = step.inverse_transform(X)
        return X

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        for step in self.steps:
            X = step.fit(X).transform(X)
        return X
