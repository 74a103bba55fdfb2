"""Scaling transforms: round trips, invariants, error paths."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.features.transforms import (
    BoxCoxScaler,
    IdentityTransform,
    Log1pTransform,
    MinMaxScaler,
    StandardScaler,
    TransformChain,
)

finite_matrix = arrays(
    np.float64,
    st.tuples(st.integers(2, 30), st.integers(1, 6)),
    elements=st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
)


@given(X=finite_matrix)
@settings(max_examples=40, deadline=None)
def test_log1p_roundtrip(X):
    t = Log1pTransform()
    Xt = t.fit_transform(X)
    np.testing.assert_allclose(t.inverse_transform(Xt), X, rtol=1e-9, atol=1e-6)
    assert np.all(Xt >= 0)


def test_log1p_rejects_negative():
    with pytest.raises(ValueError):
        Log1pTransform().fit_transform(np.array([[-1.0]]))


@given(X=finite_matrix)
@settings(max_examples=40, deadline=None)
def test_minmax_range_and_roundtrip(X):
    t = MinMaxScaler()
    Xt = t.fit_transform(X)
    assert Xt.min() >= -1e-12 and Xt.max() <= 1 + 1e-12
    np.testing.assert_allclose(t.inverse_transform(Xt), X, rtol=1e-9, atol=1e-6)


def test_minmax_constant_column():
    X = np.full((5, 2), 3.0)
    Xt = MinMaxScaler().fit_transform(X)
    assert np.all(Xt == 0.0)


@given(X=finite_matrix)
@settings(max_examples=40, deadline=None)
def test_standard_scaler_moments(X):
    t = StandardScaler()
    Xt = t.fit_transform(X)
    # Moment guarantees only hold for columns whose spread is well above
    # float-rounding scale; near-constant columns divide cancellation noise
    # by a noise-level std.
    scale = max(1.0, float(np.abs(X).max()))
    stds = X.std(axis=0)
    varying = stds > 1e-7 * scale
    np.testing.assert_allclose(Xt.mean(axis=0)[varying], 0.0, atol=1e-7)
    np.testing.assert_allclose(Xt.std(axis=0)[varying], 1.0, atol=1e-7)
    np.testing.assert_allclose(t.inverse_transform(Xt), X, rtol=1e-8, atol=1e-5)


def test_boxcox_roundtrip_skewed():
    rng = np.random.default_rng(0)
    X = rng.lognormal(0, 1.5, size=(200, 3))
    t = BoxCoxScaler()
    Xt = t.fit_transform(X)
    np.testing.assert_allclose(t.inverse_transform(Xt), X, rtol=1e-6)
    # Transform reduces skew.
    from scipy.stats import skew

    assert abs(skew(Xt[:, 0])) < abs(skew(X[:, 0]))


def test_boxcox_handles_zeros_and_constants():
    X = np.column_stack([np.arange(10.0), np.full(10, 5.0)])
    t = BoxCoxScaler()
    Xt = t.fit_transform(X)
    assert np.all(np.isfinite(Xt))
    np.testing.assert_allclose(t.inverse_transform(Xt), X, rtol=1e-6, atol=1e-8)


def test_boxcox_rejects_below_training_min():
    t = BoxCoxScaler().fit(np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError, match="Box-Cox"):
        t.transform(np.array([[-5.0]]))


def test_unfitted_raises():
    for cls in (MinMaxScaler, StandardScaler, BoxCoxScaler):
        with pytest.raises(RuntimeError):
            cls().transform(np.ones((2, 2)))


def test_chain_composes_and_inverts():
    rng = np.random.default_rng(0)
    X = rng.lognormal(0, 1, size=(100, 4))
    chain = TransformChain([Log1pTransform(), StandardScaler()])
    Xt = chain.fit_transform(X)
    np.testing.assert_allclose(Xt.mean(axis=0), 0.0, atol=1e-8)
    np.testing.assert_allclose(chain.inverse_transform(Xt), X, rtol=1e-8)


def test_identity_transform():
    X = np.ones((3, 2))
    t = IdentityTransform()
    np.testing.assert_array_equal(t.fit_transform(X), X)
    np.testing.assert_array_equal(t.inverse_transform(X), X)


def test_cli_import_does_not_load_scipy_stats():
    """``scipy.stats`` (~0.5 s to import) loads only when a Box-Cox scaler
    is fitted, so every ``trout`` start, ``trout serve`` included, skips
    it."""
    code = (
        "import sys\n"
        "import repro.cli.main\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'\n"
        "from repro.features.transforms import BoxCoxScaler\n"
        "import numpy as np\n"
        "BoxCoxScaler().fit(np.arange(1.0, 9.0).reshape(4, 2))\n"
        "assert 'scipy.stats' in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
