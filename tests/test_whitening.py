import numpy as np
import pytest

import tmest as tm
from tmest.core import DataError
from tmest.infotheory import build_weights, estimate_fmi_per_dim
from tmest.similarity import get_2nn_triplets
from tmest.whitening import WhiteningTransform, apply_whitening, fit_whitening

from conftest import exact_cov_features


def _dataset(x):
    return tm.Dataset(x, np.zeros(x.shape[0], dtype=int), 2)


def test_axis_aligned_covariance():
    rng = np.random.default_rng(0)
    x = exact_cov_features(rng, 500, [4.0, 1.0])
    w = fit_whitening(_dataset(x))
    np.testing.assert_allclose(w.eigenvalues, [4.0, 1.0], atol=1e-9)
    # eigenvectors axis-aligned up to sign
    np.testing.assert_allclose(np.abs(w.eigenvectors), np.eye(2), atol=1e-9)
    z = w.project(x)
    np.testing.assert_allclose(z.var(axis=0), [1.0, 1.0], atol=1e-9)


def test_identity_covariance_passthrough():
    rng = np.random.default_rng(1)
    x = exact_cov_features(rng, 400, [1.0, 1.0, 1.0])
    w = fit_whitening(_dataset(x))
    z = w.project(x)
    cov = z.T @ z / z.shape[0]
    np.testing.assert_allclose(cov, np.eye(3), atol=1e-9)
    # Z must be the centered X up to an orthogonal change of basis
    xc = x - x.mean(axis=0)
    q = np.linalg.lstsq(xc, z, rcond=None)[0]
    np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-8)


def test_constant_column_dropped():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 3))
    x = np.hstack([x, np.full((200, 1), 7.0)])
    w = fit_whitening(_dataset(x))
    assert w.r == 3


def test_all_zero_variance_errors():
    x = np.ones((10, 2))
    with pytest.raises(DataError, match="zero variance"):
        fit_whitening(_dataset(x))


@pytest.mark.parametrize("scale", [1e160, 1e307])
def test_overflowing_moments_error(scale):
    # at 1e160 the covariance overflows, at 1e307 the mean's sum does too
    x = (1.0 + np.random.default_rng(4).random((50, 3))) * scale
    with pytest.raises(DataError, match="^the features' mean or covariance overflows"):
        fit_whitening(_dataset(x))


def test_held_out_row_matches_dense_product():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(300, 5)) @ rng.normal(size=(5, 5))
    w = fit_whitening(_dataset(x))
    held = rng.normal(size=5)
    expected = np.diag(1 / np.sqrt(w.eigenvalues)) @ w.eigenvectors.T @ (held - w.mean)
    np.testing.assert_allclose(w.project(held), expected, atol=1e-12)
    assert w.project(held).shape == (w.r,)


def test_hand_case_diag_4_1():
    rng = np.random.default_rng(4)
    x = exact_cov_features(rng, 256, [4.0, 1.0])
    w = fit_whitening(_dataset(x))
    z = w.project(w.mean + np.array([2.0, 1.0]))
    np.testing.assert_allclose(np.abs(z), [1.0, 1.0], atol=1e-9)


def test_apply_whitening_dimension_mismatch():
    rng = np.random.default_rng(5)
    w = fit_whitening(_dataset(rng.normal(size=(50, 3))))
    with pytest.raises(DataError, match="dimension mismatch"):
        w.project(np.zeros(4))


@pytest.mark.parametrize("seed", range(20))
def test_fitting_set_covariance_is_identity(seed):
    rng = np.random.default_rng(seed)
    n, d = 5000, int(rng.integers(2, 101))
    x = rng.normal(size=(n, d)) @ rng.normal(size=(d, d)) + rng.normal(size=d)
    data = _dataset(x)
    z = apply_whitening(fit_whitening(data), data).features
    cov = z.T @ z / n
    assert np.max(np.abs(cov - np.eye(z.shape[1]))) <= 1e-6
    # pairwise correlations vanish
    corr = np.corrcoef(z, rowvar=False)
    off = corr - np.diag(np.diag(corr))
    assert np.max(np.abs(off)) <= 1e-6


def test_labels_carried_through():
    rng = np.random.default_rng(7)
    data = tm.Dataset(rng.normal(size=(30, 3)), rng.integers(0, 2, 30), 2,
                      clean_labels=rng.integers(0, 2, 30))
    out = apply_whitening(fit_whitening(data), data)
    np.testing.assert_array_equal(out.noisy_labels, data.noisy_labels)
    np.testing.assert_array_equal(out.clean_labels, data.clean_labels)


def test_eigenvector_sign_convention():
    # refits on identical data give identical transforms
    rng = np.random.default_rng(9)
    x = rng.normal(size=(100, 6))
    w1 = fit_whitening(_dataset(x))
    w2 = fit_whitening(_dataset(x.copy()))
    np.testing.assert_array_equal(w1.eigenvectors, w2.eigenvectors)
    peak = np.argmax(np.abs(w1.eigenvectors), axis=0)
    assert np.all(w1.eigenvectors[peak, np.arange(w1.r)] > 0)


@pytest.mark.parametrize("mean,vecs,vals,message", [
    (np.zeros(2), np.eye(3), np.ones(3), "d x r"),
    (np.zeros(2), np.eye(2), [[1.0], [1.0]], "one eigenvalue per retained direction"),
    (np.zeros(2), np.eye(2), [1.0, 0.0], "strictly positive"),
    (np.zeros(2), np.eye(2), [1.0, 2.0], "sorted descending"),
    (np.zeros(2), [[1.0, 1.0], [0.0, 1.0]], [2.0, 1.0], "orthonormal"),
], ids=["vector-shape", "value-matrix", "zero-value", "ascending", "not-orthonormal"])
def test_transform_rejects_inconsistent_parts(mean, vecs, vals, message):
    with pytest.raises(DataError, match=message):
        WhiteningTransform(mean, vecs, vals)


@pytest.mark.parametrize("seed,n,d,distinct", [(3, 271, 33, 38), (6, 407, 19, 52)])
def test_whitened_copies_stay_copies(seed, n, d, distinct):
    # rows drawn from a few distinct rows, on which a BLAS product rounds some
    # copies differently by their place in the block: whitened copies must
    # stay bitwise equal, so their a-tv neighbors follow the lower-index rule
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(distinct, d)) * rng.uniform(0.1, 10.0, d)
    which = rng.integers(0, distinct, n)
    data = tm.Dataset(base[which], rng.integers(0, 2, n), 2)
    z = apply_whitening(fit_whitening(data), data).features
    first = np.unique(which, return_index=True)[1]
    np.testing.assert_array_equal(z, z[first[which]])
    weights = build_weights(estimate_fmi_per_dim(z, data.noisy_labels))
    trip = get_2nn_triplets(tm.Dataset(z, data.noisy_labels, 2), weights)
    # neighbors from one similarity per pair of distinct rows, stably sorted
    u = z[first] * np.sqrt(weights.w)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    sims = (u @ u.T)[which][:, which]
    np.fill_diagonal(sims, -np.inf)
    np.testing.assert_array_equal(trip.indices,
                                  np.argsort(-sims, axis=1, kind="stable")[:, :2])
