import numpy as np
import pytest

import tmest as tm
from tmest.core import DataError, stage_rng
from tmest.noise import (
    NoiseScheme,
    avg_noise_rate_from_r,
    build_transition,
    inject_noise,
)

from conftest import two_blob_dataset


def test_binary_transition_layout():
    t = build_transition(NoiseScheme("binary", e1=0.2, e2=0.4), 2)
    np.testing.assert_allclose(t.t, [[0.8, 0.2], [0.4, 0.6]])


def test_binary_scheme_validation():
    with pytest.raises(DataError):
        build_transition(NoiseScheme("binary", e1=0.6, e2=0.5), 2)
    with pytest.raises(DataError):
        build_transition(NoiseScheme("binary", e1=0.1, e2=0.1), 3)
    with pytest.raises(DataError):
        build_transition(NoiseScheme("binary", e1=-0.1, e2=0.1), 2)
    for k in (2.0, 2.5):  # never truncated, for either scheme
        for scheme in (NoiseScheme("binary", e1=0.1, e2=0.1),
                       NoiseScheme("dirichlet", avg_rate=0.2)):
            with pytest.raises(DataError, match=f"k must be an integer >= 2, got {k}"):
                build_transition(scheme, k)


def test_unknown_scheme():
    with pytest.raises(DataError):
        build_transition(NoiseScheme("uniform"), 2)


def test_avg_noise_rate_from_r():
    # r = sqrt(K-1) gives e = 0.5; larger r gives lower noise
    assert avg_noise_rate_from_r(1.0, 2) == pytest.approx(0.5)
    assert avg_noise_rate_from_r(2.0, 5) == pytest.approx(0.5)
    assert avg_noise_rate_from_r(4.0, 2) < avg_noise_rate_from_r(2.0, 2)
    with pytest.raises(DataError):
        avg_noise_rate_from_r(0.0, 2)


@pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf])
def test_avg_noise_rate_from_r_rejects_non_finite_r(r):
    with pytest.raises(DataError, match=f"need a finite r > 0 and K >= 2, got r={r!r}"):
        avg_noise_rate_from_r(r, 3)


@pytest.mark.parametrize("kind,field,k", [("binary", "e1", 2), ("binary", "e2", 2),
                                          ("dirichlet", "avg_rate", 3)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_scheme_rejects_non_finite_rates(kind, field, k, value):
    # before any draw: a NaN rate used to fail only after 100 dirichlet draws
    with pytest.raises(DataError, match=f"^{field} must be finite, got {value!r}$"):
        build_transition(NoiseScheme(kind, **{field: value}), k)


@pytest.mark.parametrize("k,avg", [(3, 0.2), (5, 0.35), (10, 0.5)])
def test_dirichlet_rows_valid_and_dominant(k, avg):
    for seed in range(5):
        t = build_transition(NoiseScheme("dirichlet", avg_rate=avg, seed=seed), k)
        np.testing.assert_allclose(t.t.sum(axis=1), np.ones(k), atol=1e-9)
        assert np.all(t.t >= 0)
        for i in range(k):
            off = np.delete(t.t[i], i)
            assert t.t[i, i] > off.max()
            # diagonal stays inside the jitter band around 1 - avg
            assert abs((1 - t.t[i, i]) - avg) <= 0.05 + 1e-12


def test_dirichlet_rate_bounds():
    # too high for dominance at this K
    with pytest.raises(DataError):
        build_transition(NoiseScheme("dirichlet", avg_rate=0.62), 3)
    # jitter could push the rate negative
    with pytest.raises(DataError):
        build_transition(NoiseScheme("dirichlet", avg_rate=0.01), 3)


def test_dirichlet_deterministic_in_seed():
    a = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=4), 4)
    b = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=4), 4)
    c = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=5), 4)
    np.testing.assert_array_equal(a.t, b.t)
    assert not np.array_equal(a.t, c.t)


def test_inject_noise_empirical_rates():
    data = two_blob_dataset(0, n=60_000)
    t = build_transition(NoiseScheme("binary", e1=0.2, e2=0.4), 2)
    noisy = inject_noise(data, t, seed=7)
    flips0 = (noisy.noisy_labels[data.clean_labels == 0] == 1).mean()
    flips1 = (noisy.noisy_labels[data.clean_labels == 1] == 0).mean()
    assert flips0 == pytest.approx(0.2, abs=0.01)
    assert flips1 == pytest.approx(0.4, abs=0.01)
    # clean labels retained, features untouched
    np.testing.assert_array_equal(noisy.clean_labels, data.clean_labels)
    np.testing.assert_array_equal(noisy.features, data.features)


def test_inject_noise_deterministic():
    data = two_blob_dataset(1, n=500)
    t = build_transition(NoiseScheme("binary", e1=0.3, e2=0.1), 2)
    a = inject_noise(data, t, seed=3)
    b = inject_noise(data, t, seed=3)
    c = inject_noise(data, t, seed=4)
    np.testing.assert_array_equal(a.noisy_labels, b.noisy_labels)
    assert not np.array_equal(a.noisy_labels, c.noisy_labels)


def test_inject_noise_multiclass_empirical():
    rng = np.random.default_rng(2)
    n, k = 90_000, 3
    clean = rng.integers(0, k, n)
    data = tm.Dataset(rng.normal(size=(n, 2)), clean, k, clean_labels=clean)
    t = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=0), k)
    noisy = inject_noise(data, t, seed=1)
    for i in range(k):
        rows = noisy.noisy_labels[clean == i]
        emp = np.bincount(rows, minlength=k) / rows.size
        np.testing.assert_allclose(emp, t.t[i], atol=0.015)


@pytest.mark.parametrize("k", [2, 3, 10])
def test_inject_noise_matches_per_class_searchsorted(k):
    rng = np.random.default_rng(k)
    n = 20_000
    clean = rng.integers(0, k, n)
    data = tm.Dataset(rng.normal(size=(n, 2)), clean, k, clean_labels=clean)
    dirichlet = build_transition(NoiseScheme("dirichlet", avg_rate=(k - 1) / (2 * k), seed=k), k)
    # the identity has cumulative-sum ties at 0 and 1
    for t, seed in [(dirichlet, 0), (dirichlet, 1), (tm.TransitionMatrix(k, np.eye(k)), 2)]:
        # reference: one searchsorted per clean class on the same uniform draws
        u = stage_rng(seed, "noise").random(n)
        cum = np.cumsum(t.t, axis=1)
        ref = np.empty(n, dtype=np.int64)
        for i in range(k):
            ref[clean == i] = np.searchsorted(cum[i], u[clean == i], side="right")
        np.testing.assert_array_equal(inject_noise(data, t, seed=seed).noisy_labels,
                                      np.minimum(ref, k - 1))


def test_inject_noise_requires_clean_labels():
    rng = np.random.default_rng(3)
    data = tm.Dataset(rng.normal(size=(10, 2)), rng.integers(0, 2, 10), 2)
    t = build_transition(NoiseScheme("binary", e1=0.1, e2=0.1), 2)
    with pytest.raises(DataError):
        inject_noise(data, t)


def test_inject_noise_k_mismatch():
    data = two_blob_dataset(4, n=20)
    t = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=0), 3)
    with pytest.raises(DataError):
        inject_noise(data, t)
