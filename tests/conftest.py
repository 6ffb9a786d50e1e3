"""Shared synthetic-data builders."""

import numpy as np
import pytest
from hypothesis import settings

import tmest as tm

# property tests draw the same examples on every run, so two runs of the
# suite (say, before and after a change) test the same inputs
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def two_blob_dataset(seed, n=1000, d_inf=4, d_noise=0, sep=2.0, noise_scale=1.0):
    """Two Gaussian blobs (classes 0/1) plus optional uninformative columns."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    x = np.empty((n, d_inf + d_noise))
    x[:, :d_inf] = np.where(y[:, None] == 0, -sep, sep) + rng.normal(size=(n, d_inf))
    if d_noise:
        x[:, d_inf:] = rng.normal(scale=noise_scale, size=(n, d_noise))
    return tm.Dataset(x, y, 2, clean_labels=y)


def binary_noisy_labels(rng, clean, e1, e2):
    """Flip binary labels with class-dependent rates."""
    u = rng.random(clean.shape[0])
    return np.where(clean == 0, np.where(u < e1, 1, 0), np.where(u < e2, 0, 1))


def exact_cov_features(rng, n, variances):
    """Data whose sample covariance (denominator N) is exactly diag(variances)."""
    d = len(variances)
    x = rng.normal(size=(n, d))
    x -= x.mean(axis=0)
    # whiten exactly, then scale each axis to the requested variance
    cov = x.T @ x / n
    evals, evecs = np.linalg.eigh(cov)
    x = x @ evecs / np.sqrt(evals)
    return x * np.sqrt(np.asarray(variances))


@pytest.fixture
def tmp_csv(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write
