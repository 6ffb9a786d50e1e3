"""Feature decorrelation via eigendecomposition of the sample second moment.

Features are centered, projected onto the eigenbasis of their covariance and
rescaled per-axis so the transformed data has identity covariance (denominator
N, matching the second-moment convention).
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import DataError, _freeze, _reals

EIGEN_FLOOR = 1e-10


@dataclass
class WhiteningTransform:
    """Centering + rotation + per-axis rescaling, possibly rank-truncated.

    eigenvectors is d x r with orthonormal columns; eigenvalues are the
    corresponding positive variances, sorted descending.
    """

    mean: np.ndarray
    eigenvectors: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        self.mean = _reals(self.mean, "mean")
        self.eigenvectors = _reals(self.eigenvectors, "eigenvectors")
        self.eigenvalues = _reals(self.eigenvalues, "eigenvalues")
        if self.eigenvectors.shape != (self.d, self.r):
            raise DataError("eigenvector matrix must be d x r")
        if self.eigenvalues.shape != (self.r,):
            raise DataError("need one eigenvalue per retained direction")
        if np.any(self.eigenvalues <= 0):
            raise DataError("retained eigenvalues must be strictly positive")
        if np.any(np.diff(self.eigenvalues) > 0):
            raise DataError("eigenvalues must be sorted descending")
        gram = self.eigenvectors.T @ self.eigenvectors
        if np.max(np.abs(gram - np.eye(self.r))) > 1e-8:
            raise DataError("eigenvector columns must be orthonormal")

    @property
    def d(self):
        return self.mean.shape[0]

    @property
    def r(self):
        return self.eigenvalues.shape[0]

    def project(self, x):
        """Map raw feature rows (…, d) to whitened coordinates (…, r).

        The rotation is summed by ``np.einsum`` in one order for every row (a
        BLAS product may round equal rows differently by their place in the
        block), so equal rows map to equal bits.
        """
        x = _reals(x, "x", frozen=False)
        if x.shape[-1] != self.d:
            raise DataError(f"dimension mismatch: transform expects d={self.d}")
        return (np.einsum("...j,jk->...k", x - self.mean, self.eigenvectors)
                / np.sqrt(self.eigenvalues))


def fit_whitening(data):
    """Eigendecompose the covariance of the dataset's (centered) features.

    Directions whose eigenvalue falls below EIGEN_FLOOR * lambda_max are
    dropped; they carry no variance worth keeping and would blow up the
    1/sqrt(lambda) rescaling.
    """
    x = data.features
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / x.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    if evals[0] <= 0:
        raise DataError("all feature directions have zero variance")
    keep = evals > EIGEN_FLOOR * evals[0]
    evals, evecs = evals[keep], evecs[:, keep]
    # fix eigenvector signs for reproducibility: largest-|.| component positive
    flip = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(evecs.shape[1])] < 0
    evecs = evecs * np.where(flip, -1.0, 1.0)
    return WhiteningTransform(mean, evecs, evals)


def apply_whitening(transform, data):
    """Replace the dataset's features by their whitened coordinates, handed
    over read-only so the dataset need not copy them."""
    return replace(data, features=_freeze(transform.project(data.features)))
