"""Weighted (soft) cosine similarity and exact 2-nearest-neighbor retrieval.

The 2-NN search is brute force, O(N^2 d), so neighbor sets are exact and
deterministic.  It scores a chunk of query rows against every candidate with
one matrix product, masks each row's own entry with -inf and takes two
``argmax`` passes, masking the first winner before the second.  ``argmax``
returns the first maximum, so equal computed similarities break toward the
lower row index.  Copies of one row tie only when the matrix product scores
them bitwise-equal, which BLAS kernels do not promise: two copies can differ
by one ulp.  Rows with zero weighted norm have no defined similarity; they are
left out both as queries and as candidates.
"""

from dataclasses import dataclass

import numpy as np

from .core import DataError, _freeze

_CHUNK = 512


@dataclass
class SimilarityWeights:
    """Soft-cosine weight W, whose form follows `w`: None is the identity, a
    nonnegative vector a diagonal, a symmetric PSD square matrix full."""

    w: np.ndarray | None = None

    def __post_init__(self):
        if self.w is None:
            return
        self.w = _freeze(np.asarray(self.w, dtype=np.float64))
        if self.w.ndim == 1:
            if not np.all(self.w >= 0):
                raise DataError("diagonal weights must be a nonnegative vector")
            return
        if self.w.ndim != 2 or self.w.shape[0] != self.w.shape[1]:
            raise DataError(f"full weights must be a square matrix, got shape {self.w.shape}")
        if np.max(np.abs(self.w - self.w.T)) > 1e-9:
            raise DataError("full weight matrix must be symmetric")
        evals = np.linalg.eigvalsh(self.w)
        if evals[0] < -1e-9 * max(1.0, evals[-1]):
            raise DataError("full weight matrix must be positive semidefinite")

    @property
    def form(self):
        return "identity" if self.w is None else ("diagonal", "full")[self.w.ndim - 1]

    @classmethod
    def identity(cls):
        return cls()

    @classmethod
    def diagonal(cls, w):
        if np.ndim(w) != 1:
            raise DataError("diagonal weights must be a nonnegative vector")
        return cls(w)

    @classmethod
    def full(cls, mat):
        if np.ndim(mat) != 2:
            raise DataError("full weights must be a square matrix")
        return cls(mat)


def _weighted_rows(features, weights):
    """Rows mapped so that plain inner products realize x^T W x'.

    Identity: x.  Diagonal: x * sqrt(w).  Full: x V sqrt(L), where
    W = V L V^T is the eigendecomposition of the PSD matrix W.
    """
    if weights.w is None:
        return features
    if weights.w.shape[0] != features.shape[-1]:
        raise DataError("weight size does not match the feature dimension")
    if weights.w.ndim == 1:
        return features * np.sqrt(weights.w)
    evals, evecs = np.linalg.eigh(weights.w)
    return features @ (evecs * np.sqrt(np.maximum(evals, 0.0)))


def soft_cosine(x, x2, weights):
    """Cosine similarity under the quadratic form x^T W x'.

    Equals hard cosine for identity weights; requires both vectors to have
    strictly positive weighted norm.
    """
    a, b = _weighted_rows(np.array([x, x2], dtype=np.float64), weights)
    n1, n2 = a @ a, b @ b
    if n1 <= 0 or n2 <= 0:
        raise DataError("degenerate vector under W")
    return float(a @ b / np.sqrt(n1 * n2))


@dataclass
class NeighborTriplets:
    """For each query row: its noisy label and those of its two nearest rows."""

    labels: np.ndarray      # (M, 3) int: (y_n, y_n1, y_n2)
    indices: np.ndarray     # (M, 2) int: row ids of the two neighbors
    rows: np.ndarray | None = None  # (M,) int: query row ids; default 0..M-1

    def __post_init__(self):
        self.labels = _freeze(np.asarray(self.labels, dtype=np.int64))
        self.indices = _freeze(np.asarray(self.indices, dtype=np.int64))
        n = self.labels.shape[0]
        if self.rows is None:
            self.rows = np.arange(n)
        self.rows = _freeze(np.asarray(self.rows, dtype=np.int64))
        if self.labels.shape != (n, 3) or self.indices.shape != (n, 2) \
                or self.rows.shape != (n,):
            raise DataError("need one (label triple, index pair, row id) per row")
        if np.any(self.indices[:, 0] == self.rows) or np.any(self.indices[:, 1] == self.rows) \
                or np.any(self.indices[:, 0] == self.indices[:, 1]):
            raise DataError("neighbor indices must be distinct from the row and each other")

    @property
    def n(self):
        return self.labels.shape[0]


def get_2nn_triplets(data, weights):
    """Exact 2-NN of every row under soft-cosine distance 1 - Sim_W.

    Returns the noisy-label triplets used by the consensus counter.  For each
    chunk of query rows the similarities to all candidates are computed at
    once, into one buffer that every chunk reuses; the row's own entry is
    set to -inf, the first neighbor is the ``argmax``, and the second is the
    ``argmax`` after the first is set to -inf as well.  Equal similarities break toward the lower row index.
    Rows with zero weighted norm are excluded as queries and as candidates,
    so ``triplets.rows`` lists the rows that were kept; fewer than 3 kept
    rows is an error.
    """
    xw = _weighted_rows(data.features, weights)
    sq = np.einsum("ij,ij->i", xw, xw)
    rows = np.flatnonzero(sq > 0)
    if rows.size < 3:
        raise DataError(f"need at least 3 rows with nonzero weighted norm for "
                        f"2-NN triplets, got {rows.size}")
    if rows.size < xw.shape[0]:
        xw, sq = xw[rows], sq[rows]
    xw = xw / np.sqrt(sq)[:, None]

    n = rows.size
    nearest = np.empty((n, 2), dtype=np.int64)
    buf = np.empty((min(_CHUNK, n), n))
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        sims = np.matmul(xw[start:stop], xw.T, out=buf[:stop - start])
        q = np.arange(stop - start)
        sims[q, q + start] = -np.inf
        first = sims.argmax(axis=1)
        sims[q, first] = -np.inf
        nearest[start:stop, 0] = first
        nearest[start:stop, 1] = sims.argmax(axis=1)

    indices = rows[nearest]
    y = data.noisy_labels
    labels = np.column_stack([y[rows], y[indices[:, 0]], y[indices[:, 1]]])
    return NeighborTriplets(labels, indices, rows)


def clusterability_rate(data, weights):
    """Fraction of query rows whose two nearest neighbors share the row's clean label."""
    if data.clean_labels is None:
        raise DataError("clusterability requires clean labels")
    trip = get_2nn_triplets(data, weights)
    c = data.clean_labels
    own = c[trip.rows]
    ok = (c[trip.indices[:, 0]] == own) & (c[trip.indices[:, 1]] == own)
    return float(ok.mean())

