"""Weighted (soft) cosine similarity and exact 2-nearest-neighbor retrieval.

The 2-NN search is brute force, O(N^2 d), and its neighbor sets are those of
float64 scores, exact and deterministic.  Each distinct feature row is
weighted and normalized once, so all copies of a row share one unit row.  A
float32 pass scores a block of at most `_CHUNK` query rows against every row
with one matrix product and masks each row's own entry with -inf.  One
grouped pass then narrows each row to a few candidate columns that hold its
top three scores (`_top3_candidates`), and two masked ``argmax`` passes and a
``max`` over those give the three.  Its first two are kept when both margins
beat a proven bound on the float32 rounding error (`_score_bound`).  The
other rows (near ties, and copies, which tie) are searched again in float64
against the distinct rows only.  Equal float64 similarities break toward the
lower row index, and copies of a row tie by construction.  Score blocks hold
at most `_CHUNK` rows and `_BUFFER_BYTES` bytes.  Rows with zero weighted norm
have no defined similarity; they are left out both as queries and as
candidates.
"""

from dataclasses import dataclass

import numpy as np

from .core import DataError, _freeze

_CHUNK = 128                # most query rows per score block
_GROUPS = 8                 # members of each column group in `_top3_candidates`
_BUFFER_BYTES = 128 << 20   # most bytes per score block


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


def _block_rows(width, itemsize):
    """Query rows per score block: at most `_CHUNK`, and at most `_BUFFER_BYTES`."""
    return max(1, min(_CHUNK, _BUFFER_BYTES // (itemsize * width)))


def _score_bound(d):
    """Bound on |s32 - s64| for float64 unit rows a, b of dimension d.

    s32 is a . b scored in float32 from fl32(a) and fl32(b) in any summation
    order, s64 the same product scored in float64.  With u = 2^-24 (float32)
    and v = 2^-53 (float64) unit roundoff, and gamma_n(u) = n u / (1 - n u):

    * The rows are x / sqrt(fl(sum x^2)), so ||a||, ||b|| <= 1 + e with
      e = gamma_{d+2}(v): the squared norm is off by gamma_d(v), the square
      root and the division by one rounding each.
    * Input rounding: fl32(a) = a + da with |da| <= u |a|, so
      |fl32(a) . fl32(b) - a . b| <= (2u + u^2) sum |a_k b_k|
      <= (2u + u^2)(1 + e)^2 by Cauchy-Schwarz.
    * Accumulation: a dot product of length d in any order is off by at most
      gamma_d times sum |a_k b_k| (Higham, Accuracy and Stability of Numerical
      Algorithms, 2002, eq. 3.5): gamma_d(u)(1 + u)^2 (1 + e)^2 for the
      float32 rows and gamma_d(v)(1 + e)^2 for s64.
    * Underflow: float32 rounding of an input or a product is off by at most
      2^-150 absolutely beyond the relative bound, d 2^-148 in all.

    The sum of these terms bounds |s32 - a . b| + |a . b - s64|.  It is
    infinite when d u >= 1.  For d = 40 it is about 2.5e-6.
    """
    def gamma(n, r):
        return n * r / (1 - n * r)

    u, v = 2.0 ** -24, 2.0 ** -53
    if d * u >= 1:
        return np.inf
    e = gamma(d + 2, v)
    return ((2 * u + u * u + gamma(d, u) * (1 + u) ** 2 + gamma(d, v)) * (1 + e) ** 2
            + d * 2.0 ** -148)


def _row_hash(bits):
    """A 64-bit multiply-add hash of each row of a uint64 array (wrapping)."""
    mult = np.random.default_rng(0).integers(2 ** 64, size=bits.shape[1], dtype=np.uint64)
    return bits @ (mult | np.uint64(1))


def _distinct_rows(x):
    """Group the bitwise-identical rows of x, reading -0.0 as 0.0.

    Returns (first, inverse): the lowest row of each group, in increasing
    order, and the group of each row, so groups are numbered by their lowest
    row.  Rows are grouped by a hash of their bytes with a 1-D ``np.unique``;
    the groups are then checked bit for bit, and on a hash collision the rows
    are grouped exactly by ``np.unique(axis=0)``.
    """
    bits = np.ascontiguousarray(x + 0.0).view(np.uint64)
    _, first, inverse = np.unique(_row_hash(bits), return_index=True, return_inverse=True)
    if not np.array_equal(bits[first[inverse]], bits):
        _, first, inverse = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return np.sort(first), rank[inverse.ravel()]


def _lowest_members(inverse, groups):
    """(groups, 3) array of the three lowest rows of each group, -1 past its size."""
    members = np.argsort(inverse, kind="stable")
    counts = np.bincount(inverse, minlength=groups)
    starts = np.cumsum(counts) - counts
    low = np.full((groups, 3), -1, dtype=np.int64)
    for k in range(3):
        has = counts > k
        low[has, k] = members[starts[has] + k]
    return low


def _exact_2nn(unit, inverse, redo):
    """Float64 2-NN of the rows `redo`, under the lower-index rule.

    `unit` holds the distinct unit rows and row i is a copy of
    unit[inverse[i]].  Each distinct query row is scored against the distinct
    rows only, and two masked ``argmax`` passes over the other groups give
    the best two, ties going to the lower group and so to the lower lowest
    row.  A row's neighbors are then the best two of five candidates, by
    score and then by row: the two lowest other rows of its own group, the two
    lowest rows of the best other group and the lowest row of the second.
    Every copy of a row is one column here, so copies tie by construction.
    """
    low = _lowest_members(inverse, unit.shape[0])
    own = inverse[redo]
    query, at = np.unique(own, return_inverse=True)
    self_score = np.empty(query.size)
    best = np.empty((query.size, 2), dtype=np.int64)
    score = np.empty((query.size, 2))
    step = _block_rows(unit.shape[0], 8)
    buf = np.empty((min(step, query.size), unit.shape[0]))
    for start in range(0, query.size, step):
        stop = min(start + step, query.size)
        g = query[start:stop]
        sims = np.matmul(unit[g], unit.T, out=buf[:stop - start])
        q = np.arange(stop - start)
        self_score[start:stop] = sims[q, g]
        sims[q, g] = -np.inf
        for k in range(2):
            best[start:stop, k] = sims.argmax(axis=1)
            score[start:stop, k] = sims[q, best[start:stop, k]]
            sims[q, best[start:stop, k]] = -np.inf

    mates = low[own]
    mates = np.take_along_axis(mates, np.argsort(mates == redo[:, None], axis=1,
                                                 kind="stable"), axis=1)[:, :2]
    top, second = best[at, 0], best[at, 1]
    cand = np.column_stack([mates, low[top, 0], low[top, 1], low[second, 0]])
    cand_score = np.column_stack([self_score[at], self_score[at], score[at, 0],
                                  score[at, 0], score[at, 1]])
    cand_score[cand < 0] = -np.inf
    order = np.lexsort((cand, -cand_score))[:, :2]
    return np.take_along_axis(cand, order, axis=1)


def _top3_candidates(sims):
    """Columns of each row of `sims` among which lie the row's three largest values.

    The first 8m columns, m = width // 8, form m strided groups of 8: column j
    is in group j mod m.  One pass takes each group's maximum, and three
    masked ``argmax`` passes pick the three groups with the largest maxima.
    Their 24 members and the fewer than 8 columns past 8m are the candidates.
    Whatever the order of ties, the three largest values of a row lie among
    them: a value in any other group is at most each chosen group's maximum,
    and those are three distinct candidates.  Rows narrower than 24 columns
    keep every column.
    """
    b, width = sims.shape
    m = width // _GROUPS
    if m < 3:
        return np.broadcast_to(np.arange(width), (b, width))
    peak = sims[:, :_GROUPS * m].reshape(b, _GROUPS, m).max(axis=1)
    q = np.arange(b)
    best = np.empty((b, 3), dtype=np.intp)
    for k in range(3):
        j = peak.argmax(axis=1)
        # where every group left peaks at -inf, argmax may return a taken
        # group; any free group serves there, and one of groups 0-2 is free
        again = (best[:, :k] == j[:, None]).any(axis=1)
        if again.any():
            j[again] = np.argmin((best[again, :k, None] == np.arange(3)).any(axis=1), axis=1)
        best[:, k] = j
        peak[q, j] = -np.inf
    members = (best[:, :, None] + m * np.arange(_GROUPS)).reshape(b, 3 * _GROUPS)
    tail = np.broadcast_to(np.arange(_GROUPS * m, width), (b, width - _GROUPS * m))
    return np.concatenate([members, tail], axis=1)


def get_2nn_triplets(data, weights):
    """Exact 2-NN of every row under soft-cosine distance 1 - Sim_W.

    Returns the noisy-label triplets used by the consensus counter.  Each
    distinct feature row is weighted and normalized once, so copies of a row
    share one unit row.  A float32 pass scores each block of at most `_CHUNK`
    query rows against every row and masks each row's own entry.  One grouped
    pass (`_top3_candidates`) narrows each row to a few dozen candidate
    columns that hold its top three scores, and two masked ``argmax`` passes
    and a ``max`` over those give the three.  Its pair (first, second) is
    kept when both margins, first - second and second - third, exceed twice
    `_score_bound`: float64 scores then order the three the same way, and
    every other row below them.  Every other row, near ties and copies among
    them, is searched again in float64 by `_exact_2nn`.  Equal float64
    similarities break toward the lower row index.  Rows with zero weighted
    norm are excluded as queries and as candidates, so ``triplets.rows``
    lists the rows that were kept; fewer than 3 kept rows is an error.
    """
    x = data.features
    first, inverse = _distinct_rows(x)
    xw = _weighted_rows(x if first.size == x.shape[0] else x[first], weights)
    sq = np.einsum("ij,ij->i", xw, xw)
    keep = sq > 0
    rows = np.flatnonzero(keep[inverse])
    if rows.size < 3:
        raise DataError(f"need at least 3 rows with nonzero weighted norm for "
                        f"2-NN triplets, got {rows.size}")
    if not keep.all():
        xw, sq = xw[keep], sq[keep]
    unit = xw / np.sqrt(sq)[:, None]
    del xw
    inverse = (np.cumsum(keep) - 1)[inverse[rows]]

    n = rows.size
    x32 = unit.astype(np.float32)
    if unit.shape[0] < n:
        x32 = x32[inverse]
    margin = 2 * _score_bound(unit.shape[1])
    nearest = np.empty((n, 2), dtype=np.int64)
    sure = np.empty(n, dtype=bool)
    step = _block_rows(n, 4)
    buf = np.empty((min(step, n), n), dtype=np.float32)
    for start in range(0, n, step):
        stop = min(start + step, n)
        sims = np.matmul(x32[start:stop], x32.T, out=buf[:stop - start])
        q = np.arange(stop - start)
        sims[q, q + start] = -np.inf
        cols = _top3_candidates(sims)
        vals = np.take_along_axis(sims, cols, axis=1)
        top = np.empty((3, stop - start))
        for k in range(2):
            j = vals.argmax(axis=1)
            nearest[start:stop, k] = cols[q, j]
            top[k] = vals[q, j]
            vals[q, j] = -np.inf
        top[2] = vals.max(axis=1)
        sure[start:stop] = (top[0] - top[1] > margin) & (top[1] - top[2] > margin)
    del buf, sims, x32
    redo = np.flatnonzero(~sure)
    if redo.size:
        nearest[redo] = _exact_2nn(unit, inverse, redo)

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

