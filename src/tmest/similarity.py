"""Weighted (soft) cosine similarity and exact 2-nearest-neighbor retrieval.

The 2-NN search is brute force over the G distinct unit rows, O(G^2 d), and
its neighbor sets are those of float64 scores, exact and deterministic.
Every row is weighted and normalized once.  Rows with zero weighted norm
have no defined similarity; they are left out as queries and as candidates.
A copy is a row whose weighted unit row is bitwise equal to another's: an
exact duplicate, a power-of-two scaling, or a row that differs only on
zero-weight axes.  Other positive scalings are copies only where the float64
weighting and normalization round them to the same bits.  The copies of one
unit row form a group and share one score column.  A float32 pass scores
blocks of at most `_CHUNK` groups against every group; groups whose neighbor
slots those scores decide beyond a proven bound on the float32 rounding
error (`_score_bound`, `_sure`) keep them, and the rest (near ties) are
scored again in float64.  One expansion (`_expand`) then maps groups back to
rows: equal float64 similarities break toward the lower row index, and
copies tie by construction.  Score blocks hold at most `_CHUNK` rows and
`_BUFFER_BYTES` bytes.  The search returns a graph of row ids that holds no
labels; `NeighborTriplets.labels(y)` reads any label vector through it.
"""

from dataclasses import dataclass

import numpy as np

from .core import DataError, _array, _int_labels, _reals

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
        self.w = _reals(self.w, f"{self.form} weights")
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
        return "identity" if self.w is None else ("diagonal", "full")[_array(self.w).ndim != 1]


def _weighted_rows(features, weights):
    """Rows mapped so that plain inner products realize x^T W x'.

    Identity: x.  Diagonal: x * sqrt(w).  Full: x V sqrt(L), where
    W = V L V^T is the eigendecomposition of the PSD matrix W, summed by
    ``np.einsum`` in one order for every row (a BLAS product may round equal
    rows differently by their place in the block), so equal rows map to
    equal bits.
    """
    if weights.w is None:
        return features
    if weights.w.shape[0] != features.shape[-1]:
        raise DataError("weight size does not match the feature dimension")
    if weights.w.ndim == 1:
        return features * np.sqrt(weights.w)
    evals, evecs = np.linalg.eigh(weights.w)
    return np.einsum("ij,jk->ik", features, evecs * np.sqrt(np.maximum(evals, 0.0)))


def soft_cosine(x, x2, weights):
    """Cosine similarity under the quadratic form x^T W x'.

    Equals hard cosine for identity weights; requires two finite vectors of
    one length, both with strictly positive weighted norm.
    """
    x, x2 = _reals(x, "x", frozen=False), _reals(x2, "x2", frozen=False)
    if x.ndim != 1 or x.shape != x2.shape:
        raise DataError(f"need two vectors of one length, got shapes {x.shape} and {x2.shape}")
    a, b = _weighted_rows(np.array([x, x2]), weights)
    n1, n2 = a @ a, b @ b
    if n1 <= 0 or n2 <= 0:
        raise DataError("degenerate vector under W")
    return float(a @ b / np.sqrt(n1 * n2))


@dataclass
class NeighborTriplets:
    """A 2-NN graph: each query row's id and the ids of its two nearest rows."""

    rows: np.ndarray        # (M,) int: query row ids
    indices: np.ndarray     # (M, 2) int: row ids of the two neighbors

    def __post_init__(self):
        self.rows = _int_labels(self.rows, "row ids")
        self.indices = _int_labels(self.indices, "neighbor indices")
        if self.rows.ndim != 1 or self.indices.shape != (self.rows.size, 2):
            raise DataError("need one (row id, index pair) per query row")
        if np.any(self.indices == self.rows[:, None]) \
                or np.any(self.indices[:, 0] == self.indices[:, 1]):
            raise DataError("neighbor indices must be distinct from the row and each other")

    def labels(self, y):
        """(M, 3) labels (y_n, y_n1, y_n2) of each query row and its neighbors, read from y."""
        y, ids = _array(y), np.column_stack([self.rows, self.indices])
        if y.ndim != 1 or (ids.size and ids.max() >= y.size):
            raise DataError(f"need one label per row id of the graph, got shape {y.shape}")
        return y[ids]


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
    every other row of a group is then checked bit for bit against its lowest
    row, and on a hash collision the rows are grouped exactly by
    ``np.unique(axis=0)``.
    """
    bits = np.ascontiguousarray(x + 0.0).view(np.uint64)
    _, first, inverse = np.unique(_row_hash(bits), return_index=True, return_inverse=True)
    lowest = first[inverse]
    copy = lowest != np.arange(lowest.size)
    if not np.array_equal(bits[lowest[copy]], bits[copy]):
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


def _best_groups(x, queries, narrow):
    """Each query group's self score, best two other groups and top three scores.

    Rows of x are the distinct unit rows.  A group's own column gives its self
    score and is then masked.  Two masked ``argmax`` passes and a ``max`` give
    the rest: with `narrow` over the columns `_top3_candidates` keeps, else
    full width, so that ties go to the lower group and so the lower row.
    """
    self_score = np.empty(queries.size)
    best = np.empty((queries.size, 2), dtype=np.int64)
    top = np.empty((queries.size, 3))
    step = _block_rows(x.shape[0], x.itemsize)
    buf = np.empty((min(step, queries.size), x.shape[0]), dtype=x.dtype)
    for start in range(0, queries.size, step):
        stop = min(start + step, queries.size)
        g = queries[start:stop]
        sims = np.matmul(x[g], x.T, out=buf[:stop - start])
        q = np.arange(stop - start)
        self_score[start:stop] = sims[q, g]
        sims[q, g] = -np.inf
        cols = _top3_candidates(sims) if narrow else None
        vals = sims if cols is None else np.take_along_axis(sims, cols, axis=1)
        for k in range(2):
            j = vals.argmax(axis=1)
            best[start:stop, k] = j if cols is None else cols[q, j]
            top[start:stop, k] = vals[q, j]
            vals[q, j] = -np.inf
        top[start:stop, 2] = vals.max(axis=1)
    return self_score, best, top


def _sure(self_score, best, top, counts, margin):
    """Groups whose scores decide both neighbor slots of every member.

    A member's candidates form entries: its own copies at the self score, with
    counts - 1 slots; the best other group at top[:, 0], with its size in
    slots; the second at top[:, 1]; and top[:, 2], which no other group
    exceeds.  Sorted by score, the first entry fills both neighbor slots if it
    has two slots, else the first two entries fill one each.  A group is sure
    when each filling entry beats the next by more than `margin`.

    Sound for float32 scores at margin = 2 * `_score_bound`: each float32
    score is within the bound of its float64 score, and no group past the
    entries scores above top[:, 2] in float32 (`_top3_candidates` gives the
    exact top three).  So in float64 too each filling entry strictly beats
    every later entry and every other group, and the first beats the second:
    the same entries fill the slots in the same order, and within an entry
    the lower-index rule takes the same rows whichever scores feed `_expand`.
    """
    score = np.column_stack([np.where(counts > 1, self_score, -np.inf), top])
    order = np.argsort(-score, axis=1, kind="stable")
    score = np.take_along_axis(score, order, axis=1)
    # top is sorted, so the first entry is the own copies or the best group
    slots = np.where(order[:, 0] == 0, counts - 1, counts[best[:, 0]])
    with np.errstate(invalid="ignore"):  # -inf - -inf past the last group
        beats = score[:, :2] - score[:, 1:3] > margin
    return beats[:, 0] & ((slots > 1) | beats[:, 1])


def _expand(inverse, self_score, best, top):
    """Each row's two neighbors from its group's self score and best two groups.

    Row i is a copy of group inverse[i].  Its neighbors are the best two, by
    score and then by row, of the three lowest rows of its own group (row i
    itself masked), the two lowest rows of the best other group and the
    lowest row of the second.  At least two candidates are other rows with
    finite scores, so the -inf entries past the last group are never taken.
    """
    low = _lowest_members(inverse, self_score.size)
    cand = np.column_stack([low, low[best[:, 0], :2], low[best[:, 1], :1]])[inverse]
    score = np.repeat(np.column_stack([self_score, top[:, :2]]), [3, 2, 1], axis=1)[inverse]
    score[(cand < 0) | (cand == np.arange(inverse.size)[:, None])] = -np.inf
    order = np.lexsort((cand, -score))[:, :2]
    return np.take_along_axis(cand, order, axis=1)


def get_2nn_triplets(data, weights):
    """Exact 2-NN of every row under soft-cosine distance 1 - Sim_W.

    Returns the neighbor graph of row ids; ``graph.labels(y)`` reads any
    label vector through it.  Rows with zero weighted norm are excluded as
    queries and as candidates, so ``graph.rows`` lists the rows that were
    kept; fewer than 3 kept rows is an error.  The kept rows are normalized
    and grouped by their unit rows (`_distinct_rows`).  A float32 pass over
    the groups (`_best_groups`) gives each its self score, best two other
    groups and top three scores.  Groups that `_sure` cannot settle from
    these, within twice `_score_bound`, are scored again in float64;
    `_expand` then maps every group back to its rows.
    """
    xw = _weighted_rows(data.features, weights)
    sq = np.einsum("ij,ij->i", xw, xw)
    rows = np.flatnonzero(sq > 0)
    if rows.size < 3:
        raise DataError(f"need at least 3 rows with nonzero weighted norm for "
                        f"2-NN triplets, got {rows.size}")
    unit = xw[rows]
    del xw
    unit /= np.sqrt(sq[rows])[:, None]
    first, inverse = _distinct_rows(unit)
    unit = unit[first]

    self_score, best, top = _best_groups(unit.astype(np.float32), np.arange(first.size), True)
    sure = _sure(self_score, best, top, np.bincount(inverse), 2 * _score_bound(unit.shape[1]))
    redo = np.flatnonzero(~sure)
    self_score[redo], best[redo], top[redo] = _best_groups(unit, redo, False)
    return NeighborTriplets(rows, rows[_expand(inverse, self_score, best, top)])


def clusterability_rate(data, weights):
    """Fraction of query rows whose two nearest neighbors share the row's clean label."""
    if data.clean_labels is None:
        raise DataError("clusterability requires clean labels")
    c = get_2nn_triplets(data, weights).labels(data.clean_labels)
    return float(((c[:, 1] == c[:, 0]) & (c[:, 2] == c[:, 0])).mean())
