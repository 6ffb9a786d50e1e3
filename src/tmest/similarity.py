"""Weighted (soft) cosine similarity and exact 2-nearest-neighbor retrieval.

W is the identity or a diagonal w, one weight per feature dimension, as
the pipeline builds it from the per-dimension scores.  The
neighbor count m is one constant, `_NEIGHBORS` = 2: HOC's triplet is a row
and its two nearest rows.  The search is brute force over the G distinct
unit rows, O(G^2 d), and its neighbor sets are those of float64 scores,
exact and deterministic.  Every row is weighted (x * sqrt(w)) and
normalized once, by `_unit_rows`, which `soft_cosine` shares; rows are first
scaled by powers of two, so no squared norm overflows or underflows at any
finite row scale.  Rows with zero weighted norm have no defined similarity;
they are left out as queries and as candidates.  A copy is a row whose
weighted unit row is bitwise equal to another's: an exact duplicate, a
power-of-two scaling, or a row that differs only on zero-weight axes.
Other positive scalings are copies only where the float64 weighting and
normalization round them to the same bits.  The copies of one unit row form
a group and share one score column.  A float32 pass scores blocks of at
most `_CHUNK` groups against every group and gives each group an entry
table of m + 2 (group, score) entries: the group itself at its self score,
then its best m + 1 other groups.  Groups whose entries decide the m
neighbor slots beyond a proven bound on the float32 rounding error
(`_score_bound`, `_sure`) keep them, and the rest (near ties) are scored
again in float64.  One expansion (`_expand`) then maps groups back to rows:
equal float64 similarities break toward the lower row index, and copies tie
by construction.  Score blocks hold at most `_CHUNK` rows and
`_BUFFER_BYTES` bytes.  The search returns a graph of row ids that holds no
labels; `NeighborTriplets.labels(y)` reads any label vector through it.
"""

from dataclasses import dataclass

import numpy as np

from .core import DataError, _array, _int_labels, _reals

_NEIGHBORS = 2              # neighbor slots of each query row
_CHUNK = 128                # most query rows per score block
_GROUPS = 8                 # members of each column group in `_top_candidates`
_BUFFER_BYTES = 128 << 20   # most bytes per score block


@dataclass
class SimilarityWeights:
    """Soft-cosine weight W = diag(w): None is the identity, else `w` is a
    nonnegative vector."""

    w: np.ndarray | None = None

    def __post_init__(self):
        if self.w is None:
            return
        self.w = _reals(self.w, "diagonal weights")
        if self.w.ndim != 1:
            raise DataError(f"diagonal weights must be a vector, got shape {self.w.shape}")
        if not np.all(self.w >= 0):
            raise DataError("diagonal weights must be a nonnegative vector")


def soft_cosine(x, x2, weights):
    """Cosine similarity under the quadratic form x^T W x': the dot product of
    the two weighted unit rows (`_unit_rows`) that the 2-NN search scores.

    Equals hard cosine for identity weights; requires two finite vectors of
    one length, both with strictly positive weighted norm.
    """
    x, x2 = _reals(x, "x", frozen=False), _reals(x2, "x2", frozen=False)
    if x.ndim != 1 or x.shape != x2.shape:
        raise DataError(f"need two vectors of one length, got shapes {x.shape} and {x2.shape}")
    rows, unit = _unit_rows(np.stack([x, x2]), weights)
    if rows.size < 2:
        raise DataError("degenerate vector under W")
    return float(unit[0] @ unit[1])


def _scaled(a):
    """Scale each row of a, in place, by a power of two that puts its squared
    norm in [1/4, 1) where that norm is finite and normal, else its largest
    |entry| in [1/2, 1); a zero row stays zero.  Returns a."""
    sq = np.einsum("ij,ij->i", a, a)
    shift = -((np.frexp(sq)[1] + 1) // 2)
    odd = ~((sq >= np.finfo(float).tiny) & (sq < np.inf))
    if odd.any():  # the row peak only where the squared norm is 0, subnormal or inf
        b = a[odd]
        peak = np.maximum(b.max(axis=1, initial=0), -b.min(axis=1, initial=0))
        shift[odd] = -np.frexp(peak)[1]
    return np.ldexp(a, shift[:, None], out=a)


def _unit_rows(x, weights):
    """(rows, unit): the rows of x with a nonzero weighted row x * sqrt(w), and
    those weighted rows normalized; a w whose length is not d is a `DataError`.

    Powers of two scale each row of x and sqrt(w) before the product, and each
    weighted row after it (`_scaled`).  That is exact, so no product or squared
    norm overflows, and an exact power-of-two scaling of a row has its unit
    row.  Rows of normal range get the bits of unscaled x*sqrt(w)/||x*sqrt(w)||.
    """
    if weights.w is not None and weights.w.size != x.shape[1]:
        raise DataError("weight size does not match the feature dimension")
    xw = _scaled(np.array(x, dtype=float))
    if weights.w is not None:
        _scaled(np.multiply(xw, _scaled(np.sqrt(weights.w)[None]), out=xw))
    sq = np.einsum("ij,ij->i", xw, xw)
    np.divide(xw, np.sqrt(sq)[:, None], out=xw, where=sq[:, None] > 0)
    return np.flatnonzero(sq > 0), xw[sq > 0]


@dataclass
class NeighborTriplets:
    """A neighbor graph: each query row's id and the ids of its `_NEIGHBORS`
    nearest rows."""

    rows: np.ndarray        # (M,) int: query row ids
    indices: np.ndarray     # (M, _NEIGHBORS) int: row ids of the neighbors, nearest first

    def __post_init__(self):
        self.rows = _int_labels(self.rows, "row ids")
        self.indices = _int_labels(self.indices, "neighbor indices")
        if self.rows.ndim != 1 or self.indices.shape != (self.rows.size, _NEIGHBORS):
            raise DataError("need one (row id, index pair) per query row")
        first, second = np.triu_indices(_NEIGHBORS + 1, 1)  # every pair of a row's ids
        ids = np.column_stack([self.rows, self.indices])
        if np.any(ids[:, first] == ids[:, second]):
            raise DataError("neighbor indices must be distinct from the row and each other")

    def labels(self, y):
        """(M, `_NEIGHBORS` + 1) labels (y_n, y_n1, y_n2, ...) of each query row
        and its neighbors, read from y."""
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

    * The rows are x / sqrt(fl(sum x^2)) for the scaled weighted rows x of
      `_unit_rows`, so ||a||, ||b|| <= 1 + e with e = gamma_{d+2}(v): the
      squared norm is off by gamma_d(v), the square root and the division by
      one rounding each.  Every |x_k| is below 1 and sum x_k^2 is about 1/4
      or more, so the squared norm neither overflows nor underflows; a
      square that underflows is off by at most 2^-1075, far inside the
      underflow term below.
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
    order = np.argsort(first)  # np.argsort(order) is each group's rank by lowest row
    return first[order], np.argsort(order)[inverse.ravel()]


def _top_candidates(sims):
    """Columns of each row of `sims` among which lie the row's n = `_NEIGHBORS` + 1
    largest values.

    The first 8w columns, w = width // 8, form w strided groups of 8: column j
    is in group j mod w.  One pass takes each group's maximum, and n masked
    ``argmax`` passes pick the n groups with the largest maxima.  Their 8n
    members and the fewer than 8 columns past 8w are the candidates.
    Whatever the order of ties, the n largest values of a row lie among them:
    a value in any other group is at most each chosen group's maximum, and
    those are n distinct candidates.  Rows narrower than 8n columns keep
    every column.
    """
    b, width = sims.shape
    w, n = width // _GROUPS, _NEIGHBORS + 1
    if w < n:
        return np.broadcast_to(np.arange(width), (b, width))
    peak = sims[:, :_GROUPS * w].reshape(b, _GROUPS, w).max(axis=1)
    q = np.arange(b)
    best = np.empty((b, n), dtype=np.intp)
    for k in range(n):
        j = peak.argmax(axis=1)
        # where every group left peaks at -inf, argmax may return a taken
        # group; any free group serves there, and one of groups 0 to n-1 is free
        again = (best[:, :k] == j[:, None]).any(axis=1)
        if again.any():
            j[again] = np.argmin((best[again, :k, None] == np.arange(n)).any(axis=1), axis=1)
        best[:, k] = j
        peak[q, j] = -np.inf
    members = (best[:, :, None] + w * np.arange(_GROUPS)).reshape(b, n * _GROUPS)
    tail = np.broadcast_to(np.arange(_GROUPS * w, width), (b, width - _GROUPS * w))
    return np.concatenate([members, tail], axis=1)


def _best_groups(x, queries, narrow):
    """The entry table of each query group: (group, score), each (Q, m + 2).

    Rows of x are the distinct unit rows, and m = `_NEIGHBORS`.  Column 0 is
    the query group at its self score; its column is then masked, and
    columns 1 to m + 1 are the best other groups and their scores from
    m + 1 masked ``argmax`` passes: with `narrow` over the columns
    `_top_candidates` keeps, else full width, so that ties go to the lower
    group and so the lower row.  No other group scores above column m + 1.
    """
    group = np.empty((queries.size, _NEIGHBORS + 2), dtype=np.int64)
    score = np.empty((queries.size, _NEIGHBORS + 2))
    group[:, 0] = queries
    step = _block_rows(x.shape[0], x.itemsize)
    buf = np.empty((min(step, queries.size), x.shape[0]), dtype=x.dtype)
    for start in range(0, queries.size, step):
        stop = min(start + step, queries.size)
        g = queries[start:stop]
        sims = np.matmul(x[g], x.T, out=buf[:stop - start])
        q = np.arange(stop - start)
        score[start:stop, 0] = sims[q, g]
        sims[q, g] = -np.inf
        cols = _top_candidates(sims) if narrow else None
        vals = sims if cols is None else np.take_along_axis(sims, cols, axis=1)
        for k in range(1, _NEIGHBORS + 2):
            j = vals.argmax(axis=1)
            group[start:stop, k] = j if cols is None else cols[q, j]
            score[start:stop, k] = vals[q, j]
            vals[q, j] = -np.inf
    return group, score


def _sure(group, score, counts, margin):
    """Query groups whose entry scores decide all neighbor slots of every member.

    Each entry of a member's table offers slots: its own group counts - 1
    (its other copies), every other group its size.  Sorted by score, an
    entry fills slots when the entries before it offer fewer than
    `_NEIGHBORS` slots.  A group is sure when each filling entry beats the
    next by more than `margin`.

    Sound for float32 scores at margin = 2 * `_score_bound`: each float32
    score is within the bound of its float64 score, and no group past the
    table scores above its last entry in float32 (`_top_candidates` holds
    the exact top `_NEIGHBORS` + 1).  So in float64 too each filling entry
    strictly beats every later entry and every other group: the same
    entries fill the slots in the same order, and within an entry the
    lower-index rule takes the same rows whichever scores feed `_expand`.
    """
    slots = counts[group]
    slots[:, 0] -= 1
    score = np.where(slots > 0, score, -np.inf)  # a lone row has no copies to offer
    order = np.argsort(-score, axis=1, kind="stable")
    score = np.take_along_axis(score, order, axis=1)
    slots = np.take_along_axis(slots, order, axis=1)
    fills = np.cumsum(slots, axis=1) - slots < _NEIGHBORS
    with np.errstate(invalid="ignore"):  # -inf - -inf past the last group
        beats = score[:, :-1] - score[:, 1:] > margin
    return np.all(beats | ~fills[:, :-1], axis=1)


def _expand(inverse, counts, group, score):
    """Each row's `_NEIGHBORS` neighbors from its group's entry table.

    Row i is a copy of group inverse[i].  Entry k of its table offers its
    m + 1 - k lowest rows, with m = `_NEIGHBORS`: entry 0, the own group,
    may hold row i itself (masked), and each of entries 1 to k - 1 holds a
    row ranked ahead of every row of entry k (a higher score, or an equal
    score and a lower group, so a lower lowest row).  The neighbors are the
    best m candidates by score and then by row.  At least m candidates are
    other rows with finite scores, so the -inf entries past the last group
    are never taken.
    """
    members = np.argsort(inverse, kind="stable")
    rank = np.arange(_NEIGHBORS + 1)
    starts = np.cumsum(counts) - counts
    at = np.minimum(starts[:, None] + rank, inverse.size - 1)
    low = np.where(rank < counts[:, None], members[at], -1)  # m + 1 lowest rows, -1 past the size
    take = _NEIGHBORS + 1 - rank
    cand = np.concatenate([low[group[:, k], :t] for k, t in enumerate(take)], axis=1)[inverse]
    score = np.repeat(score[:, :-1], take, axis=1)[inverse]
    score[(cand < 0) | (cand == np.arange(inverse.size)[:, None])] = -np.inf
    order = np.lexsort((cand, -score))[:, :_NEIGHBORS]
    return np.take_along_axis(cand, order, axis=1)


def get_2nn_triplets(data, weights):
    """Exact `_NEIGHBORS`-NN (2-NN) of every row under soft-cosine distance 1 - Sim_W.

    W is the identity or a diagonal w of length d, which scales each row to
    x * sqrt(w); another length raises `DataError`.  Returns the
    neighbor graph of row ids; ``graph.labels(y)`` reads any label vector
    through it.  Rows with zero weighted norm are excluded as queries and as
    candidates, so ``graph.rows`` lists the rows that were kept; fewer than
    `_NEIGHBORS` + 1 kept rows is an error.  The kept rows are normalized
    (`_unit_rows`) and grouped by their unit rows (`_distinct_rows`).  A
    float32 pass over the groups (`_best_groups`) gives each its entry table.
    Groups that `_sure` cannot settle from it, within twice `_score_bound`,
    are scored again in float64; `_expand` then maps every group back to its
    rows.
    """
    rows, unit = _unit_rows(data.features, weights)
    if rows.size <= _NEIGHBORS:
        raise DataError(f"need at least {_NEIGHBORS + 1} rows with nonzero weighted norm "
                        f"for {_NEIGHBORS}-NN triplets, got {rows.size}")
    first, inverse = _distinct_rows(unit)
    unit = unit[first]
    counts = np.bincount(inverse)

    group, score = _best_groups(unit.astype(np.float32), np.arange(first.size), True)
    redo = np.flatnonzero(~_sure(group, score, counts, 2 * _score_bound(unit.shape[1])))
    group[redo], score[redo] = _best_groups(unit, redo, False)
    return NeighborTriplets(rows, rows[_expand(inverse, counts, group, score)])


def clusterability_rate(data, weights):
    """Fraction of query rows whose `_NEIGHBORS` nearest neighbors all share the
    row's clean label, under the weights `get_2nn_triplets` takes."""
    if data.clean_labels is None:
        raise DataError("clusterability requires clean labels")
    c = get_2nn_triplets(data, weights).labels(data.clean_labels)
    return float((c[:, 1:] == c[:, :1]).all(axis=1).mean())
