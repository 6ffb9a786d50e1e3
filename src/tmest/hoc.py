"""Consensus statistics over 2-NN label triplets and the matching solver.

Under 2-NN label clusterability the three noisy labels of a triplet are
independent draws through T from a single clean label, so the frequency c3
of each ordered label triple, and its marginals c1 and c2, are polynomial in
(T, p):  c1 = p' T,  c2 = T' diag(p) T,  c3 = T' diag(p) TT  (as K x K x K),
where row i of TT (K x K^2) is t_i (x) t_i.  Only c3 is stored.
`count_consensus` counts an (M, 3) label array such as 2-NN `graph.labels(y)`.
`_moments` is the one implementation of this model.  The triplets thus follow
a tied Dawid-Skene model, and the solver maximizes their likelihood
sum c3 log m3 by EM from the closed-form spectral solution of the moments and
from a near-identity start.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import DataError, TransitionMatrix, _int_labels, _integer, _reals, stage_rng

_NORM_ATOL = 1e-9
# sym(c2) counts as rank-deficient below this fraction of its top eigenvalue
_RANK_RTOL = 1e-12
# entries of the spectral start are clipped here, so EM can move every one
_START_FLOOR = 1e-12


@dataclass
class ConsensusStatistics:
    """Ordered label-triple frequencies c3 of n counted triplets (n == 0: exact)."""

    c3: np.ndarray
    n: int

    def __post_init__(self):
        _integer(self.n, "n", 0)
        self.c3 = _reals(self.c3, "c3")
        if self.c3.ndim != 3 or self.c3.shape != self.c3.shape[:1] * 3:
            raise DataError(f"c3 must be a K x K x K tensor, got shape {self.c3.shape}")
        if not (np.all(self.c3 >= 0) and abs(self.c3.sum() - 1.0) <= _NORM_ATOL):
            raise DataError("c3 must be nonnegative and sum to 1")

    @property
    def k(self):
        return self.c3.shape[0]

    # single-label and ordered-pair frequencies: marginals of c3, never stored
    @property
    def c1(self):
        return self.c3.sum(axis=(1, 2))

    @property
    def c2(self):
        return self.c3.sum(axis=2)


def count_consensus(labels, k):
    """Empirical frequencies of the rows (y_n, y_n1, y_n2) of an (M, 3) label array."""
    y, k = _int_labels(labels, "triplet labels"), _integer(k, "k", 2)
    if y.ndim != 2 or y.shape[1] != 3:
        raise DataError(f"triplet labels must have shape (M, 3), got {y.shape}")
    n = y.shape[0]
    if n == 0:
        raise DataError("no triplets to count")
    if np.any(y < 0) or np.any(y >= k):
        raise DataError("triplet label out of range")
    cells = (y[:, 0] * k + y[:, 1]) * k + y[:, 2]
    return ConsensusStatistics(np.bincount(cells, minlength=k ** 3).reshape(k, k, k) / n, n)


def _moments(t, p):
    """Model c3 of (T, p) as a K x K x K tensor, and TT whose row i is t_i (x) t_i."""
    k = t.shape[0]
    tt = (t[:, :, None] * t[:, None, :]).reshape(k, k * k)
    return ((p[:, None] * t).T @ tt).reshape(k, k, k), tt


def model_consensus(t, p=None):
    """Exact pattern probabilities implied by (T, p) under clusterability;
    `p` defaults to the matrix's own prior."""
    if p is None and t.p is None:
        raise DataError("model_consensus needs a prior p: the matrix has none")
    p = _reals(t.p if p is None else p, "prior p", frozen=False)
    if p.shape != (t.k,):
        raise DataError(f"prior p must have length K={t.k}, got shape {p.shape}")
    return ConsensusStatistics(_moments(t.t, p)[0], n=0)


@dataclass
class HocSolution:
    t: TransitionMatrix  # with the prior p set
    final_loss: float
    iterations_used: int
    converged: bool


def _stop_gain(stats, cfg):
    """Log-likelihood gain below which EM stops: `tolerance / n`, or machine
    epsilon on exact statistics (n == 0)."""
    return cfg.tolerance / stats.n if stats.n > 0 else np.finfo(np.float64).eps


def _em(t, p, stats, cfg):
    """EM for the maximum-likelihood (T, p) of the counted triplets.

    The E-step gives cell (a, b, c) to clean label i with weight
    p_i t_ia t_ib t_ic / m3[a, b, c]; the M-step sets row i of T to clean
    label i's expected label counts over the three slots, normalized, and p_i
    to a third of their total.  `loss` is the KL divergence sum c3 log(c3/m3);
    EM stops once an iteration lowers it by at most `_stop_gain`, far below
    the ~1/n multinomial noise of n counts, or after `max_iters` iterations.
    """
    k = stats.k
    seen = np.flatnonzero(stats.c3)  # cells of c3 with counted triplets
    c = stats.c3.ravel()[seen]

    def fit(t, p):
        m3, tt = _moments(t, p)
        ratio = c / m3.ravel()[seen]
        # the KL is >= 0; rounding can put an exact fit an ulp or so below
        return max(float(c @ np.log(ratio)), 0.0), ratio, tt

    loss, ratio, tt = fit(t, p)
    q = np.zeros((k, k, k))  # c3 / m3 on the observed cells, 0 elsewhere
    for it in range(1, cfg.max_iters + 1):
        q.flat[seen] = ratio
        qs = (q + q.transpose(1, 0, 2) + q.transpose(2, 0, 1)).reshape(k, k * k)
        s = p[:, None] * t * (tt @ qs.T)
        mass = s.sum(axis=1)
        t, p = s / mass[:, None], mass / 3
        prev = loss
        loss, ratio, tt = fit(t, p)
        if prev - loss <= _stop_gain(stats, cfg):
            return t, p, loss, it, True
    return t, p, loss, cfg.max_iters, False


def _spectral_start(stats, rng):
    """(T, p) of the closed-form moment solution, or None.

    The moments are a symmetric three-view mixture, so with W whitening
    sym(c2) (W' sym(c2) W = I) the orthonormal vectors mu_i = sqrt(p_i) W' t_i
    are the eigenvectors of sym(c3)(W, W, W theta) for a random theta
    (Jennrich's algorithm; Anandkumar et al., JMLR 2014).  Unwhitening gives
    sqrt(p_i) t_i, whose entries sum to sqrt(p_i) because t_i is a
    distribution.  Exact on exact statistics; None when sym(c2) is
    rank-deficient or the recovered start is not finite.
    """
    s, u = np.linalg.eigh((stats.c2 + stats.c2.T) / 2)
    if not s[0] > _RANK_RTOL * s[-1]:
        return None
    w = u / np.sqrt(s)
    m3 = sum(stats.c3.transpose(axes) for axes in permutations(range(3))) / 6
    _, v = np.linalg.eigh(w.T @ (m3 @ (w @ rng.normal(size=stats.k))) @ w)
    b = ((u * np.sqrt(s)) @ v).T  # row i: +-sqrt(p_i) t_i
    root_p = b.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(b / root_p[:, None], _START_FLOOR, None)
    if not np.all(np.isfinite(t)):
        return None
    p = np.clip(root_p ** 2, _START_FLOOR, None)
    return t / t.sum(axis=1, keepdims=True), p / p.sum()


def _assignment(cost):
    """Minimum-cost assignment of a square matrix: the row given to each column.

    The Hungarian algorithm with row and column potentials u, v (Kuhn 1955;
    Munkres 1957), in its O(K^3) shortest-augmenting-path form: row i joins
    by a Dijkstra-like search over reduced costs cost - u - v from the
    virtual column 0, then the potentials move by each step's slack and the
    path is flipped.  Each step is vectorized over the columns.
    """
    k = cost.shape[0]
    u, v = np.zeros(k + 1), np.zeros(k + 1)
    row_of = np.zeros(k + 1, dtype=np.int64)  # 1-based row held by column j, 0 = free
    way = np.zeros(k + 1, dtype=np.int64)     # previous column on the search path
    for i in range(1, k + 1):
        row_of[0], j = i, 0
        slack = np.full(k + 1, np.inf)
        used = np.zeros(k + 1, dtype=bool)
        while row_of[j]:
            used[j] = True
            reduced = cost[row_of[j] - 1] - u[row_of[j]] - v[1:]
            better = ~used[1:] & (reduced < slack[1:])
            slack[1:][better] = reduced[better]
            way[1:][better] = j
            nxt = 1 + np.argmin(np.where(used[1:], np.inf, slack[1:]))
            delta = slack[nxt]
            u[row_of[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
            j = nxt
        while j:
            row_of[j] = row_of[way[j]]
            j = way[j]
    return row_of[1:] - 1


def _maximize_trace(t, p):
    """Permute rows (clean-label indices) so the diagonal mass is maximal."""
    perm = _assignment(-t)  # perm[i]: the row of t placed at position i
    return t[perm], p[perm]


def solve_transition(stats, k, config, seed=0):
    """Recover the maximum-likelihood (T, p) of the counted triplets.

    `_em` runs from the spectral start of `_spectral_start` (its contraction
    vector drawn from the "optimizer" stream of `seed`) when it exists, then
    from the row softmax of 2I with uniform p unless the best loss is already
    within the stop gain.  The lowest loss wins, a tie keeps the earlier
    start, and its rows are permuted to maximize the trace.  `iterations_used`
    totals the EM iterations of both runs; `converged` is true only if the
    winning run stopped on the tolerance rule, not at `max_iters`.
    """
    if stats.k != _integer(k, "k", 2):
        raise DataError("statistics do not match the requested class count")
    spectral = _spectral_start(stats, stage_rng(seed, "optimizer"))
    starts = [] if spectral is None else [spectral]
    starts.append((np.exp(2.0 * np.eye(k)) / (np.exp(2.0) + k - 1), np.full(k, 1 / k)))

    best, iters = None, 0
    for t0, p0 in starts:
        run = _em(t0, p0, stats, config)
        iters += run[3]
        if best is None or run[2] < best[2]:
            best = run
        if best[2] <= _stop_gain(stats, config):
            break

    t, p, loss, _, conv = best
    t, p = _maximize_trace(t, p)
    return HocSolution(TransitionMatrix(k, t, p=p), loss, iters, conv)
