"""Consensus statistics over 2-NN label triplets and the matching solver.

Under 2-NN label clusterability the three noisy labels of a triplet are
independent draws through T from a single clean label, so the first, second
and third order pattern frequencies are polynomial in (T, p):

    c1 = p' T,   c2 = T' diag(p) T,   c3 = T' diag(p) TT  (as K x K x K),

where row i of TT (K x K^2) is t_i (x) t_i.
`_moments` is the one implementation of this model.  The triplets thus follow
a tied Dawid-Skene model, and the solver maximizes their likelihood
sum c3 log m3 by EM from the closed-form spectral solution of the moments and
from a near-identity start.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import DataError, TransitionMatrix, _freeze, stage_rng

_NORM_ATOL = 1e-9
# sym(c2) counts as rank-deficient below this fraction of its top eigenvalue
_RANK_RTOL = 1e-12
# entries of the spectral start are clipped here, so EM can move every one
_START_FLOOR = 1e-12


@dataclass
class ConsensusStatistics:
    """Empirical frequencies of label patterns: single, ordered pair, ordered triple."""

    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    n: int

    def __post_init__(self):
        self.c1 = _freeze(np.asarray(self.c1, dtype=np.float64))
        self.c2 = _freeze(np.asarray(self.c2, dtype=np.float64))
        self.c3 = _freeze(np.asarray(self.c3, dtype=np.float64))
        k = self.c1.shape[0]
        if self.c2.shape != (k, k) or self.c3.shape != (k, k, k):
            raise DataError("consensus tensor shapes are inconsistent")
        for t in (self.c1, self.c2, self.c3):
            if np.any(t < 0) or abs(t.sum() - 1.0) > _NORM_ATOL:
                raise DataError("consensus tensors must be probability-normalized")

    @property
    def k(self):
        return self.c1.shape[0]


def count_consensus(triplets, k):
    """Empirical pattern frequencies of the (y_n, y_n1, y_n2) triplets."""
    y = triplets.labels
    n = y.shape[0]
    if np.any(y < 0) or np.any(y >= k):
        raise DataError("triplet label out of range")
    c1 = np.bincount(y[:, 0], minlength=k) / n
    c2 = np.bincount(y[:, 0] * k + y[:, 1], minlength=k * k).reshape(k, k) / n
    c3 = np.bincount((y[:, 0] * k + y[:, 1]) * k + y[:, 2],
                     minlength=k ** 3).reshape(k, k, k) / n
    return ConsensusStatistics(c1, c2, c3, n)


def _moments(t, p):
    """Model moments (c1, c2, c3) of (T, p), and TT whose row i is t_i (x) t_i."""
    k = t.shape[0]
    pt = p[:, None] * t
    tt = (t[:, :, None] * t[:, None, :]).reshape(k, k * k)
    return p @ t, pt.T @ t, (pt.T @ tt).reshape(k, k, k), tt


def model_consensus(t, p=None):
    """Exact pattern probabilities implied by (T, p) under clusterability."""
    p = np.asarray(t.p if p is None else p, dtype=np.float64)
    c1, c2, c3, _ = _moments(t.t, p)
    return ConsensusStatistics(c1, c2, c3, n=0)


@dataclass
class HocSolution:
    t: TransitionMatrix
    p: np.ndarray
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
        _, _, m3, tt = _moments(t, p)
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


def _maximize_trace(t, p):
    """Permute rows (clean-label indices) so the diagonal mass is maximal."""
    k = t.shape[0]
    benefit = t.T  # benefit[i, j]: row j placed at position i contributes t[j, i]
    rows, cols = linear_sum_assignment(-benefit)
    perm = cols[np.argsort(rows)]
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
    if stats.k != k:
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
    return HocSolution(TransitionMatrix(k, t, p=p), p, loss, iters, conv)
