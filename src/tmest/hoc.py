"""Consensus statistics over 2-NN label triplets and the matching solver.

Under 2-NN label clusterability the three noisy labels of a triplet are
independent draws through T from a single clean label, so the first, second
and third order pattern frequencies are polynomial in (T, p):

    c1 = p' T,   c2 = T' diag(p) T,   c3 = T' diag(p) TT  (as K x K x K),

where row i of TT (K x K^2) is t_i (x) t_i.
`_moments` is the one implementation of this model; the exact statistics,
the loss and its gradient all take their tensors from it.  The solver
minimizes the squared mismatch between empirical and model frequencies over
softmax-parameterized (T, p) by Levenberg-Marquardt steps on the closed-form
Gauss-Newton matrix of `_gauss_newton`, from the closed-form spectral
solution of the moments and from a near-identity start.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import DataError, TransitionMatrix, _freeze, stage_rng

_NORM_ATOL = 1e-9
# sym(c2) counts as rank-deficient below this fraction of its top eigenvalue
_RANK_RTOL = 1e-12
# entries of the spectral start are clipped here before taking logs
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


def _softmax(theta):
    e = np.exp(theta - theta.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def consensus_loss(t, p, stats):
    """Squared Frobenius mismatch between model and empirical tensors."""
    c1, c2, c3, _ = _moments(np.asarray(t, dtype=np.float64),
                             np.asarray(p, dtype=np.float64))
    return float(((c1 - stats.c1) ** 2).sum() + ((c2 - stats.c2) ** 2).sum()
                 + ((c3 - stats.c3) ** 2).sum())


def _loss_and_grad(theta_t, theta_p, stats):
    """Loss and analytic gradients w.r.t. the softmax pre-activations."""
    k = stats.k
    t = _softmax(theta_t)
    p = _softmax(theta_p)
    c1, c2, c3, tt = _moments(t, p)
    r1, r2, r3 = c1 - stats.c1, c2 - stats.c2, c3 - stats.c3
    loss = float((r1 ** 2).sum() + (r2 ** 2).sum() + (r3 ** 2).sum())

    # gradients in (T, p) space.  The empirical tensors are ordered counts, so
    # r2/r3 need not be symmetric: t_i enters every slot of c2 and c3, and
    # summing r over the slot permutations turns the per-slot contractions
    # into one product per order: g2[i, b] = sum_l (r2 + r2')[b, l] t_il and
    # g3[i, b] = sum_lm (r3 + r3^(1,0,2) + r3^(2,0,1))[b, l, m] t_il t_im.
    g2 = t @ (r2 + r2.T)
    g3 = tt @ (r3 + r3.transpose(1, 0, 2) + r3.transpose(2, 0, 1)).reshape(k, k * k).T
    g_t = 2 * p[:, None] * (r1 + g2 + g3)
    # c_n is homogeneous of degree n in t_i, so t_i . dc_n/dt_i = n p_i dc_n/dp_i
    g_p = 2 * (t * (r1 + g2 / 2 + g3 / 3)).sum(axis=1)
    # chain through the row softmax
    g_theta_t = t * (g_t - (t * g_t).sum(axis=1, keepdims=True))
    g_theta_p = p * (g_p - (p * g_p).sum())
    return loss, g_theta_t, g_theta_p


def _gauss_newton(t, p):
    """Gauss-Newton matrix J'J of the residuals (c1, c2, c3 minus the stats).

    J is the Jacobian of the stacked residuals w.r.t. the softmax
    pre-activations (theta_t row-major, then theta_p).  With G = TT' and
    W = 1 + 2G + 3G^2, the inner products of the moment derivatives are, in
    (T, p) space,

        [(i,a),(j,c)] = p_i p_j (W_ij [a == c] + (2 + 6G)_ij t_ic t_ja),
        [(i,a), p_j]  = p_i W_ij t_ja,
        [p_i, p_j]    = (G + G^2 + G^3)_ij,

    and both sides are then chained through the row softmax.
    """
    k = t.shape[0]
    g = t @ t.T
    w = 1 + 2 * g + 3 * g ** 2
    pp = np.outer(p, p)
    h = np.empty((k * k + k, k * k + k))
    h[:k * k, :k * k] = ((pp * w)[:, None, :, None] * np.eye(k)[None, :, None, :]
                         + (pp * (2 + 6 * g))[:, None, :, None]
                         * t[:, None, None, :] * t.T[None, :, :, None]).reshape(k * k, k * k)
    h[:k * k, k * k:] = ((p[:, None] * w)[:, None, :] * t.T[None, :, :]).reshape(k * k, k)
    h[k * k:, :k * k] = h[:k * k, k * k:].T
    h[k * k:, k * k:] = g + g ** 2 + g ** 3
    for _ in range(2):  # chain the rows, transpose, chain the rows again
        ht = h[:k * k].reshape(k, k, -1)
        ht = t[:, :, None] * (ht - (t[:, :, None] * ht).sum(axis=1, keepdims=True))
        hp = h[k * k:]
        hp = p[:, None] * (hp - (p[:, None] * hp).sum(axis=0))
        h = np.concatenate([ht.reshape(k * k, -1), hp]).T
    return h


def _stop_gain(stats, cfg):
    """Loss gain below which a polish stops: `tolerance / n`, or machine
    epsilon on exact statistics (n == 0)."""
    return cfg.tolerance / stats.n if stats.n > 0 else np.finfo(np.float64).eps


def _descend(theta_t, theta_p, stats, cfg):
    """Levenberg-Marquardt descent on the softmax pre-activations.

    Each trial step solves (H + mu I) d = -g with H the closed-form
    Gauss-Newton matrix and g = J'r, half the loss gradient.  A step that
    lowers the loss is accepted and mu divided by 3; otherwise mu doubles.
    The polish converges once an accepted step, or the gain the quadratic
    model predicts for a trial step, is at most `tolerance / n` -- far below
    the multinomial noise (~1/n) of n counted triplets, and machine precision
    on exact statistics.  At most `max_iters` trial steps are taken.
    """
    k = stats.k
    ftol = _stop_gain(stats, cfg)

    def split(x):
        return x[:k * k].reshape(k, k), x[k * k:]

    def evaluate(x):
        loss, g_t, g_p = _loss_and_grad(*split(x), stats)
        return loss, np.concatenate([g_t.ravel(), g_p]) / 2

    x = np.concatenate([theta_t.ravel(), theta_p])
    loss, g = evaluate(x)
    h = _gauss_newton(*map(_softmax, split(x)))
    mu = 1e-3 * h.diagonal().max()
    for step in range(1, cfg.max_iters + 1):
        d = np.linalg.solve(h + mu * np.eye(x.size), -g)
        if -(2 * g @ d + d @ h @ d) <= ftol:
            return (*split(x), loss, step, True)
        trial_loss, trial_g = evaluate(x + d)
        if trial_loss < loss:
            gain = loss - trial_loss
            x, loss, g = x + d, trial_loss, trial_g
            if gain <= ftol:
                return (*split(x), loss, step, True)
            h = _gauss_newton(*map(_softmax, split(x)))
            mu /= 3
        else:
            mu *= 2
    return (*split(x), loss, cfg.max_iters, False)


def _spectral_start(stats, rng):
    """Softmax pre-activations of the closed-form moment solution, or None.

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
    return np.log(t / t.sum(axis=1, keepdims=True)), np.log(p / p.sum())


def _maximize_trace(t, p):
    """Permute rows (clean-label indices) so the diagonal mass is maximal."""
    k = t.shape[0]
    benefit = t.T  # benefit[i, j]: row j placed at position i contributes t[j, i]
    rows, cols = linear_sum_assignment(-benefit)
    perm = cols[np.argsort(rows)]
    return t[perm], p[perm]


def solve_transition(stats, k, config, seed=0):
    """Recover (T, p) whose model consensus matches the counted frequencies.

    Up to two deterministic starts are polished by `_descend`: first the
    spectral start of `_spectral_start`, whose contraction vector is drawn
    from the "optimizer" stream of `seed`, when it exists; then the
    near-identity start (the diagonally-dominant prior, uniform p), unless
    the best loss so far is already at most the stopping gain of `_descend`.
    The lowest loss wins (a tie keeps the earlier polish) and its rows are
    permuted to maximize the trace.  `iterations_used` totals the trial steps
    of every polish that ran; `converged` is true only if the winning polish
    stopped on the tolerance rule, not at `max_iters`.
    """
    if stats.k != k:
        raise DataError("statistics do not match the requested class count")
    spectral = _spectral_start(stats, stage_rng(seed, "optimizer"))
    starts = [] if spectral is None else [spectral]
    starts.append((2.0 * np.eye(k), np.zeros(k)))  # near-identity T, uniform p

    best, iters = None, 0
    for theta_t0, theta_p0 in starts:
        polish = _descend(theta_t0, theta_p0, stats, config)
        iters += polish[3]
        if best is None or polish[2] < best[2]:
            best = polish
        if best[2] <= _stop_gain(stats, config):
            break

    theta_t, theta_p, loss, _, conv = best
    t, p = _maximize_trace(_softmax(theta_t), _softmax(theta_p))
    return HocSolution(TransitionMatrix(k, t, p=p), p, loss, iters, conv)
