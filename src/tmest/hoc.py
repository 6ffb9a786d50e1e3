"""Consensus statistics over 2-NN label triplets and the matching solver.

Under 2-NN label clusterability the three noisy labels of a triplet are
independent draws through T from a single clean label, so the first, second
and third order pattern frequencies are polynomial in (T, p):

    c1 = p' T,   c2 = T' diag(p) T,   c3 = T' diag(p) TT  (as K x K x K),

where row i of TT (K x K^2) is t_i (x) t_i.
`_moments` is the one implementation of this model; the exact statistics,
the loss and its gradient all take their tensors from it.  The solver
minimizes the squared mismatch between empirical and model frequencies over
softmax-parameterized (T, p).
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, minimize

from .core import DataError, TransitionMatrix, _freeze, stage_rng

_NORM_ATOL = 1e-9


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

    def to_json(self):
        return {"c1": self.c1.tolist(), "c2": self.c2.tolist(),
                "c3": self.c3.tolist(), "n": self.n}

    @classmethod
    def from_json(cls, obj):
        return cls(np.array(obj["c1"]), np.array(obj["c2"]),
                   np.array(obj["c3"]), int(obj["n"]))


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


def _descend(theta_t, theta_p, stats, cfg):
    """Quasi-Newton descent on the softmax pre-activations."""
    k = stats.k

    def fun_grad(v):
        loss, g_t, g_p = _loss_and_grad(v[:k * k].reshape(k, k), v[k * k:], stats)
        return loss, np.concatenate([g_t.ravel(), g_p])

    res = minimize(fun_grad, np.concatenate([theta_t.ravel(), theta_p]), jac=True,
                   method="L-BFGS-B",
                   options={"maxiter": cfg.max_iters, "ftol": 1e-18, "gtol": 1e-14})
    return (res.x[:k * k].reshape(k, k), res.x[k * k:], float(res.fun),
            int(res.nit), bool(res.success))


def _maximize_trace(t, p):
    """Permute rows (clean-label indices) so the diagonal mass is maximal."""
    k = t.shape[0]
    benefit = t.T  # benefit[i, j]: row j placed at position i contributes t[j, i]
    rows, cols = linear_sum_assignment(-benefit)
    perm = cols[np.argsort(rows)]
    return t[perm], p[perm]


def solve_transition(stats, k, config, seed=0):
    """Recover (T, p) whose model consensus matches the counted frequencies.

    Runs `restarts` random softmax initializations plus one near-identity
    initialization (encoding the diagonally-dominant prior) and keeps the
    lowest-loss solution, then permutes rows to maximize the trace.
    """
    if stats.k != k:
        raise DataError("statistics do not match the requested class count")
    rng = stage_rng(seed, "optimizer")
    cfg = config

    inits = [(2.0 * np.eye(k), np.zeros(k))]  # near-identity T, uniform p
    for _ in range(cfg.restarts):
        inits.append((rng.normal(scale=1.0, size=(k, k)),
                      rng.normal(scale=1.0, size=k)))

    best = None
    for theta_t0, theta_p0 in inits:
        theta_t, theta_p, loss, iters, conv = _descend(theta_t0, theta_p0, stats, cfg)
        if best is None or loss < best[2]:
            best = (theta_t, theta_p, loss, iters, conv)

    theta_t, theta_p, loss, iters, conv = best
    t, p = _maximize_trace(_softmax(theta_t), _softmax(theta_p))
    return HocSolution(TransitionMatrix(k, t, p=p), p, loss, iters,
                       conv or loss <= cfg.tolerance)
