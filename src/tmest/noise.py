"""Synthetic class-dependent label noise for benchmarks.

Two schemes: binary with explicit rates (e1, e2) and a K-class
diagonally-dominant scheme where each row's noise level is jittered around an
average rate and the off-diagonal mass is a Dirichlet(1) draw.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import DataError, NoiseRatePair, TransitionMatrix, _integer, _real, stage_rng

JITTER = 0.05
_MAX_ROW_ATTEMPTS = 100


@dataclass
class NoiseScheme:
    kind: str                  # "binary" | "dirichlet"
    e1: float = 0.0            # binary only
    e2: float = 0.0
    avg_rate: float = 0.0      # dirichlet only
    seed: int = 0

    def validate(self, k):
        for name in ("e1", "e2", "avg_rate"):
            _real(getattr(self, name), name)
        if self.kind == "binary":
            if k != 2:
                raise DataError("binary scheme requires K = 2")
            NoiseRatePair(self.e1, self.e2)
        elif self.kind == "dirichlet":
            if self.avg_rate + JITTER >= (k - 1) / k:
                raise DataError("average noise rate too high for diagonal dominance")
            if self.avg_rate - JITTER < 0:
                raise DataError("average noise rate must exceed the jitter")
        else:
            raise DataError(f"unknown noise scheme '{self.kind}'")


def avg_noise_rate_from_r(r, k):
    """Average noise rate e = 1 / (1 + r / sqrt(K-1)) for dominance ratio r."""
    try:
        r, k = _real(r, "r", above=0), _integer(k, "K", 2)
    except DataError:
        raise DataError(f"need a finite r > 0 and K >= 2, got r={r!r}, K={k!r}") from None
    return 1.0 / (1.0 + r / np.sqrt(k - 1))


def build_transition(scheme, k):
    """Draw a diagonally-dominant transition matrix from the scheme.

    Dirichlet rows use noise level u = avg_rate + Unif(-0.05, 0.05), set
    T_ii = 1 - u and spread u over the off-diagonal cells with a Dirichlet(1)
    draw; rows whose diagonal fails to dominate are resampled.
    """
    scheme.validate(_integer(k, "k", 2))
    if scheme.kind == "binary":
        t = np.array([[1 - scheme.e1, scheme.e1], [scheme.e2, 1 - scheme.e2]])
        return TransitionMatrix(2, t)

    rng = stage_rng(scheme.seed, "synthesis")
    t = np.zeros((k, k))
    for i in range(k):
        for attempt in range(_MAX_ROW_ATTEMPTS):
            u = scheme.avg_rate + rng.uniform(-JITTER, JITTER)
            off = u * rng.dirichlet(np.ones(k - 1))
            row = np.insert(off, i, 1.0 - u)
            if row[i] > np.max(np.delete(row, i)):
                t[i] = row
                break
        else:
            raise DataError(f"could not draw a diagonally dominant row {i}")
    return TransitionMatrix(k, t)


def inject_noise(data, t, seed=0):
    """Resample noisy labels from T conditioned on the clean labels.

    Each row draws u ~ U[0, 1); its noisy label is the count of entries <= u
    in the cumulative sum of its clean label's row of T, capped at K - 1 in
    case rounding leaves the last entry below 1.  Deterministic given the
    seed; clean labels are retained on the returned dataset.
    """
    if data.clean_labels is None:
        raise DataError("noise injection requires clean labels")
    if t.k != data.k:
        raise DataError("transition matrix does not match the dataset's K")
    rng = stage_rng(seed, "noise")
    cum = np.cumsum(t.t, axis=1)
    u = rng.random(data.n)
    noisy = np.minimum((cum[data.clean_labels] <= u[:, None]).sum(axis=1), data.k - 1)
    return replace(data, noisy_labels=noisy)
