"""f-mutual information between scalar features and labels, the diagonal
soft-cosine weights built from it, and the KL order-preservation bounds.

MI is computed with a plug-in histogram estimator: the feature column is
discretized into equal-frequency bins and the discrete f-divergence between
the empirical joint and the product of marginals is evaluated in closed form.
Bins are found by sorting: a batch of `_BATCH` columns is argsorted once, the
bin edges are ``np.quantile``'s linear quantiles read off the sorted values,
each bin is a run of sorted positions, and one ``np.bincount`` of the sorted
labels gives the joint counts of the whole batch.  All logarithms are base 2.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DataError, _int_labels, _integer, _real, _reals
from .similarity import SimilarityWeights

WEIGHT_FLOOR = 1e-3   # smallest allowed weight after min-max normalization
LOG_MI_FLOOR = 1e-6   # floor before taking log2 of an MI value
_BATCH = 8            # feature columns binned per sort

# Divergences the estimator evaluates in closed form.
class FDivergenceKind(Enum):
    KL = "kl"
    TV = "tv"


def _interior_edges(ordered, bins):
    """Interior equal-frequency bin edges of a sorted vector.

    The edges are ``np.quantile(ordered, np.linspace(0, 1, bins + 1))``
    computed as that function does for its default linear method, less the
    smallest and the largest, with repeats merged.
    """
    n = ordered.size
    at = (n - 1) * np.linspace(0.0, 1.0, bins + 1)
    lo = np.floor(at)
    t = at - lo
    lo = np.minimum(lo.astype(np.intp), n - 1)
    a, b = ordered[lo], ordered[np.minimum(lo + 1, n - 1)]
    step = b - a
    edges = a + step * t
    np.subtract(b, step * (1 - t), out=edges, where=t >= 0.5)
    return np.unique(edges)[1:-1]


def _divergence(counts, kind):
    """f-divergence between a joint count table and its marginals' product.

    KL is clamped at 0: on an exactly independent table its sum rounds to
    about -1e-17.
    """
    joint = counts / counts.sum()
    prod = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    if kind is FDivergenceKind.TV:
        return 0.5 * float(np.abs(joint - prod).sum())
    nz = joint > 0
    return max(float(np.sum(joint[nz] * np.log2(joint[nz] / prod[nz]))), 0.0)


def _checked(features, labels, bins):
    """Float64 features and int64 labels, after the checks binning needs."""
    _integer(bins, "bins", 2)
    features, labels = _reals(features, "features", frozen=False), _int_labels(labels, "labels")
    if features.ndim != 2:
        raise DataError(f"features must be a 2-d array (rows x dims), got {features.ndim}-d")
    if labels.shape != features.shape[:1]:
        raise DataError(f"need one label per feature row: {features.shape[0]} rows, "
                        f"labels of shape {labels.shape}")
    if features.shape[0] < bins:
        raise DataError(f"need at least bins={bins} samples")
    return features, labels


def _fmi_batch(columns, labels, kind, bins):
    """f-MI of each column of a few checked feature columns."""
    n, ny = labels.size, int(labels.max()) + 1
    # at most three (columns x n) arrays are alive at once
    block = np.ascontiguousarray(columns.T)
    order = np.argsort(block, axis=1)
    ordered = np.take_along_axis(block, order, axis=1)
    del block
    key = labels[order]
    del order
    size = np.empty(len(ordered), dtype=np.intp)
    for r, col in enumerate(ordered):
        bounds = np.searchsorted(col, _interior_edges(col, bins), side="left")
        size[r] = bounds.size + 1
        runs = np.diff(bounds, prepend=0, append=n)
        key[r] += ny * (bins * r + np.repeat(np.arange(size[r]), runs))
    counts = np.bincount(key.ravel(), minlength=len(key) * bins * ny).reshape(-1, bins, ny)
    return [_divergence(c[:m], kind) for c, m in zip(counts, size)]


def estimate_fmi(column, labels, kind=FDivergenceKind.TV, bins=15):
    """Plug-in f-MI between a scalar feature column and integer labels.

    KL returns classical mutual information in bits; TV returns the total
    variation between the empirical joint and the marginal product, which
    lies in [0, 1].  A constant column (or constant labels) gives 0.
    """
    column = _reals(column, "column", frozen=False)
    if column.ndim != 1:
        raise DataError(f"column must be 1-d, got {column.ndim}-d")
    return estimate_fmi_per_dim(column[:, None], labels, kind, bins).per_dim[0]


@dataclass
class MIEstimate:
    """Per-dimension f-MI values for one dataset."""

    per_dim: np.ndarray

    def __post_init__(self):
        self.per_dim = _reals(self.per_dim, "MI values")
        if self.per_dim.ndim != 1 or self.per_dim.size == 0:
            raise DataError("per_dim must be a non-empty vector")
        if np.any(self.per_dim < 0):
            raise DataError("MI values must be nonnegative")


def estimate_fmi_per_dim(features, labels, kind=FDivergenceKind.TV, bins=15):
    """f-MI of every feature column against the labels, each on its own
    equal-frequency bins; columns are binned `_BATCH` at a time.  `kind` is
    an `FDivergenceKind` or its value, "kl" or "tv"."""
    try:
        kind = FDivergenceKind(kind)
    except ValueError:
        raise DataError(f"unknown f-divergence kind {kind!r} (choose from "
                        f"{', '.join(k.value for k in FDivergenceKind)})") from None
    features, labels = _checked(features, labels, bins)
    return MIEstimate([v for start in range(0, features.shape[1], _BATCH)
                       for v in _fmi_batch(features[:, start:start + _BATCH], labels,
                                           kind, bins)])


def build_weights(mi, activation="minmax"):
    """Diagonal soft-cosine weights from per-dimension MI, via an
    order-preserving activation.

    minmax rescales MI to (0, 1] with a small positive floor; log-minmax
    takes log2 first (floored at LOG_MI_FLOOR), which spreads out small MI
    values.  Every weight lies in (0, 1] and the largest is exactly 1;
    uniform MI yields uniform weights.
    """
    vals = mi.per_dim
    if activation == "log-minmax":
        vals = np.log2(np.maximum(vals, LOG_MI_FLOOR))
    elif activation != "minmax":
        raise DataError(f"unknown activation '{activation}'")
    lo, hi = vals.min(), vals.max()
    if hi - lo <= 0:
        w = np.ones_like(vals)
    else:
        w = np.maximum(WEIGHT_FLOOR, (vals - lo) / (hi - lo))
    return SimilarityWeights.diagonal(w)


def _h2(e):
    """Binary entropy in bits, for 0 < e < 1."""
    return -e * math.log2(e) - (1 - e) * math.log2(1 - e)


def _xlog2x(x):
    return x * math.log2(x) if x > 0 else 0.0


def kl_order_gap(rates):
    """Order-preservation threshold for KL mutual information, in bits.

    With e the larger rate and delta = smaller/larger, the threshold is
    e * [delta*log2(delta) - (1+delta)*log2(1+delta)] + H2(e); it is 0 at
    zero noise and reduces to H2(e) - 2e for symmetric noise.
    """
    e = max(rates.e1, rates.e2)
    if e == 0:
        return 0.0
    delta = min(rates.e1, rates.e2) / e
    return e * (_xlog2x(delta) - (1 + delta) * math.log2(1 + delta)) + _h2(e)


def kl_noise_bias(beta, rates):
    """Noise-induced bias of the KL mutual information at mixing level beta.

    beta in [0, 1) is the clean class-1 posterior mass at a feature value;
    the bias vanishes for all beta when there is no noise.
    """
    beta = _real(beta, "beta")
    if not 0.0 <= beta < 1.0:
        raise DataError(f"beta must lie in [0, 1), got {beta}")
    e1, e2 = rates.e1, rates.e2
    q = (1 - e1 - e2) * beta + e2
    return (_xlog2x(q) + _xlog2x(1 - q)
            - (1 - e1 - e2) * (_xlog2x(beta) + _xlog2x(1 - beta)))


def kl_bias_argmax(rates):
    """beta maximizing kl_noise_bias; the bias increases up to it and
    decreases after."""
    if rates.e1 + rates.e2 == 0:
        return 0.0
    return rates.e2 / (rates.e1 + rates.e2)


def practical_gap(rates, beta_lo=1 / 6, beta_hi=5 / 6):
    """Max minus min of kl_noise_bias over a restricted beta range.

    The default range corresponds to clean posterior odds between 1/5 and 5.
    The bias is unimodal with its peak at e2/(e1+e2), so the extremes sit at
    the peak (if inside the range) and the endpoints.
    """
    if not (0.0 <= _real(beta_lo, "beta_lo") <= _real(beta_hi, "beta_hi") < 1.0):
        raise DataError("need 0 <= beta_lo <= beta_hi < 1")
    vals = [kl_noise_bias(beta_lo, rates), kl_noise_bias(beta_hi, rates)]
    peak = kl_bias_argmax(rates)
    if beta_lo <= peak <= beta_hi:
        vals.append(kl_noise_bias(peak, rates))
    return max(vals) - min(vals)
