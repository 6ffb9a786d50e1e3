"""f-mutual information between scalar features and labels, the diagonal
soft-cosine weights built from it, and the KL order-preservation bounds.

MI is computed with a plug-in histogram estimator: the feature column is
discretized into equal-frequency bins and the discrete f-divergence between
the empirical joint and the product of marginals is evaluated in closed form.
Each column is binned on its own: it is argsorted, the bin edges are
``np.quantile``'s linear quantiles read off the sorted values, each bin is a
run of sorted positions, and one ``np.bincount`` of the sorted labels gives
the joint counts.  The working set is a few N-vectors, however many columns
there are.  All logarithms are base 2.
The f-divergence is named by a string of `core.DIVERGENCES`: "kl" or "tv".
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import ACTIVATIONS, DIVERGENCES, DataError, _int_labels, _integer, _real, _reals
from .similarity import SimilarityWeights

WEIGHT_FLOOR = 1e-3   # smallest allowed weight after min-max normalization
LOG_MI_FLOOR = 1e-6   # floor before taking log2 of an MI value


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
    if kind == "tv":
        return 0.5 * float(np.abs(joint - prod).sum())
    nz = joint > 0
    return max(float(np.sum(joint[nz] * np.log2(joint[nz] / prod[nz]))), 0.0)


def _checked(features, labels, bins):
    """Float64 features and int64 labels, after the checks binning needs."""
    _integer(bins, "bins", 2)
    features, labels = _reals(features, "features", frozen=False), _int_labels(labels, "labels")
    if features.ndim != 2:
        raise DataError(f"features must be a 2-d array (rows x dims), got {features.ndim}-d")
    if features.shape[1] == 0:
        raise DataError(f"features must have at least one column, got shape {features.shape}")
    if labels.shape != features.shape[:1]:
        raise DataError(f"need one label per feature row: {features.shape[0]} rows, "
                        f"labels of shape {labels.shape}")
    if features.shape[0] < bins:
        raise DataError(f"need at least bins={bins} samples")
    return features, labels


def _fmi_column(column, labels, ny, kind, bins):
    """f-MI of one contiguous checked feature column against labels below ny."""
    order = np.argsort(column)
    ordered = column[order]
    bounds = np.searchsorted(ordered, _interior_edges(ordered, bins), side="left")
    runs = np.diff(bounds, prepend=0, append=column.size)
    key = labels[order] + ny * np.repeat(np.arange(bounds.size + 1), runs)
    counts = np.bincount(key, minlength=(bounds.size + 1) * ny).reshape(-1, ny)
    return _divergence(counts, kind)


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


def estimate_fmi_per_dim(features, labels, kind="tv", bins=15):
    """Plug-in f-MI of every feature column against integer labels, each on
    its own equal-frequency bins.

    "kl" gives classical mutual information in bits; "tv" gives the total
    variation between the empirical joint and the marginal product, which
    lies in [0, 1].  A constant column (or constant labels) gives 0.
    """
    if not isinstance(kind, str) or kind not in DIVERGENCES:
        raise DataError(f"unknown f-divergence kind {kind!r} "
                        f"(choose from {', '.join(DIVERGENCES)})")
    features, labels = _checked(features, labels, bins)
    ny = int(labels.max()) + 1
    return MIEstimate([_fmi_column(np.ascontiguousarray(column), labels, ny, kind, bins)
                       for column in features.T])


def build_weights(mi, activation="minmax"):
    """Diagonal soft-cosine weights from per-dimension MI, via an
    order-preserving activation.

    minmax rescales MI to (0, 1] with a small positive floor; log-minmax
    takes log2 first (floored at LOG_MI_FLOOR), which spreads out small MI
    values.  Every weight lies in (0, 1] and the largest is exactly 1;
    uniform MI yields uniform weights.
    """
    if activation not in ACTIVATIONS:
        raise DataError(f"unknown activation '{activation}'")
    vals = mi.per_dim
    if activation == "log-minmax":
        vals = np.log2(np.maximum(vals, LOG_MI_FLOOR))
    lo, hi = vals.min(), vals.max()
    if hi - lo <= 0:
        w = np.ones_like(vals)
    else:
        w = np.maximum(WEIGHT_FLOOR, (vals - lo) / (hi - lo))
    return SimilarityWeights(w)


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
    # one subtracted sum, so this is `+ H2(e)` bit for bit (negation is exact)
    return (e * (_xlog2x(delta) - (1 + delta) * math.log2(1 + delta))
            - (_xlog2x(e) + _xlog2x(1 - e)))


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
