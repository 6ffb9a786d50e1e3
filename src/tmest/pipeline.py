"""End-to-end estimation: optional whitening, per-dimension f-MI weights on
noisy labels, soft-cosine 2-NN, consensus counting, and the matching solver.

Variants: plain-hoc (identity weights, raw features), x-kl / x-tv (weights on
raw features), a-kl / a-tv (whiten first, weights on the whitened axes).
"""

import time
from dataclasses import dataclass

import numpy as np

from .core import DataError, Report
from .evaluation import estimation_error
from .hoc import count_consensus, solve_transition
from .infotheory import FDivergenceKind, estimate_fmi_per_dim, build_weights
from .similarity import SimilarityWeights, get_2nn_triplets
from .whitening import fit_whitening, apply_whitening


@dataclass
class VariantSpec:
    whiten: bool
    divergence: FDivergenceKind | None   # None for plain-hoc
    activation: str

    @classmethod
    def parse(cls, variant, activation="minmax"):
        if variant == "plain-hoc":
            return cls(False, None, activation)
        try:
            prefix, div = variant.split("-")
            kind = FDivergenceKind(div)
        except ValueError:
            raise DataError(f"unknown variant '{variant}'") from None
        if prefix not in ("x", "a"):
            raise DataError(f"unknown variant '{variant}'")
        return cls(prefix == "a", kind, activation)


def estimate(data, config, true_t=None):
    """Run the full pipeline on a noisy dataset and assemble a Report."""
    spec = VariantSpec.parse(config.variant, config.activation)
    timings = {}
    work = data

    t0 = time.perf_counter()
    if spec.whiten:
        transform = fit_whitening(data, config.eigen_floor)
        work = apply_whitening(transform, data)
    timings["whitening"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    weights_vec = None
    if spec.divergence is None:
        sim_weights = SimilarityWeights.identity()
    else:
        mi = estimate_fmi_per_dim(work.features, work.noisy_labels,
                                  spec.divergence, config.bins)
        weights_vec = build_weights(mi, spec.activation)
        sim_weights = SimilarityWeights.diagonal(weights_vec.w)
    timings["weights"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    triplets = get_2nn_triplets(work, sim_weights)
    timings["neighbors"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    stats = count_consensus(triplets, data.k)
    timings["count"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    solution = solve_transition(stats, data.k, config.optimizer, seed=config.seed)
    timings["solve"] = time.perf_counter() - t0

    error = None
    if true_t is not None:
        error = estimation_error(true_t, solution.t)

    return Report(
        estimated_t=solution.t,
        consensus=stats,
        weights=weights_vec,
        error=error,
        converged=solution.converged,
        config_echo=config.to_json(),
        timings=timings,
        excluded_rows=data.n - triplets.n,
    )
