"""End-to-end estimation: optional whitening, per-dimension f-MI weights on
noisy labels, soft-cosine 2-NN, consensus counting, and the matching solver.

Variants: plain-hoc (identity weights, raw features), x-kl / x-tv (weights on
raw features), a-kl / a-tv (whiten first, weights on the whitened axes).
"""

import time
from dataclasses import asdict

from .core import VARIANTS, Report
from .evaluation import estimation_error
from .hoc import count_consensus, solve_transition
from .infotheory import FDivergenceKind, estimate_fmi_per_dim, build_weights
from .similarity import SimilarityWeights, get_2nn_triplets
from .whitening import fit_whitening, apply_whitening


def estimate(data, config, true_t=None):
    """Run the full pipeline on a noisy dataset and assemble a Report."""
    whiten, divergence = VARIANTS[config.variant]
    timings = {}
    work = data

    t0 = time.perf_counter()
    if whiten:
        transform = fit_whitening(data)
        work = apply_whitening(transform, data)
    timings["whitening"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    weights_vec = None
    if divergence is None:
        sim_weights = SimilarityWeights.identity()
    else:
        mi = estimate_fmi_per_dim(work.features, work.noisy_labels,
                                  FDivergenceKind(divergence), config.bins)
        weights_vec = build_weights(mi, config.activation)
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
        config_echo=asdict(config),
        timings=timings,
        excluded_rows=data.n - triplets.n,
    )
