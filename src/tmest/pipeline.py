"""End-to-end estimation: optional whitening, per-dimension f-MI weights on
noisy labels, soft-cosine 2-NN, consensus counting, and the matching solver.

Variants: plain-hoc (identity weights, raw features), x-kl / x-tv (weights on
raw features), a-kl / a-tv (whiten first, weights on the whitened axes).
`estimate` calls each stage through this module's globals, so a stage can be
replaced here (for example by a tracing wrapper) without touching its module.
"""

import time
from dataclasses import asdict

import numpy as np

from .core import VARIANTS, DataError, Report
from .evaluation import estimation_error
from .hoc import count_consensus, solve_transition
from .infotheory import estimate_fmi_per_dim, build_weights
from .similarity import SimilarityWeights, get_2nn_triplets
from .whitening import fit_whitening, apply_whitening


def _flags(stats, t):
    """What the counts cannot identify: each label with zero c1 mass, and
    each row of T whose diagonal is not its strict maximum."""
    off_diagonal = np.where(np.eye(len(t), dtype=bool), -np.inf, t)
    return ([f"label {i} has no c1 mass" for i in np.flatnonzero(stats.c1 == 0)]
            + [f"T row {i}: diagonal is not the row maximum"
               for i in np.flatnonzero(np.diag(t) <= off_diagonal.max(axis=1))])


def estimate(data, config, true_t=None):
    """Run the full pipeline on a noisy dataset and assemble a Report.

    `timings` holds the seconds of each stage: whitening, weights,
    neighbors, count and solve.  `flags` names what the counts cannot
    identify; it is empty when nothing is flagged.
    """
    if true_t is not None and true_t.k != data.k:
        raise DataError(f"true_t has K={true_t.k}, but the data have K={data.k}")
    whiten, divergence = VARIANTS[config.variant]
    timings, clock = {}, [time.perf_counter()]

    def lap(stage):  # seconds since the previous lap
        clock.append(time.perf_counter())
        timings[stage] = clock[-1] - clock[-2]

    work, weights = data, None
    if whiten:
        work = apply_whitening(fit_whitening(data), data)
    lap("whitening")
    if divergence is not None:
        mi = estimate_fmi_per_dim(work.features, work.noisy_labels, divergence, config.bins)
        weights = build_weights(mi, config.activation)
    lap("weights")
    graph = get_2nn_triplets(work, weights or SimilarityWeights())
    lap("neighbors")
    stats = count_consensus(graph.labels(data.noisy_labels), data.k)
    lap("count")
    solution = solve_transition(stats, data.k, config.optimizer, seed=config.seed)
    lap("solve")

    return Report(
        estimated_t=solution.t,
        consensus=stats,
        weights=weights,
        error=None if true_t is None else estimation_error(true_t, solution.t),
        converged=solution.converged,
        config_echo=asdict(config),
        timings=timings,
        excluded_rows=data.n - graph.rows.size,
        flags=_flags(stats, solution.t.t),
    )
