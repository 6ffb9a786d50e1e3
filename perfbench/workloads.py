"""The benchmark's workloads: input generators, jobs and output checks.

Each workload loads a different layer of tmest:

* blobs-atv-20k: the 2-NN search (``similarity``), behind whitening and
  f-MI weights; the solver is cheap at K=2.
* classes10-plain-10k: the solver (``hoc.solve_transition``); whitening and
  weights are skipped and the 2-NN search is small.
* csv-relabel-40k: CSV reading and writing (``core``) around noise injection,
  the ``tmest inject-noise`` path; no estimator runs.

Every input is generated here from a seed; tmest receives only the generated
data.  Job functions call tmest through module attributes (``pipeline.estimate``,
``core.load_dataset``, ...) so that the tracer's wrappers are the ones called.
"""

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.stats import binom

from tmest import core, evaluation, noise, pipeline

# Output checks, applied outside the timed region.
ROW_SUM_ATOL = 1e-9
MIN_TAIL_P = 1e-9    # a realised label count this unlikely under T fails


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    k: int
    variant: str
    prepare: Callable      # (seed, n, job's scratch dir) -> job input
    run: Callable          # job input -> output
    check: Callable        # (job input, output) -> (t_error, [problems])


@dataclass
class EstimateInput:
    data: object           # tmest Dataset: features and noisy labels only
    t_true: object         # TransitionMatrix the labels were drawn through
    config: object         # EstimatorConfig


@dataclass
class RelabelInput:
    path_in: str
    path_out: str
    features: np.ndarray
    clean: np.ndarray
    scheme: object         # NoiseScheme
    noise_seed: int


def _draw_seed(rng):
    return int(rng.integers(2 ** 31))


def _two_blobs(rng, n):
    """Criterion-7 features: two blobs over 10 dims plus 30 wide nuisance dims."""
    y = rng.integers(0, 2, n)
    x = np.empty((n, 40))
    x[:, :10] = np.where(y[:, None] == 0, -1.3, 1.3) + rng.normal(size=(n, 10))
    x[:, 10:] = rng.normal(scale=8.0, size=(n, 30))
    return x, y


def _gaussian_classes(rng, n, k, d):
    """k unit-variance Gaussian blobs with centres drawn from N(0, 3^2)."""
    centres = rng.normal(scale=3.0, size=(k, d))
    y = rng.integers(0, k, n)
    return centres[y] + rng.normal(size=(n, d)), y


def _noisy_input(rng, x, y, k, scheme, variant):
    t_true = noise.build_transition(scheme, k)
    seed = _draw_seed(rng)
    noisy = noise.inject_noise(core.Dataset(x, y, k, clean_labels=y), t_true, seed=seed)
    data = core.Dataset(x, noisy.noisy_labels, k)
    return EstimateInput(data, t_true, core.EstimatorConfig(variant=variant, seed=seed))


def prepare_blobs(seed, n, workdir):
    rng = np.random.default_rng(seed)
    x, y = _two_blobs(rng, n)
    return _noisy_input(rng, x, y, 2, noise.NoiseScheme("binary", e1=0.3, e2=0.3), "a-tv")


def prepare_classes10(seed, n, workdir):
    rng = np.random.default_rng(seed)
    x, y = _gaussian_classes(rng, n, 10, 16)
    scheme = noise.NoiseScheme("dirichlet", avg_rate=0.3, seed=_draw_seed(rng))
    return _noisy_input(rng, x, y, 10, scheme, "plain-hoc")


def run_estimate(inp):
    return pipeline.estimate(inp.data, inp.config)


def _row_stochastic_problems(t, k):
    t = np.asarray(t)
    if t.shape != (k, k) or not np.all(np.isfinite(t)):
        return [f"estimate is not a finite {k}x{k} matrix"]
    if np.any(t < -ROW_SUM_ATOL) or np.any(np.abs(t.sum(axis=1) - 1.0) > ROW_SUM_ATOL):
        return ["estimate is not row-stochastic"]
    return []


def estimate_checker(ceiling):
    def check(inp, report):
        t_hat = report.estimated_t
        problems = _row_stochastic_problems(t_hat.t, inp.t_true.k)
        if problems:
            return None, problems
        err = evaluation.estimation_error(inp.t_true, t_hat)
        if not err <= ceiling:
            problems.append(f"t_error {err:.4f} above the ceiling {ceiling}")
        return err, problems
    return check


def _write_csv(path, x, y):
    """Input CSV in tmest's layout, floats written with repr so they round-trip."""
    d = x.shape[1]
    header = [f"f{i}" for i in range(d)] + ["noisy_label", "clean_label"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row, label in zip(x.tolist(), y.tolist()):
            fh.write(",".join(map(repr, row)) + f",{label},{label}\n")


def prepare_relabel(seed, n, workdir):
    rng = np.random.default_rng(seed)
    x, y = _gaussian_classes(rng, n, 10, 40)
    path_in = os.path.join(workdir, "in.csv")
    _write_csv(path_in, x, y)
    scheme = noise.NoiseScheme("dirichlet", avg_rate=0.3, seed=_draw_seed(rng))
    return RelabelInput(path_in, os.path.join(workdir, "out.csv"), x, y,
                        scheme, _draw_seed(rng))


def run_relabel(inp):
    """The inject-noise path: load the CSV, draw T, relabel, write the CSV."""
    data = core.load_dataset(inp.path_in)
    t = noise.build_transition(inp.scheme, data.k)
    relabelled = noise.inject_noise(data, t, seed=inp.noise_seed)
    core.save_dataset(relabelled, inp.path_out)
    return data, t, relabelled


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint8), b.view(np.uint8))


def check_relabel(inp, output):
    """Both CSV round trips must be exact, and the labels must follow T."""
    data, t, relabelled = output
    problems = []
    if not (_same_bits(data.features, inp.features)
            and np.array_equal(data.clean_labels, inp.clean)
            and np.array_equal(data.noisy_labels, inp.clean)):
        problems.append("loaded dataset differs from the input CSV")
    d = inp.features.shape[1]
    with open(inp.path_out, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    if header != [f"f{i}" for i in range(d)] + ["noisy_label", "clean_label"]:
        return None, problems + [f"unexpected output header {header[d:]}"]
    saved = np.loadtxt(inp.path_out, delimiter=",", skiprows=1, ndmin=2)
    if not (_same_bits(np.ascontiguousarray(saved[:, :d]), inp.features)
            and np.array_equal(saved[:, d], relabelled.noisy_labels)
            and np.array_equal(saved[:, d + 1], inp.clean)):
        problems.append("saved CSV does not reproduce features and labels")

    # the realised transition of the relabelled file against the requested T
    k = t.k
    counts = np.zeros((k, k))
    np.add.at(counts, (inp.clean, relabelled.noisy_labels), 1)
    per_class = counts.sum(axis=1, keepdims=True)
    if np.any(per_class == 0):
        return None, problems + ["a clean class is missing from the input"]
    # each count is binomial(n_i, T_ij) when the labels follow T
    tail = np.minimum(binom.cdf(counts, per_class, t.t),
                      binom.sf(counts - 1, per_class, t.t))
    if np.any(tail < MIN_TAIL_P):
        problems.append(f"relabelled counts are implausible under T "
                        f"(smallest tail probability {tail.min():.2e})")
    err = evaluation.estimation_error(t, core.TransitionMatrix(k, counts / per_class))
    return err, problems


WORKLOADS = {
    w.name: w for w in (
        Workload("blobs-atv-20k", 20_000, 40, 2, "a-tv",
                 prepare_blobs, run_estimate, estimate_checker(0.05)),
        Workload("classes10-plain-10k", 10_000, 16, 10, "plain-hoc",
                 prepare_classes10, run_estimate, estimate_checker(0.10)),
        Workload("csv-relabel-40k", 40_000, 40, 10, "inject-noise",
                 prepare_relabel, run_relabel, check_relabel),
    )
}

