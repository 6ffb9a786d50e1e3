"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

The suite exercises golden values, analytic bounds, and end-to-end behavior on
synthetic data at desk scale.
"""

import math
import time

import numpy as np
import pytest

import tmest as tm
from tmest.core import EstimatorConfig, NoiseRatePair
from tmest.evaluation import estimation_error, train_linear
from tmest.hoc import count_consensus, model_consensus, solve_transition
from tmest.infotheory import estimate_fmi_per_dim, kl_order_gap, practical_gap
from tmest.noise import NoiseScheme, build_transition, inject_noise
from tmest.pipeline import estimate
from tmest.similarity import SimilarityWeights, soft_cosine

from conftest import binary_noisy_labels, two_blob_dataset


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_soft_cosine_goldens(capsys):
    x1 = np.array([1.0, 0.0, 1.0])
    x2 = np.array([0.0, 1.0, 0.0])
    x3 = np.array([0.8, 1.0, 0.7])
    # a full PSD W = Q diag(lam) Q' is the diagonal form diag(lam) on the rotated Q'x
    lam, q = np.linalg.eigh([[1.0, -0.2, -0.5], [-0.2, 1.0, 0.5], [-0.5, 0.5, 1.0]])
    cases = [
        (np.eye(3), SimilarityWeights(), 0.7268, 0.6852),
        (np.eye(3), SimilarityWeights([1.0, 1.0, 0.1]), 0.6383, 0.7695),
        (q, SimilarityWeights(lam), 0.7519, 0.8522),
    ]
    devs = []
    for basis, w, g13, g23 in cases:
        r1, r2, r3 = (basis.T @ x for x in (x1, x2, x3))
        devs.append(abs(soft_cosine(r1, r3, w) - g13))
        devs.append(abs(soft_cosine(r2, r3, w) - g23))
    ok = max(devs) <= 0.005
    _verdict(capsys, 1, ok,
             f"six soft-cosine goldens, max deviation {max(devs):.2e} (tol 5e-3)")


def test_criterion_02_random_guess_error(capsys):
    t_true = tm.TransitionMatrix(2, [[0.7, 0.3], [0.3, 0.7]])
    guess = tm.TransitionMatrix(2, [[0.5, 0.5], [0.5, 0.5]])
    err = estimation_error(t_true, guess)
    ok = abs(err - 0.2) <= 1e-12
    _verdict(capsys, 2, ok, f"random-guess error {err!r} vs 0.2 (tol 1e-12)")


def test_criterion_03_symmetric_order_gap(capsys):
    devs = []
    for e in np.arange(0.05, 0.451, 0.05):
        e = float(round(e, 2))
        h2 = -e * math.log2(e) - (1 - e) * math.log2(1 - e)
        devs.append(abs(kl_order_gap(NoiseRatePair(e, e)) - (h2 - 2 * e)))
    quarter = kl_order_gap(NoiseRatePair(0.25, 0.25))
    ok = max(devs) <= 1e-9 and abs(quarter - 0.31128) <= 1e-5
    _verdict(capsys, 3, ok,
             f"kl_order_gap(e,e)=H2(e)-2e, max dev {max(devs):.2e}; "
             f"gap(0.25,0.25)={quarter:.6f} vs 0.31128")


def test_criterion_04_practical_gap_percentile(capsys):
    start = time.perf_counter()
    vals = []
    for e1 in np.arange(0.01, 0.501, 0.01):
        for delta in np.arange(0.0, 1.0001, 0.02):
            e1f, e2f = float(e1), float(delta * e1)
            if e1f + e2f >= 1:   # noise rates must remain estimable
                continue
            vals.append(practical_gap(NoiseRatePair(e1f, e2f)))
    p90 = float(np.percentile(vals, 90))
    elapsed = time.perf_counter() - start
    ok = p90 <= 0.34 and elapsed < 5.0
    _verdict(capsys, 4, ok,
             f"90th percentile of practical_gap = {p90:.4f} bits "
             f"(threshold 0.34, {len(vals)} grid points, {elapsed:.1f}s)")


def test_criterion_05_whitening_properties(capsys):
    worst_cov, worst_corr = 0.0, 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 101))
        x = rng.normal(size=(5000, d)) @ rng.normal(size=(d, d)) + rng.normal(size=d)
        data = tm.Dataset(x, np.zeros(5000, dtype=int), 2)
        z = tm.apply_whitening(tm.fit_whitening(data), data).features
        cov = z.T @ z / z.shape[0]
        worst_cov = max(worst_cov, float(np.abs(cov - np.eye(z.shape[1])).max()))
        corr = np.corrcoef(z, rowvar=False)
        off = np.abs(corr - np.diag(np.diag(corr))).max()
        worst_corr = max(worst_corr, float(off))
    ok = worst_cov <= 1e-6 and worst_corr <= 1e-6
    _verdict(capsys, 5, ok,
             f"20 seeds: max |cov(Z)-I| = {worst_cov:.2e}, "
             f"max off-diag corr = {worst_corr:.2e} (tol 1e-6)")


def test_criterion_06_hoc_oracle_recovery(capsys):
    start = time.perf_counter()
    cases = []

    # Monte-Carlo cross-check of the consensus model itself
    rng = np.random.default_rng(0)
    t_mc = tm.TransitionMatrix(2, [[0.7, 0.3], [0.3, 0.7]])
    p_mc = np.array([0.5, 0.5])
    clean = rng.choice(2, size=500_000, p=p_mc)
    # three independent noisy draws through T per clean label
    u = rng.random((500_000, 3))
    cum = np.cumsum(t_mc.t, axis=1)
    labels = (u[..., None] > cum[clean][:, None, :]).sum(axis=2)
    emp = count_consensus(labels, 2)
    exact = model_consensus(t_mc, p_mc)
    mc_dev = max(np.abs(emp.c1 - exact.c1).max(), np.abs(emp.c2 - exact.c2).max(),
                 np.abs(emp.c3 - exact.c3).max())

    for t_mat, p in [([[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5]),
                     ([[0.6, 0.4], [0.2, 0.8]], [0.4, 0.6])]:
        t_true = tm.TransitionMatrix(2, t_mat)
        sol = solve_transition(model_consensus(t_true, p), EstimatorConfig(seed=0))
        cases.append(("K=2", estimation_error(t_true, sol.t), 0.01))
    for seed in (7, 8, 9):
        t_true = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=seed), 3)
        p = np.random.default_rng(seed).dirichlet(np.ones(3))
        sol = solve_transition(model_consensus(t_true, p), EstimatorConfig(seed=seed))
        cases.append(("K=3", estimation_error(t_true, sol.t), 0.02))

    elapsed = time.perf_counter() - start
    worst = max(err for _, err, _ in cases)
    ok = (all(err <= tol for _, err, tol in cases)
          and mc_dev < 0.005 and elapsed < 30.0)
    _verdict(capsys, 6, ok,
             f"oracle recovery errors max {worst:.2e} "
             f"(K=2 tol 0.01, K=3 tol 0.02); Monte-Carlo consensus dev "
             f"{mc_dev:.1e}; {elapsed:.1f}s")


def test_criterion_07_end_to_end_variants(capsys):
    start = time.perf_counter()
    t_true = build_transition(NoiseScheme("binary", e1=0.3, e2=0.3), 2)
    errors = {"plain-hoc": [], "a-tv": [], "a-kl": []}
    single_run = None
    for seed in range(10):
        data = two_blob_dataset(seed, n=10_000, d_inf=10, d_noise=30,
                                sep=1.3, noise_scale=8.0)
        noisy = inject_noise(data, t_true, seed=seed)
        for variant in errors:
            t0 = time.perf_counter()
            rep = estimate(noisy, EstimatorConfig(variant=variant, seed=seed),
                           true_t=t_true)
            errors[variant].append(rep.error)
            single_run = time.perf_counter() - t0
    atv, akl, plain = (np.array(errors[v]) for v in ("a-tv", "a-kl", "plain-hoc"))
    wins_tv = int((atv < plain).sum())
    wins_kl = int((akl < plain).sum())
    ok = (atv.max() <= 0.05 and akl.max() <= 0.05
          and wins_tv >= 8 and wins_kl >= 8 and single_run <= 60.0)
    _verdict(capsys, 7, ok,
             f"a-tv err max {atv.max():.3f}, a-kl err max {akl.max():.3f} "
             f"(tol 0.05); beat plain-hoc in {wins_tv}/10 and {wins_kl}/10 "
             f"seeds; total {time.perf_counter() - start:.0f}s")


def test_criterion_08_tv_order_preservation(capsys):
    agree = total = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n, d = 20_000, 5
        y = rng.integers(0, 2, n)
        strengths = rng.uniform(0.05, 1.2, d)
        x = np.where(y[:, None] == 0, -strengths, strengths) + rng.normal(size=(n, d))
        e1 = rng.uniform(0.0, 0.45)
        e2 = rng.uniform(0.0, min(0.5, 0.95 - e1))
        noisy = binary_noisy_labels(rng, y, e1, e2)
        clean_mi = estimate_fmi_per_dim(x, y, "tv").per_dim
        noisy_mi = estimate_fmi_per_dim(x, noisy, "tv").per_dim
        for i in range(d):
            for j in range(i + 1, d):
                gap = clean_mi[i] - clean_mi[j]
                if abs(gap) <= 0.02:
                    continue
                total += 1
                agree += (noisy_mi[i] - noisy_mi[j]) * gap > 0
    rate = agree / total
    ok = rate >= 0.99
    _verdict(capsys, 8, ok,
             f"TV-MI sign agreement {rate:.2%} over {total} ranked pairs "
             f"(threshold 99%)")


def test_criterion_09_tv_shrinkage_factor(capsys):
    worst = 0.0
    for seed, e1, e2 in [(0, 0.2, 0.2), (1, 0.3, 0.1), (2, 0.1, 0.4), (3, 0.25, 0.25)]:
        rng = np.random.default_rng(seed)
        n = 50_000
        y = rng.integers(0, 2, n)
        x = np.where(y[:, None] == 0, -1.0, 1.0) * np.array([1.5, 1.0, 0.6]) \
            + rng.normal(size=(n, 3))
        noisy = binary_noisy_labels(rng, y, e1, e2)
        for j in range(3):
            clean_mi = estimate_fmi_per_dim(x[:, [j]], y, "tv").per_dim[0]
            noisy_mi = estimate_fmi_per_dim(x[:, [j]], noisy, "tv").per_dim[0]
            rel = abs(noisy_mi - (1 - e1 - e2) * clean_mi) / ((1 - e1 - e2) * clean_mi)
            worst = max(worst, rel)
    ok = worst <= 0.10
    _verdict(capsys, 9, ok,
             f"noisy TV-MI vs (1-e1-e2) x clean: max relative deviation "
             f"{worst:.2%} (tol 10%)")


def test_criterion_10_forward_correction(capsys):
    t_true = build_transition(NoiseScheme("binary", e1=0.4, e2=0.1), 2)
    wins = 0
    hat_gaps, hat_errs = [], []
    for seed in range(10):
        # T-hat comes from the pipeline on a clusterable sample of the same noise
        est_data = inject_noise(two_blob_dataset(500 + seed, n=10_000, d_inf=5,
                                                 sep=2.0), t_true, seed=seed)
        rep = estimate(est_data, EstimatorConfig(variant="plain-hoc", seed=seed),
                       true_t=t_true)
        hat_errs.append(rep.error)

        train = inject_noise(two_blob_dataset(seed, n=2000, d_inf=5, sep=0.4),
                             t_true, seed=seed)
        test = two_blob_dataset(seed + 1000, n=4000, d_inf=5, sep=0.4)
        plain = train_linear(train, test, epochs=300, seed=seed)
        fwd = train_linear(train, test, t=t_true, epochs=300, seed=seed)
        hat = train_linear(train, test, t=rep.estimated_t, epochs=300, seed=seed)
        if fwd.best_epoch_accuracy - plain.best_epoch_accuracy >= 0.02:
            wins += 1
        hat_gaps.append(abs(hat.best_epoch_accuracy - fwd.best_epoch_accuracy))
    ok = wins >= 8 and max(hat_errs) <= 0.05 and max(hat_gaps) <= 0.02
    _verdict(capsys, 10, ok,
             f"forward beats plain by >=2 pts in {wins}/10 seeds; T-hat error "
             f"max {max(hat_errs):.3f} (tol 0.05); hat-vs-true accuracy gap "
             f"max {100 * max(hat_gaps):.2f} pts (tol 2)")
