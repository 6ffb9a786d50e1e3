import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tmest as tm
from tmest.core import DataError, OptimizerConfig, TransitionMatrix, stage_rng
from tmest.evaluation import estimation_error
import tmest.hoc
from tmest.hoc import (
    ConsensusStatistics,
    HocSolution,
    _descend,
    _gauss_newton,
    _loss_and_grad,
    _maximize_trace,
    _moments,
    _softmax,
    _spectral_start,
    consensus_loss,
    count_consensus,
    model_consensus,
    solve_transition,
)
from tmest.noise import NoiseScheme, build_transition
from tmest.similarity import NeighborTriplets


def _triplets(labels):
    labels = np.asarray(labels)
    n = labels.shape[0]
    idx = np.column_stack([(np.arange(n) + 1) % n, (np.arange(n) + 2) % n])
    return NeighborTriplets(labels, idx)


def test_count_consensus_hand_case():
    labels = np.array([[0, 0, 1], [0, 1, 0], [1, 1, 1], [0, 0, 0]])
    stats = count_consensus(_triplets(labels), 2)
    np.testing.assert_allclose(stats.c1, [0.75, 0.25])
    np.testing.assert_allclose(stats.c2, [[0.5, 0.25], [0.0, 0.25]])
    assert stats.c3[0, 0, 1] == 0.25
    assert stats.c3[0, 0, 0] == 0.25
    assert stats.c3[1, 1, 1] == 0.25
    assert stats.c3[0, 1, 0] == 0.25
    assert stats.n == 4


def test_count_consensus_normalization():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 3, (500, 3))
    stats = count_consensus(_triplets(labels), 3)
    assert stats.c1.sum() == pytest.approx(1.0, abs=1e-12)
    assert stats.c2.sum() == pytest.approx(1.0, abs=1e-12)
    assert stats.c3.sum() == pytest.approx(1.0, abs=1e-12)


def test_count_consensus_label_out_of_range():
    with pytest.raises(DataError):
        count_consensus(_triplets(np.array([[0, 0, 2], [0, 1, 0], [1, 0, 1]])), 2)


def test_model_consensus_symmetric_hand_values():
    t = tm.validate_transition([[0.7, 0.3], [0.3, 0.7]])
    stats = model_consensus(t, [0.5, 0.5])
    np.testing.assert_allclose(stats.c1, [0.5, 0.5], atol=1e-12)
    assert stats.c2[0, 0] == pytest.approx(0.29, abs=1e-12)
    assert stats.c3[0, 0, 0] == pytest.approx(0.185, abs=1e-12)
    assert stats.c2.sum() == pytest.approx(1.0, abs=1e-12)
    assert stats.c3.sum() == pytest.approx(1.0, abs=1e-12)


def test_model_consensus_noiseless_identity():
    t = tm.validate_transition(np.eye(3))
    p = np.array([0.2, 0.3, 0.5])
    stats = model_consensus(t, p)
    np.testing.assert_allclose(stats.c1, p)
    np.testing.assert_allclose(np.diag(stats.c2), p)
    assert stats.c2.sum() == pytest.approx(np.diag(stats.c2).sum())
    for i, pi in enumerate(p):
        assert stats.c3[i, i, i] == pytest.approx(pi)


def test_model_consensus_matches_definition():
    # c_n is the p-weighted sum over clean labels i of the n-fold outer product of t_i
    rng = np.random.default_rng(4)
    t = tm.validate_transition(rng.dirichlet(np.ones(4), size=4))
    p = rng.dirichlet(np.ones(4))
    stats = model_consensus(t, p)
    outer = np.multiply.outer
    np.testing.assert_allclose(stats.c1, sum(pi * ti for pi, ti in zip(p, t.t)),
                               rtol=1e-13)
    np.testing.assert_allclose(stats.c2, sum(pi * outer(ti, ti) for pi, ti in zip(p, t.t)),
                               rtol=1e-13)
    np.testing.assert_allclose(
        stats.c3, sum(pi * outer(outer(ti, ti), ti) for pi, ti in zip(p, t.t)), rtol=1e-13)


def test_consensus_statistics_invariants():
    with pytest.raises(DataError):
        ConsensusStatistics(np.array([0.6, 0.3]), np.full((2, 2), 0.25),
                            np.full((2, 2, 2), 0.125), 10)
    with pytest.raises(DataError):
        ConsensusStatistics(np.array([0.5, 0.5]), np.full((2, 3), 1 / 6),
                            np.full((2, 2, 2), 0.125), 10)


def test_loss_zero_at_truth():
    t = tm.validate_transition([[0.8, 0.2], [0.25, 0.75]])
    p = np.array([0.35, 0.65])
    stats = model_consensus(t, p)
    assert consensus_loss(t.t, p, stats) <= 1e-30
    assert consensus_loss(np.eye(2), p, stats) > 1e-4


def test_analytic_gradient_matches_finite_difference():
    rng = np.random.default_rng(1)
    for k in (2, 3, 5, 10):
        # non-symmetric empirical tensors, as produced by ordered counts
        labels = rng.integers(0, k, (300, 3))
        stats = count_consensus(_triplets(labels), k)
        theta_t = rng.normal(size=(k, k))
        theta_p = rng.normal(size=k)
        loss, g_t, g_p = _loss_and_grad(theta_t, theta_p, stats)
        assert loss == pytest.approx(
            consensus_loss(_softmax(theta_t), _softmax(theta_p), stats), rel=1e-12)
        eps = 1e-6
        for i in range(k):
            for j in range(k):
                d = np.zeros((k, k))
                d[i, j] = eps
                lp, _, _ = _loss_and_grad(theta_t + d, theta_p, stats)
                lm, _, _ = _loss_and_grad(theta_t - d, theta_p, stats)
                assert g_t[i, j] == pytest.approx((lp - lm) / (2 * eps), abs=1e-7)
        for i in range(k):
            d = np.zeros(k)
            d[i] = eps
            lp, _, _ = _loss_and_grad(theta_t, theta_p + d, stats)
            lm, _, _ = _loss_and_grad(theta_t, theta_p - d, stats)
            assert g_p[i] == pytest.approx((lp - lm) / (2 * eps), abs=1e-7)


def _residuals(x, stats):
    k = stats.k
    c1, c2, c3, _ = _moments(_softmax(x[:k * k].reshape(k, k)), _softmax(x[k * k:]))
    return np.concatenate([(c1 - stats.c1).ravel(), (c2 - stats.c2).ravel(),
                           (c3 - stats.c3).ravel()])


@pytest.mark.parametrize("k", [2, 3, 5])
def test_gauss_newton_matches_finite_difference_jacobian(k):
    rng = np.random.default_rng(k)
    stats = count_consensus(_triplets(rng.integers(0, k, (300, 3))), k)
    x = rng.normal(size=k * k + k)
    eps = 1e-6
    jac = np.stack([(_residuals(x + eps * e, stats) - _residuals(x - eps * e, stats))
                    / (2 * eps) for e in np.eye(x.size)], axis=1)
    h = _gauss_newton(_softmax(x[:k * k].reshape(k, k)), _softmax(x[k * k:]))
    np.testing.assert_allclose(h, jac.T @ jac, rtol=0, atol=1e-9)
    # the gradient the descent steps along is J'r
    _, g_t, g_p = _loss_and_grad(x[:k * k].reshape(k, k), x[k * k:], stats)
    np.testing.assert_allclose(np.concatenate([g_t.ravel(), g_p]) / 2,
                               jac.T @ _residuals(x, stats), rtol=0, atol=1e-9)


def test_polish_from_truth_stops_at_once():
    t = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=2), 6)
    p = np.random.default_rng(2).dirichlet(np.ones(6))
    _, _, loss, steps, converged = _descend(np.log(t.t), np.log(p), model_consensus(t, p),
                                            OptimizerConfig())
    assert converged and steps <= 3
    assert loss <= 1e-28


@pytest.mark.parametrize("t_true,p_true", [
    ([[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5]),
    ([[0.9, 0.1], [0.4, 0.6]], [0.3, 0.7]),
    ([[0.8, 0.1, 0.1], [0.05, 0.85, 0.1], [0.15, 0.05, 0.8]], [0.2, 0.5, 0.3]),
])
def test_exact_counts_recover_truth(t_true, p_true):
    t = tm.validate_transition(t_true)
    stats = model_consensus(t, p_true)
    sol = solve_transition(stats, t.k, OptimizerConfig(), seed=0)
    assert sol.converged
    assert np.max(np.abs(sol.t.t - t.t)) < 1e-4
    assert np.max(np.abs(sol.p - np.asarray(p_true))) < 1e-4
    # the solution's loss never exceeds the loss at the truth (plus slack)
    assert sol.final_loss <= consensus_loss(t.t, np.asarray(p_true), stats) + 1e-9


@pytest.mark.parametrize("k", [5, 10, 20])
def test_oracle_round_trip_dirichlet(k):
    # small classes (min p ~ 1e-3 .. 5e-5 here) make the near-identity polish
    # stall far from the truth; the spectral start is exact on exact statistics
    t = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=0), k)
    p = np.random.default_rng(0).dirichlet(np.ones(k))
    sol = solve_transition(model_consensus(t, p), k, OptimizerConfig(), seed=0)
    assert estimation_error(t, sol.t) <= 1e-6
    assert sol.converged


@settings(max_examples=10, deadline=None)
@given(k=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_oracle_round_trip_property(k, seed):
    # random diagonally dominant T: diagonal 1 - u with u < 1/2, u spread over the row
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.05, 0.45, k)
    t = tm.validate_transition(
        [np.insert(u[i] * rng.dirichlet(np.ones(k - 1)), i, 1 - u[i]) for i in range(k)])
    p = rng.dirichlet(np.ones(k))
    sol = solve_transition(model_consensus(t, p), k, OptimizerConfig(), seed=seed)
    assert estimation_error(t, sol.t) <= 1e-8
    np.testing.assert_allclose(sol.p, p, atol=1e-8)
    assert sol.converged


def _sampled_stats(t, p, n, seed):
    """Counted statistics of n triplets drawn i.i.d. from the consensus model."""
    rng = np.random.default_rng(seed)
    clean = rng.choice(t.k, size=n, p=p)
    cum = np.cumsum(t.t, axis=1)
    labels = (rng.random((n, 3))[..., None] > cum[clean][:, None, :]).sum(axis=2)
    return count_consensus(_triplets(np.minimum(labels, t.k - 1)), t.k)


def test_converged_false_at_max_iters():
    t = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=1), 10)
    stats = _sampled_stats(t, np.full(10, 0.1), 20_000, seed=1)
    capped = solve_transition(stats, 10, OptimizerConfig(max_iters=5), seed=0)
    assert not capped.converged
    assert capped.iterations_used == 10  # both polishes, capped at 5 each
    assert solve_transition(stats, 10, OptimizerConfig(), seed=0).converged


def test_polish_stops_when_no_gain_is_predicted():
    # with a stop gain below any representable gain, only the predicted-gain
    # rule ends a polish that already sits at its minimum
    t = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=1), 10)
    stats = _sampled_stats(t, np.full(10, 0.1), 20_000, seed=1)
    theta_t, theta_p, loss, _, _ = _descend(2.0 * np.eye(10), np.zeros(10), stats,
                                            OptimizerConfig())
    _, _, tight_loss, _, converged = _descend(
        theta_t, theta_p, stats, OptimizerConfig(max_iters=500, tolerance=1e-300))
    assert converged
    assert tight_loss <= loss


def _count_polishes(monkeypatch):
    calls = []

    def counted(*args):
        calls.append((args, _descend(*args)))
        return calls[-1][1]

    monkeypatch.setattr(tmest.hoc, "_descend", counted)
    return calls


def test_oracle_skips_near_identity_polish(monkeypatch):
    calls = _count_polishes(monkeypatch)
    t = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=0), 20)
    p = np.random.default_rng(0).dirichlet(np.ones(20))
    sol = solve_transition(model_consensus(t, p), 20, OptimizerConfig(), seed=0)
    assert sol.converged and sol.iterations_used <= 2
    assert len(calls) == 1


def test_counted_statistics_run_both_polishes(monkeypatch):
    calls = _count_polishes(monkeypatch)
    t = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=1), 10)
    stats = _sampled_stats(t, np.full(10, 0.1), 10_000, seed=3)
    sol = solve_transition(stats, 10, OptimizerConfig(), seed=0)
    assert len(calls) == 2
    # the spectral start goes first, the near-identity start second
    np.testing.assert_array_equal(calls[1][0][0], 2.0 * np.eye(10))
    assert sol.iterations_used == sum(polish[3] for _, polish in calls)
    assert sol.converged


def test_spectral_start_exact_and_dropped_when_rank_deficient():
    t = tm.validate_transition([[0.8, 0.1, 0.1], [0.05, 0.85, 0.1], [0.15, 0.05, 0.8]])
    p = np.array([0.2, 0.5, 0.3])
    theta_t, theta_p = _spectral_start(model_consensus(t, p), stage_rng(0, "optimizer"))
    order = np.argmax(_softmax(theta_t), axis=1)
    np.testing.assert_allclose(_softmax(theta_t)[np.argsort(order)], t.t, atol=1e-12)
    np.testing.assert_allclose(_softmax(theta_p)[np.argsort(order)], p, atol=1e-12)
    # two identical rows: sym(c2) has rank 2, so (T, p) is not identified
    same = tm.validate_transition([[0.8, 0.2, 0.0], [0.8, 0.2, 0.0], [0.1, 0.1, 0.8]])
    assert _spectral_start(model_consensus(same, p), stage_rng(0, "optimizer")) is None


def test_solver_deterministic():
    t = tm.validate_transition([[0.75, 0.25], [0.2, 0.8]])
    stats = model_consensus(t, [0.45, 0.55])
    a = solve_transition(stats, 2, OptimizerConfig(), seed=11)
    b = solve_transition(stats, 2, OptimizerConfig(), seed=11)
    np.testing.assert_array_equal(a.t.t, b.t.t)
    np.testing.assert_array_equal(a.p, b.p)
    assert a.final_loss == b.final_loss


def test_solver_rows_sum_to_one():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 3, (2000, 3))
    stats = count_consensus(_triplets(labels), 3)
    sol = solve_transition(stats, 3, OptimizerConfig(), seed=3)
    np.testing.assert_allclose(sol.t.t.sum(axis=1), np.ones(3), atol=1e-9)
    assert sol.p.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(sol.t.t >= 0) and np.all(sol.p >= 0)


def test_maximize_trace_exhaustive():
    from itertools import permutations
    rng = np.random.default_rng(3)
    for k in (2, 3, 4):
        for _ in range(20):
            t = rng.dirichlet(np.ones(k), size=k)
            p = rng.dirichlet(np.ones(k))
            t2, p2 = _maximize_trace(t.copy(), p.copy())
            best = max(np.trace(t[list(perm)]) for perm in permutations(range(k)))
            assert np.trace(t2) == pytest.approx(best, abs=1e-12)
            # the same permutation is applied to p
            order = [np.flatnonzero((t == row).all(axis=1))[0] for row in t2]
            np.testing.assert_array_equal(p2, p[order])


def test_solution_fields():
    t = tm.validate_transition([[0.7, 0.3], [0.3, 0.7]])
    sol = solve_transition(model_consensus(t, [0.5, 0.5]), 2, OptimizerConfig())
    assert isinstance(sol, HocSolution)
    assert isinstance(sol.t, TransitionMatrix)
    assert sol.iterations_used >= 1
    assert sol.final_loss >= 0.0


def test_stats_k_mismatch():
    t = tm.validate_transition([[0.7, 0.3], [0.3, 0.7]])
    with pytest.raises(DataError):
        solve_transition(model_consensus(t, [0.5, 0.5]), 3, OptimizerConfig())
