from dataclasses import fields

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
    _assignment,
    _em,
    _maximize_trace,
    _spectral_start,
    _stop_gain,
    count_consensus,
    model_consensus,
    solve_transition,
)
from tmest.noise import NoiseScheme, build_transition
from tmest.similarity import SimilarityWeights, get_2nn_triplets


def _sampled_stats(t, p, n, seed):
    """Counted statistics of n triplets drawn i.i.d. from the consensus model."""
    rng = np.random.default_rng(seed)
    clean = rng.choice(t.k, size=n, p=p)
    cum = np.cumsum(t.t, axis=1)
    labels = (rng.random((n, 3))[..., None] > cum[clean][:, None, :]).sum(axis=2)
    return count_consensus(np.minimum(labels, t.k - 1), t.k)


def test_count_consensus_hand_case():
    labels = np.array([[0, 0, 1], [0, 1, 0], [1, 1, 1], [0, 0, 0]])
    stats = count_consensus(labels, 2)
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
    stats = count_consensus(labels, 3)
    assert stats.c1.sum() == pytest.approx(1.0, abs=1e-12)
    assert stats.c2.sum() == pytest.approx(1.0, abs=1e-12)
    assert stats.c3.sum() == pytest.approx(1.0, abs=1e-12)
    # c1 and c2 are the marginals of c3, so the solver reads c3 alone
    np.testing.assert_allclose(stats.c1, stats.c3.sum(axis=(1, 2)), rtol=0, atol=1e-15)
    np.testing.assert_allclose(stats.c2, stats.c3.sum(axis=2), rtol=0, atol=1e-15)


def test_count_consensus_label_out_of_range():
    for bad in (2, -1):
        with pytest.raises(DataError, match="out of range"):
            count_consensus(np.array([[0, 0, bad], [0, 1, 0], [1, 0, 1]]), 2)


@pytest.mark.parametrize("labels,k,message", [
    ([[0.5, 0, 1], [0, 1, 0], [1, 0, 1]], 2, "triplet labels must be integers"),  # not 0
    (np.zeros((4, 2), dtype=int), 2, r"must have shape \(M, 3\), got \(4, 2\)"),
    (np.zeros(12, dtype=int), 2, r"must have shape \(M, 3\), got \(12,\)"),
    (np.zeros((2, 2, 3), dtype=int), 2, r"must have shape \(M, 3\), got \(2, 2, 3\)"),
    (np.zeros((3, 3), dtype=int), 2.5, "k must be an integer >= 2, got 2.5"),
    (np.zeros((3, 3), dtype=int), 2.0, "k must be an integer >= 2, got 2.0"),
], ids=["fraction", "pairs", "flat", "3-d", "fractional-k", "float-k"])
def test_count_consensus_rejects_bad_labels(labels, k, message):
    with pytest.raises(DataError, match=message):
        count_consensus(labels, k)


def test_model_consensus_needs_a_prior():
    t = TransitionMatrix(2, np.eye(2))
    with pytest.raises(DataError, match="needs a prior p"):
        model_consensus(t)
    with pytest.raises(DataError, match=r"prior p must have length K=2, got shape \(3,\)"):
        model_consensus(t, [0.2, 0.3, 0.5])
    np.testing.assert_array_equal(model_consensus(t, [0.5, 0.5]).c3,
                                  model_consensus(TransitionMatrix(2, np.eye(2), [0.5, 0.5])).c3)


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
    negative = np.full((2, 2, 2), 0.125)
    negative[0, 0, 0], negative[1, 1, 1] = 0.375, -0.125  # still sums to 1
    nan_entry = np.full((2, 2, 2), 0.125)
    nan_entry[0, 1, 0] = np.nan
    for c3, message in [
        (np.full((2, 2, 3), 1 / 12), "K x K x K"),
        (np.full((2, 2), 0.25), "K x K x K"),
        (np.array(1.0), "K x K x K"),
        (negative, "nonnegative"),
        (np.full((2, 2, 2), 0.1), "sum to 1"),
        (np.full((2, 2, 2), np.nan), "finite"),
        (nan_entry, "finite"),
        (np.full((2, 2, 2), np.inf), "finite"),
    ]:
        with pytest.raises(DataError, match=message):
            ConsensusStatistics(c3, 10)
    for n in (-5, 2.5, 10.0, None):
        with pytest.raises(DataError, match="integer >= 0"):
            ConsensusStatistics(np.full((2, 2, 2), 0.125), n)
    assert ConsensusStatistics(np.full((2, 2, 2), 0.125), np.int64(0)).n == 0
    stats = ConsensusStatistics(np.full((2, 2, 2), 0.125), 10)
    assert stats.k == 2 and stats.n == 10
    np.testing.assert_array_equal(stats.c1, [0.5, 0.5])
    np.testing.assert_array_equal(stats.c2, np.full((2, 2), 0.25))
    # c1 and c2 are read-only views of c3, not stored fields
    assert [f.name for f in fields(ConsensusStatistics)] == ["c3", "n"]
    with pytest.raises(AttributeError):
        stats.c1 = np.array([1.0, 0.0])


def test_count_consensus_rejects_zero_triplets():
    with pytest.raises(DataError, match="no triplets"):
        count_consensus(np.zeros((0, 3), dtype=np.int64), 3)


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from([2, 3, 10]), data=st.data())
def test_count_consensus_matches_reference(k, data):
    # labels may cover only part of [0, K); unseen labels get zero frequency
    used = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    n = data.draw(st.integers(3, 60))
    labels = np.array(data.draw(st.lists(st.lists(st.sampled_from(used), min_size=3,
                                                  max_size=3), min_size=n, max_size=n)))
    ref = np.zeros((k, k, k))
    np.add.at(ref, (labels[:, 0], labels[:, 1], labels[:, 2]), 1)
    singles, pairs = np.zeros(k), np.zeros((k, k))
    np.add.at(singles, labels[:, 0], 1)
    np.add.at(pairs, (labels[:, 0], labels[:, 1]), 1)
    stats = count_consensus(labels, k)
    assert stats.n == n and stats.k == k
    np.testing.assert_array_equal(stats.c3, ref / n)  # the division count_consensus makes
    np.testing.assert_allclose(stats.c1, singles / n, rtol=0, atol=1e-15)
    np.testing.assert_allclose(stats.c2, pairs / n, rtol=0, atol=1e-15)


def _fixed_graph():
    """One 2-NN graph whose row ids skip two zero rows, so rows != 0..M-1."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(150, 4))
    x[[3, 70]] = 0.0
    return get_2nn_triplets(tm.Dataset(x, np.zeros(150, dtype=int), 2),
                            SimilarityWeights())


_GRAPH = _fixed_graph()


@settings(max_examples=20, deadline=None)
@given(k=st.sampled_from([2, 3, 10]),
       seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=2, max_size=4))
def test_count_consensus_recounts_labels_on_fixed_graph(k, seeds):
    # redrawn labels are recounted on one graph without searching again
    rows, (n1, n2) = _GRAPH.rows, _GRAPH.indices.T
    for seed in seeds:
        y = np.random.default_rng(seed).integers(0, k, 150)
        ref = np.zeros((k, k, k))
        np.add.at(ref, (y[rows], y[n1], y[n2]), 1)
        stats = count_consensus(_GRAPH.labels(y), k)
        assert stats.n == rows.size == 148
        np.testing.assert_array_equal(stats.c3, ref / stats.n)


def _kl(stats, t, p):
    """Sum of c3 log(c3/m3) over the observed cells, from the model tensors."""
    m3 = model_consensus(tm.validate_transition(t), p).c3
    seen = stats.c3 > 0
    return float((stats.c3[seen] * np.log(stats.c3[seen] / m3[seen])).sum())


def test_loss_zero_at_truth():
    # final_loss is the KL divergence of the counts from the returned fit
    t = tm.validate_transition([[0.8, 0.2], [0.25, 0.75]])
    p = np.array([0.35, 0.65])
    assert abs(solve_transition(model_consensus(t, p), 2, OptimizerConfig()).final_loss) <= 1e-15
    stats = _sampled_stats(t, p, 2000, seed=0)
    sol = solve_transition(stats, 2, OptimizerConfig())
    assert sol.final_loss == pytest.approx(_kl(stats, sol.t.t, sol.t.p), rel=1e-9)
    assert 0 < sol.final_loss < _kl(stats, t.t, p)


@pytest.mark.parametrize("k", [2, 3, 5, 10])
def test_em_log_likelihood_never_decreases(k):
    rng = np.random.default_rng(k)
    t = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=k), k)
    stats = _sampled_stats(t, rng.dirichlet(np.ones(k)), 3000, seed=k)
    t0, p0 = rng.dirichlet(np.ones(k), size=k), rng.dirichlet(np.ones(k))
    losses = [_em(t0, p0, stats, OptimizerConfig(max_iters=m))[2] for m in range(1, 40)]
    assert np.all(np.diff(losses) <= 1e-15)
    assert losses[-1] < losses[0]


def test_polish_from_truth_stops_at_once():
    t = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=2), 6)
    p = np.random.default_rng(2).dirichlet(np.ones(6))
    t_em, p_em, loss, iters, converged = _em(t.t, p, model_consensus(t, p),
                                             OptimizerConfig())
    assert converged and iters <= 2
    assert abs(loss) <= 1e-15
    np.testing.assert_allclose(t_em, t.t, rtol=0, atol=1e-14)
    np.testing.assert_allclose(p_em, p, rtol=0, atol=1e-14)


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
    assert np.max(np.abs(sol.t.p - np.asarray(p_true))) < 1e-4
    # the KL divergence from exact statistics is 0 at the truth
    assert abs(sol.final_loss) <= 1e-12


@pytest.mark.parametrize("k", [5, 10, 20])
def test_oracle_round_trip_dirichlet(k):
    # small classes (min p ~ 1e-3 .. 5e-5 here) keep EM from the near-identity
    # start short of the truth after max_iters; the spectral start is exact
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
    np.testing.assert_allclose(sol.t.p, p, atol=1e-8)
    assert sol.converged


def test_converged_false_at_max_iters():
    t = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=1), 10)
    stats = _sampled_stats(t, np.full(10, 0.1), 20_000, seed=1)
    capped = solve_transition(stats, 10, OptimizerConfig(max_iters=5), seed=0)
    assert not capped.converged
    assert capped.iterations_used == 10  # both starts, capped at 5 EM iterations each
    assert solve_transition(stats, 10, OptimizerConfig(), seed=0).converged


def test_em_stops_at_first_small_gain():
    t = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=1), 10)
    stats = _sampled_stats(t, np.full(10, 0.1), 20_000, seed=1)
    start = (t.t, np.full(10, 0.1))
    *_, iters, converged = _em(*start, stats, OptimizerConfig())
    assert converged and iters > 2
    losses = [_em(*start, stats, OptimizerConfig(max_iters=m))[2]
              for m in (iters - 2, iters - 1, iters)]
    # the last iteration gains at most tolerance / n; the one before gains more
    stop = _stop_gain(stats, OptimizerConfig())
    assert stop == 1e-6 / 20_000
    assert losses[1] - losses[2] <= stop < losses[0] - losses[1]


def _count_runs(monkeypatch):
    calls = []

    def counted(*args):
        calls.append((args, _em(*args)))
        return calls[-1][1]

    monkeypatch.setattr(tmest.hoc, "_em", counted)
    return calls


def test_oracle_skips_near_identity_polish(monkeypatch):
    calls = _count_runs(monkeypatch)
    t = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=0), 20)
    p = np.random.default_rng(0).dirichlet(np.ones(20))
    sol = solve_transition(model_consensus(t, p), 20, OptimizerConfig(), seed=0)
    assert sol.converged and sol.iterations_used <= 2
    assert len(calls) == 1


def test_counted_statistics_run_both_polishes(monkeypatch):
    calls = _count_runs(monkeypatch)
    t = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=1), 10)
    stats = _sampled_stats(t, np.full(10, 0.1), 10_000, seed=3)
    sol = solve_transition(stats, 10, OptimizerConfig(), seed=0)
    assert len(calls) == 2
    # the spectral start goes first, the near-identity start (softmax(2I), uniform p) second
    near_identity = np.exp(2.0 * np.eye(10))
    np.testing.assert_allclose(calls[1][0][0], near_identity / near_identity.sum(axis=1)[:, None],
                               rtol=1e-15)
    np.testing.assert_array_equal(calls[1][0][1], np.full(10, 0.1))
    assert sol.iterations_used == sum(run[3] for _, run in calls)
    assert sol.converged


def test_near_identity_start_wins_on_counted_statistics(monkeypatch):
    # EM from the spectral start stops in a worse local optimum here; the
    # near-identity start finds a higher likelihood and a better estimate
    calls = _count_runs(monkeypatch)
    t = build_transition(NoiseScheme("dirichlet", avg_rate=0.3, seed=3), 3)
    stats = _sampled_stats(t, np.full(3, 1 / 3), 2000, seed=5)
    sol = solve_transition(stats, 3, OptimizerConfig(), seed=0)
    assert len(calls) == 2
    (_, spectral), (_, near_identity) = calls
    assert near_identity[2] < spectral[2] - 1e-4
    assert sol.final_loss == near_identity[2]
    spectral_t = _maximize_trace(spectral[0], spectral[1])[0]
    assert estimation_error(t, sol.t) < estimation_error(t, TransitionMatrix(3, spectral_t)) - 0.01


def test_spectral_start_exact_and_dropped_when_rank_deficient():
    t = tm.validate_transition([[0.8, 0.1, 0.1], [0.05, 0.85, 0.1], [0.15, 0.05, 0.8]])
    p = np.array([0.2, 0.5, 0.3])
    t0, p0 = _spectral_start(model_consensus(t, p), stage_rng(0, "optimizer"))
    order = np.argmax(t0, axis=1)
    np.testing.assert_allclose(t0[np.argsort(order)], t.t, atol=1e-12)
    np.testing.assert_allclose(p0[np.argsort(order)], p, atol=1e-12)
    # two identical rows: sym(c2) has rank 2, so (T, p) is not identified
    same = tm.validate_transition([[0.8, 0.2, 0.0], [0.8, 0.2, 0.0], [0.1, 0.1, 0.8]])
    assert _spectral_start(model_consensus(same, p), stage_rng(0, "optimizer")) is None


def test_solver_deterministic():
    t = tm.validate_transition([[0.75, 0.25], [0.2, 0.8]])
    stats = model_consensus(t, [0.45, 0.55])
    a = solve_transition(stats, 2, OptimizerConfig(), seed=11)
    b = solve_transition(stats, 2, OptimizerConfig(), seed=11)
    np.testing.assert_array_equal(a.t.t, b.t.t)
    np.testing.assert_array_equal(a.t.p, b.t.p)
    assert a.final_loss == b.final_loss


def test_solver_rows_sum_to_one():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 3, (2000, 3))
    stats = count_consensus(labels, 3)
    sol = solve_transition(stats, 3, OptimizerConfig(), seed=3)
    np.testing.assert_allclose(sol.t.t.sum(axis=1), np.ones(3), atol=1e-9)
    assert sol.t.p.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(sol.t.t >= 0) and np.all(sol.t.p >= 0)


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


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 6), levels=st.sampled_from([1, 2, 3, 0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_maximize_trace_attains_brute_force_maximum(k, levels, seed):
    # levels > 0 draws entries from {0, 1/levels, ..., 1}, so many assignments
    # tie; levels == 0 draws Dirichlet rows
    from itertools import permutations
    rng = np.random.default_rng(seed)
    t = (rng.integers(0, levels + 1, (k, k)) / levels if levels
         else rng.dirichlet(np.ones(k), size=k))
    p = rng.dirichlet(np.ones(k))
    perm = _assignment(-t)
    assert sorted(perm.tolist()) == list(range(k))
    t2, p2 = _maximize_trace(t, p)
    np.testing.assert_array_equal(t2, t[perm])
    np.testing.assert_array_equal(p2, p[perm])
    best = max(np.trace(t[list(order)]) for order in permutations(range(k)))
    assert np.trace(t2) == pytest.approx(best, abs=1e-12)


def test_solution_fields():
    t = tm.validate_transition([[0.7, 0.3], [0.3, 0.7]])
    sol = solve_transition(model_consensus(t, [0.5, 0.5]), 2, OptimizerConfig())
    assert isinstance(sol, HocSolution)
    assert isinstance(sol.t, TransitionMatrix)
    # the prior lives on the matrix alone
    assert [f.name for f in fields(HocSolution)] == [
        "t", "final_loss", "iterations_used", "converged"]
    np.testing.assert_allclose(sol.t.p, [0.5, 0.5], atol=1e-12)
    assert sol.iterations_used >= 1
    assert sol.final_loss >= 0.0


def test_stats_k_mismatch():
    t = tm.validate_transition([[0.7, 0.3], [0.3, 0.7]])
    with pytest.raises(DataError):
        solve_transition(model_consensus(t, [0.5, 0.5]), 3, OptimizerConfig())
    for k in (2.0, 2.5):  # never truncated to the statistics' K = 2
        with pytest.raises(DataError, match=f"k must be an integer >= 2, got {k}"):
            solve_transition(model_consensus(t, [0.5, 0.5]), k, OptimizerConfig())
