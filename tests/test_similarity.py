import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tmest as tm
from tmest.core import DataError
from tmest import similarity
from tmest.similarity import (
    _BUFFER_BYTES,
    _CHUNK,
    _block_rows,
    _distinct_rows,
    _score_bound,
    _top3_candidates,
    NeighborTriplets,
    SimilarityWeights,
    clusterability_rate,
    get_2nn_triplets,
    soft_cosine,
)

from conftest import two_blob_dataset

# query rows in the hypothesis search tests: several score blocks at any
# `_CHUNK` up to 512
MANY_ROWS = 2 * 512 + 150

# three reference points: which of X1/X2 is closer to X3 depends on W
X1 = np.array([1.0, 0.0, 1.0])
X2 = np.array([0.0, 1.0, 0.0])
X3 = np.array([0.8, 1.0, 0.7])
W3 = np.array([[1.0, -0.2, -0.5], [-0.2, 1.0, 0.5], [-0.5, 0.5, 1.0]])


def test_hard_cosine_golden_values():
    w = SimilarityWeights()
    assert soft_cosine(X1, X3, w) == pytest.approx(0.7268, abs=5e-4)
    assert soft_cosine(X2, X3, w) == pytest.approx(0.6852, abs=5e-4)


def test_diagonal_golden_values():
    w = SimilarityWeights([1.0, 1.0, 0.1])
    assert soft_cosine(X1, X3, w) == pytest.approx(0.6383, abs=5e-4)
    assert soft_cosine(X2, X3, w) == pytest.approx(0.7695, abs=5e-4)
    # down-weighting the third axis flips which point is nearer to X3
    assert soft_cosine(X1, X3, w) < soft_cosine(X2, X3, w)


def test_full_matrix_golden_values():
    w = SimilarityWeights(W3)
    assert soft_cosine(X1, X3, w) == pytest.approx(0.7519, abs=5e-4)
    assert soft_cosine(X2, X3, w) == pytest.approx(0.8522, abs=5e-4)
    assert soft_cosine(X1, X3, w) < soft_cosine(X2, X3, w)


def test_identity_matches_plain_cosine():
    rng = np.random.default_rng(0)
    w = SimilarityWeights()
    for _ in range(20):
        x, y = rng.normal(size=(2, 6))
        expect = x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
        assert soft_cosine(x, y, w) == pytest.approx(expect, abs=1e-12)


def test_scale_invariance():
    w = SimilarityWeights(W3)
    base = soft_cosine(X1, X3, w)
    assert soft_cosine(3.7 * X1, X3, w) == pytest.approx(base, abs=1e-12)
    assert soft_cosine(X1, 0.01 * X3, w) == pytest.approx(base, abs=1e-12)


def test_self_similarity_is_one():
    for w in (SimilarityWeights(),
              SimilarityWeights([2.0, 1.0, 0.5]),
              SimilarityWeights(W3)):
        assert soft_cosine(X3, X3, w) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_vector_rejected():
    z = np.zeros(3)
    with pytest.raises(DataError, match="degenerate"):
        soft_cosine(z, X1, SimilarityWeights())
    # nonzero vector killed by a zero weight
    w = SimilarityWeights([0.0, 0.0, 1.0])
    with pytest.raises(DataError, match="degenerate"):
        soft_cosine(np.array([1.0, 1.0, 0.0]), X1, w)


def test_asymmetric_full_matrix_rejected():
    bad = W3.copy()
    bad[0, 1] = 0.9
    with pytest.raises(DataError, match="symmetric"):
        SimilarityWeights(bad)


def test_indefinite_full_matrix_rejected():
    with pytest.raises(DataError, match="positive semidefinite"):
        SimilarityWeights([[1.0, 2.0], [2.0, 1.0]])
    SimilarityWeights([[1.0, 1.0], [1.0, 1.0]])  # singular PSD is fine


def test_weight_form_follows_shape():
    assert [f.name for f in fields(SimilarityWeights)] == ["w"]
    assert SimilarityWeights().form == "identity"
    assert SimilarityWeights().w is None
    assert SimilarityWeights([1.0, 0.5]).form == "diagonal"
    assert SimilarityWeights(W3).form == "full"
    assert SimilarityWeights(np.ones(3)).form == "diagonal"
    with pytest.raises(DataError, match=r"diagonal weights must be finite, got nan at index \[1\]"):
        SimilarityWeights([1.0, np.nan])
    with pytest.raises(DataError, match="full weights must be a square matrix"):
        SimilarityWeights(np.ones((2, 3)))
    with pytest.raises(DataError, match="square matrix"):
        SimilarityWeights(np.ones((2, 2, 2)))


@pytest.mark.parametrize("w,match", [
    ([1.0, np.inf], "diagonal weights must be finite"),
    ([1.0, np.nan], "diagonal weights must be finite"),
    ([[1.0, np.inf], [np.inf, 1.0]], "full weights must be finite"),
    ([[1.0, np.nan], [np.nan, 1.0]], "full weights must be finite"),
], ids=["diagonal-inf", "diagonal-nan", "full-inf", "full-nan"])
def test_non_finite_weights_rejected(w, match):
    with pytest.raises(DataError, match=match):
        SimilarityWeights(w)


def test_dimension_mismatch():
    with pytest.raises(DataError):
        soft_cosine(X1, X3, SimilarityWeights([1.0, 1.0]))
    with pytest.raises(DataError, match=r"one length, got shapes \(3,\) and \(2,\)"):
        soft_cosine(X1, X3[:2], SimilarityWeights())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_soft_cosine_rejects_non_finite_vectors(bad):
    for x, x2 in ((np.array([1.0, bad, 0.0]), X3), (X1, np.array([bad, 0.0, 1.0]))):
        with pytest.raises(DataError, match=f"x2? must be finite, got {bad} at index"):
            soft_cosine(x, x2, SimilarityWeights())


def _reference_sims(x, weights):
    """Soft-cosine similarities of every pair of rows of x."""
    if weights.form == "identity":
        w = np.eye(x.shape[1])
    elif weights.form == "diagonal":
        w = np.diag(weights.w)
    else:
        w = weights.w
    g = x @ w @ x.T
    norms = np.sqrt(np.diag(g))
    return g / np.outer(norms, norms)


def _stable_top2(sims):
    """Each row's two best columns, self excluded, ties to the lower column."""
    sims = sims.copy()
    np.fill_diagonal(sims, -np.inf)
    return np.argsort(-sims, axis=1, kind="stable")[:, :2]


def _reference_2nn(x, weights):
    """O(N^2) reference: stable argsort of similarities, self excluded."""
    return _stable_top2(_reference_sims(x, weights))


@pytest.mark.parametrize("seed,n,d", [(0, 50, 3), (1, 700, 5), (2, 1300, 8)])
def test_2nn_matches_reference(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    data = tm.Dataset(x, rng.integers(0, 3, n), 3)
    for weights in (SimilarityWeights(),
                    SimilarityWeights(rng.uniform(0.1, 1.0, d))):
        trip = get_2nn_triplets(data, weights)
        np.testing.assert_array_equal(trip.indices, _reference_2nn(x, weights))
        labels = trip.labels(data.noisy_labels)
        np.testing.assert_array_equal(labels[:, 0], data.noisy_labels)
        np.testing.assert_array_equal(labels[:, 1], data.noisy_labels[trip.indices[:, 0]])


def test_2nn_full_weight_matches_reference():
    rng = np.random.default_rng(3)
    n, d = 400, 3
    x = rng.normal(size=(n, d))
    data = tm.Dataset(x, rng.integers(0, 2, n), 2)
    r = rng.normal(size=(d, d))
    weights = SimilarityWeights(r.T @ r + 0.1 * np.eye(d))
    trip = get_2nn_triplets(data, weights)
    np.testing.assert_array_equal(trip.indices, _reference_2nn(x, weights))


def test_2nn_tie_breaks_to_lower_index():
    # exact duplicate rows force exact similarity ties; both the fast path
    # and the reference must then pick the lowest row indices
    rng = np.random.default_rng(4)
    base = rng.normal(size=(5, 4))
    which = rng.integers(0, 5, 300)
    x = base[which]
    data = tm.Dataset(x, rng.integers(0, 2, 300), 2)
    w = SimilarityWeights()
    trip = get_2nn_triplets(data, w)
    # every duplicated row's neighbors are the two lowest other duplicates
    for i in range(300):
        dupes = np.flatnonzero(which == which[i])
        expect = [j for j in dupes if j != i][:2]
        assert trip.indices[i].tolist() == expect


def test_2nn_small_n_edge():
    x = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
    data = tm.Dataset(x, np.array([0, 0, 1]), 2)
    trip = get_2nn_triplets(data, SimilarityWeights())
    assert trip.indices[0].tolist() == [1, 2]
    assert trip.labels(data.noisy_labels)[0].tolist() == [0, 0, 1]


def test_neighbor_triplets_distinctness():
    with pytest.raises(DataError, match="distinct"):
        NeighborTriplets([0, 1, 2], np.array([[0, 1], [0, 2], [0, 1]]))
    with pytest.raises(DataError, match="distinct"):
        NeighborTriplets([0, 1, 2], np.array([[1, 1], [0, 2], [0, 1]]))
    # distinctness is checked against the query row ids, not positions
    NeighborTriplets([2, 0], np.array([[0, 3], [3, 4]]))
    with pytest.raises(DataError, match="distinct"):
        NeighborTriplets([3, 0], np.array([[0, 3], [1, 4]]))


def test_neighbor_triplets_hold_a_graph_only():
    assert [f.name for f in fields(NeighborTriplets)] == ["rows", "indices"]
    with pytest.raises(TypeError):
        NeighborTriplets(np.array([[1, 2], [2, 0], [0, 1]]))  # rows have no default
    for rows, indices in (([0, 1], [[1, 2], [2, 0], [0, 1]]), ([[0], [1]], [[1, 2], [2, 0]]),
                          ([0, 1], [[1, 2, 3], [2, 0, 3]])):
        with pytest.raises(DataError, match="one \\(row id, index pair\\) per query row"):
            NeighborTriplets(rows, indices)
    # ids that are not whole numbers are an error, never truncated
    with pytest.raises(DataError, match="row ids must be integers"):
        NeighborTriplets([0.7, 1.2], [[1, 2], [2, 0]])
    with pytest.raises(DataError, match="neighbor indices must be integers"):
        NeighborTriplets([0, 1], [[1.9, 2.5], [2, 0]])


def test_neighbor_triplets_read_labels_through_the_graph():
    graph = NeighborTriplets([2, 0], [[0, 3], [3, 4]])
    y = np.array([10, 11, 12, 13, 14])
    np.testing.assert_array_equal(graph.labels(y), [[12, 10, 13], [10, 13, 14]])
    # the same graph reads any label vector, floats included, unchanged
    np.testing.assert_array_equal(graph.labels(y / 2), [[6.0, 5.0, 6.5], [5.0, 6.5, 7.0]])
    for labels in (y[:, None], y[:4]):
        with pytest.raises(DataError, match="need one label per row id of the graph"):
            graph.labels(labels)
    with pytest.raises(DataError, match="row ids must be nonnegative"):
        NeighborTriplets([-1, 0], [[0, 3], [3, 4]])


def _weights_of(form, rng, d):
    if form == "identity":
        return SimilarityWeights()
    if form == "diagonal":
        return SimilarityWeights(rng.uniform(0.1, 1.0, d))
    r = rng.normal(size=(d, d))
    return SimilarityWeights(r.T @ r + 0.1 * np.eye(d))


def test_2nn_excludes_zero_norm_rows():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(203, 4))
    x[[0, 57, 202]] = 0.0
    keep = np.setdiff1d(np.arange(203), [0, 57, 202])
    data = tm.Dataset(x, rng.integers(0, 2, 203), 2)
    for form in ("identity", "diagonal", "full"):
        weights = _weights_of(form, rng, 4)
        trip = get_2nn_triplets(data, weights)
        np.testing.assert_array_equal(trip.rows, keep)
        np.testing.assert_array_equal(trip.indices,
                                      keep[_reference_2nn(x[keep], weights)])
        labels = trip.labels(data.noisy_labels)
        np.testing.assert_array_equal(labels[:, 0], data.noisy_labels[keep])
        np.testing.assert_array_equal(labels[:, 2], data.noisy_labels[trip.indices[:, 1]])


def test_2nn_zero_weight_excludes_row():
    # a nonzero row that lives only on a zero-weight axis is degenerate too
    x = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.5, 0.5], [0.0, 2.0]])
    data = tm.Dataset(x, np.array([0, 0, 1, 1, 0]), 2)
    trip = get_2nn_triplets(data, SimilarityWeights([1.0, 0.0]))
    assert trip.rows.tolist() == [0, 1, 3]
    assert trip.indices.tolist() == [[1, 3], [0, 3], [0, 1]]
    # rows that differ only on a zero-weight axis have one weighted unit row:
    # they are copies, and tie to the lower row
    rng = np.random.default_rng(12)
    n, g = 900, 30
    base = rng.normal(size=(g, 3))
    which = rng.integers(0, g, n)
    x = np.column_stack([base[which], rng.normal(size=n)])
    w = rng.uniform(0.1, 1.0, 3)
    expect = _stable_top2(_reference_sims(base, SimilarityWeights(w))[which][:, which])
    trip = get_2nn_triplets(tm.Dataset(x, rng.integers(0, 2, n), 2),
                            SimilarityWeights(np.append(w, 0.0)))
    np.testing.assert_array_equal(trip.rows, np.arange(n))
    np.testing.assert_array_equal(trip.indices, expect)


def test_2nn_too_few_nondegenerate_rows():
    x = np.zeros((5, 3))
    x[1] = [1.0, 0.0, 0.0]
    x[3] = [0.0, 1.0, 0.0]
    data = tm.Dataset(x, np.zeros(5, dtype=int), 2)
    with pytest.raises(DataError, match="at least 3 rows with nonzero weighted norm"):
        get_2nn_triplets(data, SimilarityWeights())


def _dyadic_case(rng, n, d, distinct, form):
    """Rows drawn from a few vectors, with similarities exact in floating point.

    Weights are powers of 4 (permuted with sign flips for the full form),
    vector entries are 0 or +-2^s, and a vector is kept only if its weighted
    squared norm is a power of 4.  Unit rows then hold short dyadic fractions,
    so every dot product is exact in any summation order: duplicated and
    positively scaled rows tie exactly, whatever kernel the matrix product
    uses.  (Generic duplicated floats do not: a BLAS product may give two
    copies of a row scores one ulp apart.)
    """
    diag = np.ones(d) if form == "identity" else 4.0 ** rng.integers(0, 2, d)
    if form == "full":
        perm = np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], d)
        weights = SimilarityWeights(perm.T @ np.diag(diag) @ perm)
        w = weights.w
    else:
        weights = (SimilarityWeights() if form == "identity"
                   else SimilarityWeights(diag))
        w = np.diag(diag)
    cand = rng.integers(-1, 2, size=(4000, d)).astype(float)
    sq = np.einsum("ij,jk,ik->i", cand, w, cand)
    pool = cand[(sq > 0) & (np.log2(np.maximum(sq, 1)) % 2 == 0)][:distinct]
    pool *= 2.0 ** rng.integers(-2, 3, (len(pool), 1))
    return pool[rng.integers(0, len(pool), n)], weights


@settings(max_examples=12, deadline=None)
@given(n=st.integers(3, MANY_ROWS), d=st.integers(4, 8),
       distinct=st.integers(1, 40), form=st.sampled_from(["identity", "diagonal", "full"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=3, d=4, distinct=1, form="identity", seed=0)
@example(n=3, d=5, distinct=1, form="diagonal", seed=1)
@example(n=3, d=6, distinct=1, form="full", seed=2)
def test_2nn_matches_reference_with_ties(n, d, distinct, form, seed):
    rng = np.random.default_rng(seed)
    x, weights = _dyadic_case(rng, n, d, distinct, form)
    data = tm.Dataset(x, rng.integers(0, 3, n), 3)
    trip = get_2nn_triplets(data, weights)
    np.testing.assert_array_equal(trip.indices, _reference_2nn(x, weights))


@settings(max_examples=12, deadline=None)
@given(n=st.integers(3, MANY_ROWS), d=st.integers(2, 6),
       form=st.sampled_from(["identity", "diagonal", "full"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_2nn_permutation_equivariant(n, d, form, seed):
    # continuous data has no exact ties, so the neighbors follow the rows
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.integers(0, 3, n)
    weights = _weights_of(form, rng, d)
    perm = rng.permutation(n)
    base = get_2nn_triplets(tm.Dataset(x, y, 3), weights)
    moved = get_2nn_triplets(tm.Dataset(x[perm], y[perm], 3), weights)
    np.testing.assert_array_equal(perm[moved.indices], base.indices[perm])
    np.testing.assert_array_equal(moved.labels(y[perm]), base.labels(y)[perm])


def _unit(m):
    return m / np.sqrt(np.einsum("ij,ij->i", m, m))[:, None]


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 512), near=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_float32_score_error_within_bound(d, near, seed):
    # random rows, or rows within a relative distance of 1e-8 to 1e-2 of their
    # partners (scores near 1), with entry scales spread over six decades
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(64, d)) * 10.0 ** rng.uniform(-3, 3, d)
    b = a + 10.0 ** rng.uniform(-8, -2) * np.abs(a) * rng.normal(size=a.shape) if near \
        else rng.normal(size=a.shape)
    a, b = _unit(a), _unit(b)
    s32 = (a.astype(np.float32) @ b.astype(np.float32).T).astype(np.float64)
    assert np.max(np.abs(s32 - a @ b.T)) <= _score_bound(d)
    assert _score_bound(d) < (d + 3) * 2.0 ** -24


def test_2nn_near_tie_decided_in_float64():
    # against row 0, row 2 scores 1e-9 above row 1: float32 rounds both scores
    # to one value, so only the float64 search orders them
    rng = np.random.default_rng(7)
    c = 0.8
    far = rng.normal(size=(300, 3))
    far[:, 0] = -np.abs(far[:, 0])
    x = np.vstack([[1.0, 0.0, 0.0],
                   [c, np.sqrt(1 - c * c), 0.0],
                   [c + 1e-9, 0.0, np.sqrt(1 - (c + 1e-9) ** 2)],
                   far])
    unit = _unit(x)
    s1, s2 = unit[0] @ unit[1], unit[0] @ unit[2]
    assert 0.5e-9 < s2 - s1 < 2e-9 and np.float32(s1) == np.float32(s2)
    data = tm.Dataset(x, rng.integers(0, 2, len(x)), 2)
    trip = get_2nn_triplets(data, SimilarityWeights())
    assert trip.indices[0].tolist() == [2, 1]
    np.testing.assert_array_equal(trip.indices, _reference_2nn(x, SimilarityWeights()))


def test_2nn_second_slot_tie_decided_in_float64():
    # row 0 has one clear nearest row (5, score 1/2) and an exact tie for the
    # second slot (rows 2 and 9, score 1/4; dyadic rows, so exact in float32
    # too).  Among `_top3_candidates`' columns row 9 comes first (it shares
    # row 5's strided group), so only the margin on the second slot sends the
    # tie to the float64 pass and the lower-index rule.
    d = 16
    x = np.zeros((32, d))
    x[0, 0] = 1.0
    x[5, :4] = 1.0
    x[9] = 1.0
    x[2] = 1.0
    x[2, 1::2] = -1.0
    others = [i for i in range(32) if i not in (0, 2, 5, 9)]
    for k, i in enumerate(others):
        x[i, 1 + k % 15] = 1.0 if k < 15 else -1.0
    data = tm.Dataset(x, np.arange(32) % 2, 2)
    trip = get_2nn_triplets(data, SimilarityWeights())
    assert trip.indices[0].tolist() == [5, 2]
    np.testing.assert_array_equal(trip.indices, _reference_2nn(x, SimilarityWeights()))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(3, MANY_ROWS), d=st.integers(2, 8), distinct=st.integers(1, 30),
       form=st.sampled_from(["identity", "diagonal", "full"]), scaled=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=3, d=2, distinct=1, form="identity", scaled=False, seed=0)
@example(n=3, d=3, distinct=1, form="diagonal", scaled=False, seed=1)
@example(n=3, d=4, distinct=1, form="full", scaled=False, seed=2)
# scaled copies that score one ulp apart when they are scored as separate rows
@example(n=467, d=4, distinct=29, form="identity", scaled=True, seed=37)
@example(n=1136, d=8, distinct=29, form="diagonal", scaled=True, seed=264)
@example(n=837, d=7, distinct=29, form="full", scaled=True, seed=94)
# exact copies whose full-form weighting by a BLAS product differs in the last bit
@example(n=66, d=18, distinct=22, form="full", scaled=False, seed=7)
def test_2nn_duplicate_rows_break_ties_to_lower_index(n, d, distinct, form, scaled, seed):
    # generic floats repeated, and with `scaled` each copy times a power of
    # two, which leaves its weighted unit row bitwise unchanged: every copy of
    # a row must score the same, so a row's neighbors follow a stable sort of
    # similarities computed once per pair of distinct rows, and its copies
    # come lowest index first
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(distinct, d))
    which = rng.integers(0, distinct, n)
    weights = _weights_of(form, rng, d)
    expect = _stable_top2(_reference_sims(base, weights)[which][:, which])
    x = base[which] * 2.0 ** rng.integers(-3, 4, (n, 1)) if scaled else base[which]
    trip = get_2nn_triplets(tm.Dataset(x, rng.integers(0, 3, n), 3), weights)
    np.testing.assert_array_equal(trip.indices, expect)


@pytest.mark.parametrize("sizes,zero", [
    ((3,), None), ((5,), None),                    # G = 1: every row a copy
    ((1, 2), None), ((1, 5), None), ((2, 2), None),  # G = 2
    ((2, 3, 2), 1), ((1, 3, 1), 2),                # G = 3, one group of zero rows
], ids=["g1-n3", "g1-n5", "g2-1-2", "g2-1-5", "g2-2-2", "g3-zero-2-3-2", "g3-zero-1-3-1"])
@pytest.mark.parametrize("form", ["identity", "diagonal", "full"])
@pytest.mark.parametrize("float64_only", [False, True])
def test_2nn_few_groups(monkeypatch, sizes, zero, form, float64_only):
    # entries past the last group score -inf in the sure test and the
    # expansion; with an infinite score bound every group goes to float64
    if float64_only:
        monkeypatch.setattr(similarity, "_score_bound", lambda d: np.inf)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        d = 4
        base = rng.normal(size=(len(sizes), d))
        if zero is not None:
            base[zero] = 0.0
        which = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        weights = _weights_of(form, rng, d)
        live = np.flatnonzero(base.any(axis=1))
        keep = np.flatnonzero(np.isin(which, live))
        groups = np.searchsorted(live, which[keep])
        expect = keep[_stable_top2(_reference_sims(base[live], weights)[groups][:, groups])]
        data = tm.Dataset(base[which], rng.integers(0, 2, which.size), 2)
        trip = get_2nn_triplets(data, weights)
        np.testing.assert_array_equal(trip.rows, keep)
        np.testing.assert_array_equal(trip.indices, expect)


def test_2nn_searches_distinct_rows_only(monkeypatch):
    # 20 000 rows drawn from 200 distinct rows: every score block is 200
    # columns wide, one per distinct row, and copies still tie to the lower row
    rng = np.random.default_rng(11)
    n, g, d = 20_000, 200, 8
    base = rng.normal(size=(g, d))
    which = rng.integers(0, g, n)
    widths = []

    def spy(sims):
        widths.append(sims.shape[1])
        return _top3_candidates(sims)

    monkeypatch.setattr(similarity, "_top3_candidates", spy)
    weights = SimilarityWeights(rng.uniform(0.1, 1.0, d))
    trip = get_2nn_triplets(tm.Dataset(base[which], rng.integers(0, 2, n), 2), weights)
    assert widths and set(widths) == {g}
    # `_stable_top2` of the N x N similarities, built from the columns that can
    # hold a row's lowest-index best two: the three lowest rows of each group
    cols = np.sort(np.concatenate([np.flatnonzero(which == k)[:3] for k in range(g)]))
    sims = _reference_sims(base, weights)
    for block in np.array_split(np.arange(n), 10):
        part = sims[which[block]][:, which[cols]]
        part[block[:, None] == cols] = -np.inf
        expect = cols[np.argsort(-part, axis=1, kind="stable")[:, :2]]
        np.testing.assert_array_equal(trip.indices[block], expect)


def test_distinct_rows_exact_under_hash_collisions(monkeypatch):
    rng = np.random.default_rng(8)
    base = rng.normal(size=(6, 3))
    base[5, 0] = 0.0
    which = rng.integers(0, 6, 400)
    x = base[which]
    x[np.flatnonzero(which == 5)[::2], 0] = -0.0  # -0.0 and 0.0 copies group together
    _, seen, inv = np.unique(which, return_index=True, return_inverse=True)
    expect_first = np.sort(seen)
    expect_inverse = np.searchsorted(expect_first, seen[inv])
    data = tm.Dataset(x, rng.integers(0, 2, 400), 2)
    trip = get_2nn_triplets(data, SimilarityWeights())
    for _ in range(2):
        first, inverse = _distinct_rows(x)
        np.testing.assert_array_equal(first, expect_first)
        np.testing.assert_array_equal(inverse, expect_inverse)
        np.testing.assert_array_equal(
            get_2nn_triplets(data, SimilarityWeights()).indices, trip.indices)
        # every row hashing alike forces the exact fallback
        monkeypatch.setattr(similarity, "_row_hash", lambda bits: np.zeros(len(bits), np.uint64))


def test_score_buffer_bounded_by_bytes(monkeypatch):
    assert _block_rows(20_000, 4) == _block_rows(20_000, 8) == _CHUNK
    assert _block_rows(10 ** 6, 8) * 8 * 10 ** 6 <= _BUFFER_BYTES
    assert _block_rows(10 ** 9, 8) == 1
    # a budget of three float32 rows: many blocks in both passes, same neighbors
    rng = np.random.default_rng(9)
    n = 257
    x = rng.normal(size=(n, 4))[rng.integers(0, n, n)]
    data = tm.Dataset(x, rng.integers(0, 2, n), 2)
    expect = get_2nn_triplets(data, SimilarityWeights())
    monkeypatch.setattr(similarity, "_BUFFER_BYTES", 3 * 4 * n)
    assert _block_rows(n, 4) == 3
    trip = get_2nn_triplets(data, SimilarityWeights())
    np.testing.assert_array_equal(trip.indices, expect.indices)
    # an infinite score bound sends every group to the float64 pass
    monkeypatch.setattr(similarity, "_score_bound", lambda d: np.inf)
    trip = get_2nn_triplets(data, SimilarityWeights())
    np.testing.assert_array_equal(trip.indices, expect.indices)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 4), width=st.one_of(st.integers(1, 31), st.integers(24, 300)),
       levels=st.integers(1, 6), p_inf=st.sampled_from([0.0, 0.1, 0.5, 0.95]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_top3_candidates_hold_each_rows_top_three(rows, width, levels, p_inf, seed):
    # few distinct values force ties, and -inf entries may fill whole groups
    rng = np.random.default_rng(seed)
    sims = rng.integers(0, levels, (rows, width)).astype(np.float32)
    sims[rng.random((rows, width)) < p_inf] = -np.inf
    cols = _top3_candidates(sims)
    assert cols.shape[0] == rows and cols.shape[1] <= max(width, 31)
    for row, cand in zip(sims, cols):
        assert np.unique(cand).size == cand.size
        assert cand.min() >= 0 and cand.max() < width
        np.testing.assert_array_equal(np.sort(row[cand])[-3:], np.sort(row)[-3:])


def test_2nn_working_set_bounded():
    # traced peak: a 128-row float32 score block plus three N x d float64
    # arrays, with all rows distinct and with 1000 copied rows
    rng = np.random.default_rng(10)
    n, d = 20_000, 40
    x = rng.normal(size=(n, d))
    weights = SimilarityWeights(rng.uniform(0.1, 1.0, d))
    copied = x.copy()
    copied[-1000:] = x[rng.integers(0, n - 1000, 1000)]
    for feats in (x, copied):
        data = tm.Dataset(feats, rng.integers(0, 2, n), 2)
        tracemalloc.start()
        try:
            get_2nn_triplets(data, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * n * 4 + 3 * n * d * 8 + (1 << 20)


def test_clusterability_separated_blobs():
    data = two_blob_dataset(0, n=600, sep=4.0)
    rate = clusterability_rate(data, SimilarityWeights())
    assert rate > 0.95


def test_clusterability_requires_clean_labels():
    rng = np.random.default_rng(5)
    data = tm.Dataset(rng.normal(size=(20, 3)), rng.integers(0, 2, 20), 2)
    with pytest.raises(DataError):
        clusterability_rate(data, SimilarityWeights())
