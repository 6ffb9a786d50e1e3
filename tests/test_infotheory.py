import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tmest.cli import main
from tmest.core import DIVERGENCES, DataError, Dataset, NoiseRatePair, save_dataset
from tmest.infotheory import (
    _BATCH,
    MIEstimate,
    build_weights,
    estimate_fmi_per_dim,
    kl_bias_argmax,
    kl_noise_bias,
    kl_order_gap,
    practical_gap,
)


def _fmi(column, labels, kind="tv", bins=15):
    """f-MI of one feature column: `estimate_fmi_per_dim` on that column alone."""
    return estimate_fmi_per_dim(np.asarray(column)[:, None], labels, kind, bins).per_dim[0]


def _perfect_pair(n=1000):
    """Column fully determined by a balanced binary label."""
    y = np.arange(n) % 2
    return np.where(y == 0, -1.0, 1.0) + 0.0, y


def test_kl_perfectly_informative_is_one_bit():
    col, y = _perfect_pair()
    assert _fmi(col, y, "kl", bins=2) == pytest.approx(1.0, abs=1e-12)


def test_tv_perfectly_informative_is_half():
    col, y = _perfect_pair()
    assert _fmi(col, y, "tv", bins=2) == pytest.approx(0.5, abs=1e-12)


def test_divergence_kind_may_be_given_by_value():
    x = np.arange(20.0)[:, None]
    y = (x[:, 0] >= 10).astype(int)
    assert estimate_fmi_per_dim(x, y, "kl", bins=2).per_dim[0] == pytest.approx(1.0)
    assert estimate_fmi_per_dim(x, y, "tv", bins=2).per_dim[0] == 0.5  # TV, not KL's 1.0
    with pytest.raises(DataError,
                       match="unknown f-divergence kind 'bogus' \\(choose from kl, tv\\)"):
        estimate_fmi_per_dim(x, y, "bogus", bins=2)
    with pytest.raises(DataError, match="unknown f-divergence kind"):
        estimate_fmi_per_dim(x, y, np.array(["kl", "tv"]), bins=2)


def test_independent_column_near_zero():
    rng = np.random.default_rng(0)
    n = 10_000
    y = rng.integers(0, 2, n)
    col = rng.normal(size=n)
    assert _fmi(col, y, "kl") < 0.01
    assert _fmi(col, y, "tv") < 0.05


def test_constant_column_zero_mi():
    y = np.arange(100) % 2
    col = np.zeros(100)
    assert _fmi(col, y, "kl") == 0.0
    assert _fmi(col, y, "tv") == 0.0


def _independent_category_csv(path):
    """105 rows: f1 is a category exactly independent of the label
    (category x label counts [[4, 20, 20], [5, 25, 25], [1, 5, 5]]), f0 the
    label plus N(0, 0.3^2) noise."""
    counts = np.array([[4, 20, 20], [5, 25, 25], [1, 5, 5]])
    cat, y = np.nonzero(counts)
    cat, y = np.repeat(cat, counts[cat, y]), np.repeat(y, counts[cat, y])
    f0 = y + 0.3 * np.random.default_rng(0).normal(size=y.size)
    save_dataset(Dataset(np.column_stack([f0, cat.astype(float)]), y, 3), str(path))
    return f0, cat.astype(float), y


def test_independent_category_has_zero_kl(tmp_path, capsys):
    # the KL sum of this table rounds to about -1e-17 unless clamped
    path = tmp_path / "independent.csv"
    f0, f1, y = _independent_category_csv(path)
    assert _fmi(f1, y, "kl") == 0.0
    per_dim = estimate_fmi_per_dim(np.column_stack([f0, f1]), y, "kl").per_dim
    assert per_dim[0] > 0 and per_dim[1] == 0.0
    assert main(["mi", "--input", str(path), "--divergence", "kl"]) == 0
    assert capsys.readouterr().out.splitlines()[2].startswith("1,0.0,")
    assert main(["estimate", "--input", str(path), "--variant", "x-kl"]) == 0


def test_mi_matches_four_cell_hand_count():
    # 8 samples, bins=2 -> joint counts [[3,1],[1,3]]
    col = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    y = np.array([0, 0, 0, 1, 0, 1, 1, 1])
    joint = np.array([[3, 1], [1, 3]]) / 8
    prod = np.outer(joint.sum(1), joint.sum(0))
    expect_kl = float((joint * np.log2(joint / prod)).sum())
    expect_tv = 0.5 * float(np.abs(joint - prod).sum())
    assert _fmi(col, y, "kl", bins=2) == pytest.approx(expect_kl)
    assert _fmi(col, y, "tv", bins=2) == pytest.approx(expect_tv)


def test_estimate_fmi_input_checks():
    with pytest.raises(DataError):
        _fmi(np.zeros((5, 2)), np.zeros(5, dtype=int))
    with pytest.raises(DataError):
        _fmi(np.zeros(5), np.zeros(5, dtype=int), bins=15)
    with pytest.raises(DataError, match="bins must be an integer >= 2"):
        estimate_fmi_per_dim(np.zeros((5, 2)), np.zeros(5, dtype=int), bins=1)


def test_per_dim_rejects_1d_features():
    with pytest.raises(DataError, match="features must be a 2-d array"):
        estimate_fmi_per_dim(np.zeros(20), np.zeros(20, dtype=int))


def test_estimate_fmi_rejects_negative_labels():
    y = np.arange(20) % 2
    y[3] = -1
    with pytest.raises(DataError, match="labels must be nonnegative"):
        _fmi(np.arange(20.0), y)


def test_per_dim_rejects_nan_column():
    x = np.random.default_rng(3).normal(size=(30, 3))
    x[7, 2] = np.nan
    with pytest.raises(DataError, match=r"features must be finite, got nan at index \[7, 2\]"):
        estimate_fmi_per_dim(x, np.arange(30) % 2)


def test_estimate_fmi_rejects_fractional_labels():
    y = (np.arange(20) % 2).astype(float)
    y[5] = 0.5
    with pytest.raises(DataError, match="labels must be integers"):
        _fmi(np.arange(20.0), y)


def _reference_fmi(column, labels, kind, bins):
    """Per-column plug-in f-MI from np.quantile edges and np.searchsorted."""
    edges = np.quantile(column, np.linspace(0.0, 1.0, bins + 1))
    b = np.searchsorted(np.unique(edges)[1:-1], column, side="right")
    nb, ny = int(b.max()) + 1, int(labels.max()) + 1
    joint = np.bincount(b * ny + labels, minlength=nb * ny).reshape(nb, ny)
    joint = joint / joint.sum()
    prod = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    if kind == "tv":
        return 0.5 * float(np.abs(joint - prod).sum())
    nz = joint > 0
    return float(np.sum(joint[nz] * np.log2(joint[nz] / prod[nz])))


@pytest.mark.parametrize("k", [2, 3, 10])
@pytest.mark.parametrize("n", [15, 16, 997])
def test_per_dim_bit_identical_to_per_column_reference(k, n):
    rng = np.random.default_rng(k * 1000 + n)
    y = rng.integers(0, k, n)
    x = np.column_stack([
        rng.normal(size=n),                                   # continuous
        np.full(n, 2.5),                                      # constant
        rng.integers(0, 3, n).astype(float),                  # three values
        np.where(rng.random(n) < 0.9, 0.0, rng.normal(size=n)),  # mostly zeros
        y + 0.1 * rng.normal(size=n),                         # informative
        1e300 * rng.normal(size=n),                           # huge scale
        1e-300 * rng.normal(size=n),                          # tiny scale
        np.round(rng.normal(size=n), 1),                      # rounded ties
        -0.0 * np.ones(n),                                    # negative zeros
        rng.permutation(n).astype(float),                     # all distinct
        np.r_[np.zeros(n - n // 10), np.arange(1.0, n // 10 + 1)],  # heavy ties
    ])
    for kind in DIVERGENCES:
        got = estimate_fmi_per_dim(x, y, kind).per_dim
        expect = [_reference_fmi(x[:, j], y, kind, 15) for j in range(x.shape[1])]
        np.testing.assert_array_equal(got, expect)
        for j in range(x.shape[1]):
            assert _fmi(x[:, j], y, kind) == expect[j]


def test_per_dim_working_set_bounded():
    # traced peak: three arrays of one batch of columns, however many columns
    rng = np.random.default_rng(4)
    n, d = 20_000, 40
    x, y = rng.normal(size=(n, d)), rng.integers(0, 2, n)
    tracemalloc.start()
    try:
        estimate_fmi_per_dim(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * _BATCH * n * 8 + (1 << 20)


def test_per_dim_ordering():
    rng = np.random.default_rng(2)
    n = 4000
    y = rng.integers(0, 2, n)
    x = np.column_stack([
        np.where(y == 0, -2.0, 2.0) + rng.normal(size=n),   # strong
        np.where(y == 0, -0.5, 0.5) + rng.normal(size=n),   # weak
        rng.normal(size=n),                                 # none
    ])
    for kind in DIVERGENCES:
        mi = estimate_fmi_per_dim(x, y, kind)
        assert mi.per_dim[0] > mi.per_dim[1] > mi.per_dim[2]


def test_build_weights_minmax_hand_case():
    mi = MIEstimate(np.array([1.0, 0.25, 0.0]))
    w = build_weights(mi, "minmax")
    np.testing.assert_allclose(w.w, [1.0, 0.25, 1e-3])


def test_build_weights_uniform_mi():
    mi = MIEstimate(np.array([0.3, 0.3, 0.3]))
    np.testing.assert_array_equal(build_weights(mi).w, [1.0, 1.0, 1.0])


def test_build_weights_log_minmax_preserves_order():
    mi = MIEstimate(np.array([0.5, 0.05, 0.005, 0.0]))
    w = build_weights(mi, "log-minmax").w
    assert w[0] == 1.0
    assert np.all(np.diff(w) < 0) or w[-2] == w[-1]  # floored tail may tie
    assert np.all(w > 0) and np.all(w <= 1)


def test_build_weights_unknown_activation():
    mi = MIEstimate(np.array([1.0, 0.5]))
    with pytest.raises(DataError):
        build_weights(mi, "softmax")


@settings(max_examples=60, deadline=None)
@given(mi=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=30),
       activation=st.sampled_from(["minmax", "log-minmax"]))
def test_build_weights_in_unit_interval_with_max_one(mi, activation):
    weights = build_weights(MIEstimate(np.array(mi)), activation)
    assert weights.form == "diagonal" and weights.w.shape == (len(mi),)
    assert np.all(weights.w > 0) and np.all(weights.w <= 1)
    assert weights.w.max() == 1.0


def test_kl_order_gap_symmetric_closed_form():
    # symmetric rates reduce to H2(e) - 2e
    for e in (0.1, 0.2, 0.25, 0.4):
        rates = NoiseRatePair(e, e)
        h2 = -e * math.log2(e) - (1 - e) * math.log2(1 - e)
        assert kl_order_gap(rates) == pytest.approx(h2 - 2 * e, abs=1e-12)
    assert kl_order_gap(NoiseRatePair(0.25, 0.25)) == pytest.approx(0.31128, abs=5e-5)


def test_kl_order_gap_adds_binary_entropy_bit_for_bit():
    # the documented closed form, with H2(e) added as one term, gives the same bits
    for e1 in np.linspace(0.02, 0.48, 9):
        for e2 in np.linspace(0.01, 0.49, 9):
            e, delta = max(e1, e2), min(e1, e2) / max(e1, e2)
            h2 = -e * math.log2(e) - (1 - e) * math.log2(1 - e)
            closed = e * (delta * math.log2(delta) - (1 + delta) * math.log2(1 + delta)) + h2
            assert kl_order_gap(NoiseRatePair(e1, e2)) == closed


def test_kl_order_gap_zero_noise():
    assert kl_order_gap(NoiseRatePair(0.0, 0.0)) == 0.0


def test_kl_order_gap_requires_estimable():
    with pytest.raises(DataError):
        kl_order_gap(NoiseRatePair(0.6, 0.5))


@pytest.mark.parametrize("e1,e2", [(0.7, 0.6), (0.5, 0.5), (-0.1, 0.2), (0.2, -0.1)])
def test_noise_rate_pair_rejects_inestimable_rates(e1, e2):
    # rejected when built, so no bound is computed from them
    with pytest.raises(DataError):
        NoiseRatePair(e1, e2)


@pytest.mark.parametrize("e1,e2,name", [(np.nan, 0.2, "e1"), (0.2, np.nan, "e2"),
                                         (-np.inf, 0.2, "e1"), (0.1, np.inf, "e2")])
def test_noise_rate_pair_rejects_non_finite_rates(e1, e2, name):
    with pytest.raises(DataError, match=f"noise rate {name} must be finite, got (nan|-?inf)"):
        NoiseRatePair(e1, e2)


def test_bias_zero_at_zero_noise():
    rates = NoiseRatePair(0.0, 0.0)
    for beta in np.linspace(0.0, 0.99, 21):
        assert kl_noise_bias(float(beta), rates) == pytest.approx(0.0, abs=1e-12)


def test_bias_unimodal_with_stated_peak():
    for e1, e2 in [(0.2, 0.1), (0.05, 0.4), (0.3, 0.3), (0.45, 0.05)]:
        rates = NoiseRatePair(e1, e2)
        peak = kl_bias_argmax(rates)
        assert peak == pytest.approx(e2 / (e1 + e2))
        betas = np.linspace(0.0, 0.999, 2001)
        vals = np.array([kl_noise_bias(float(b), rates) for b in betas])
        top = betas[np.argmax(vals)]
        assert abs(top - peak) < 1e-3
        # increasing before the peak, decreasing after
        assert np.all(np.diff(vals[betas < peak - 1e-3]) > 0)
        assert np.all(np.diff(vals[betas > peak + 1e-3]) < 0)


def test_full_range_gap_equals_order_gap():
    for e1, e2 in [(0.25, 0.25), (0.1, 0.3), (0.4, 0.05)]:
        rates = NoiseRatePair(e1, e2)
        full = practical_gap(rates, beta_lo=0.0, beta_hi=1.0 - 1e-12)
        assert full == pytest.approx(kl_order_gap(rates), abs=1e-9)


def test_practical_gap_restricted_range_smaller():
    rates = NoiseRatePair(0.25, 0.25)
    restricted = practical_gap(rates)
    assert restricted < kl_order_gap(rates)
    # matches a brute-force scan over the default range
    betas = np.linspace(1 / 6, 5 / 6, 4001)
    vals = [kl_noise_bias(float(b), rates) for b in betas]
    assert restricted == pytest.approx(max(vals) - min(vals), abs=1e-6)


def test_practical_gap_bad_range():
    with pytest.raises(DataError):
        practical_gap(NoiseRatePair(0.1, 0.1), beta_lo=0.5, beta_hi=0.2)
