import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tmest as tm
from tmest.core import DIVERGENCES, VARIANTS, DataError, EstimatorConfig, Report
from tmest.noise import NoiseScheme, build_transition, inject_noise
from tmest.pipeline import estimate

from conftest import two_blob_dataset


def _noisy_blobs(seed, n=4000, e1=0.3, e2=0.3, **kw):
    data = two_blob_dataset(seed, n=n, **kw)
    t = build_transition(NoiseScheme("binary", e1=e1, e2=e2), 2)
    return inject_noise(data, t, seed=seed), t


def test_variant_parsing():
    assert VARIANTS == {"plain-hoc": (False, None), "x-kl": (False, "kl"),
                        "x-tv": (False, "tv"), "a-kl": (True, "kl"),
                        "a-tv": (True, "tv")}
    divergences = {divergence for _, divergence in VARIANTS.values()} - {None}
    assert divergences <= set(DIVERGENCES)
    for bad in ("hoc", "b-kl", "x-js", "a-", ""):
        with pytest.raises(DataError):
            EstimatorConfig(variant=bad)


@pytest.mark.parametrize("variant", ["plain-hoc", "x-kl", "x-tv", "a-kl", "a-tv"])
def test_each_variant_runs_and_reports(variant):
    data, t = _noisy_blobs(0, n=1500)
    report = estimate(data, EstimatorConfig(variant=variant), true_t=t)
    assert isinstance(report, Report)
    assert report.error is not None and 0.0 <= report.error <= 1.0
    tm.validate_transition(report.estimated_t.t)
    assert report.config_echo["variant"] == variant
    for stage in ("whitening", "weights", "neighbors", "count", "solve"):
        assert report.timings[stage] >= 0.0
    if variant == "plain-hoc":
        assert report.weights is None
    else:
        assert report.weights is not None
        assert report.weights.w.shape[0] <= data.d


def test_recovers_symmetric_noise_on_clusterable_data():
    data, t = _noisy_blobs(1, n=6000, sep=3.0)
    report = estimate(data, EstimatorConfig(variant="plain-hoc"), true_t=t)
    assert report.error < 0.03


def test_weighting_discounts_nuisance_dimensions():
    # informative dims swamped by high-variance noise dims
    data, t = _noisy_blobs(2, n=6000, d_inf=4, d_noise=12, sep=1.5, noise_scale=8.0)
    plain = estimate(data, EstimatorConfig(variant="plain-hoc"), true_t=t)
    weighted = estimate(data, EstimatorConfig(variant="x-tv"), true_t=t)
    assert weighted.error < plain.error
    w = weighted.weights.w
    assert w[:4].min() > w[4:].max()


def test_zero_row_is_excluded_not_fatal():
    # an all-zero row has no cosine to anything: it is left out, and the
    # estimate equals the one on the data without it
    data, t = _noisy_blobs(6, n=1500)
    padded = tm.Dataset(np.insert(data.features, 7, 0.0, axis=0),
                        np.insert(data.noisy_labels, 7, 1), 2)
    cfg = EstimatorConfig(variant="plain-hoc")
    report = estimate(padded, cfg, true_t=t)
    base = estimate(data, cfg, true_t=t)
    assert (report.excluded_rows, base.excluded_rows) == (1, 0)
    assert report.consensus.n == data.n
    np.testing.assert_array_equal(report.consensus.c3, base.consensus.c3)
    np.testing.assert_array_equal(report.estimated_t.t, base.estimated_t.t)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_estimate_invariant_to_row_order(seed):
    # continuous data has no exact ties, so the neighbor triplets follow the
    # rows and the counted statistics, hence the solve, do not move
    data, _ = _noisy_blobs(seed, n=1500, e1=0.2, e2=0.2, d_noise=6)
    perm = np.random.default_rng(seed).permutation(data.n)
    moved = tm.Dataset(data.features[perm], data.noisy_labels[perm], data.k)
    for variant in VARIANTS:
        config = EstimatorConfig(variant=variant)
        base, other = estimate(data, config), estimate(moved, config)
        for name in ("c1", "c2", "c3"):
            np.testing.assert_array_equal(getattr(other.consensus, name),
                                          getattr(base.consensus, name))
        np.testing.assert_array_equal(other.estimated_t.t, base.estimated_t.t)


def _assert_same_estimate(report, base):
    for name in ("c1", "c2", "c3"):
        np.testing.assert_array_equal(getattr(report.consensus, name),
                                      getattr(base.consensus, name))
    np.testing.assert_array_equal(report.estimated_t.t, base.estimated_t.t)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), s=st.integers(-10, 10))
def test_whitened_variants_invariant_to_power_of_two_scale(seed, s):
    # x -> 2^s x is exact in floating point, and whitening undoes it bit for bit
    data, _ = _noisy_blobs(seed, n=1500, e1=0.2, e2=0.2, d_noise=6)
    scaled = replace(data, features=data.features * 2.0 ** s)
    for variant in ("a-tv", "a-kl"):
        config = EstimatorConfig(variant=variant)
        _assert_same_estimate(estimate(scaled, config), estimate(data, config))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_whitened_variants_invariant_to_shift(seed):
    # centering removes a shift up to rounding, which moves no neighbor of
    # tie-free continuous data; per-feature rescaling is not covered, since
    # the f-MI weights act on whitened axes that such a rescaling rotates
    data, _ = _noisy_blobs(seed, n=1500, e1=0.2, e2=0.2, d_noise=6)
    shift = np.random.default_rng(seed).uniform(-5, 5, data.d)
    shifted = replace(data, features=data.features + shift)
    for variant in ("a-tv", "a-kl"):
        config = EstimatorConfig(variant=variant)
        _assert_same_estimate(estimate(shifted, config), estimate(data, config))


def test_true_t_size_checked_before_any_stage(monkeypatch):
    data, _ = _noisy_blobs(3, n=300)
    three = build_transition(NoiseScheme("dirichlet", avg_rate=0.2, seed=0), 3)

    def stage(*args, **kwargs):
        raise AssertionError("a stage ran before true_t was checked")

    for name in ("fit_whitening", "apply_whitening", "estimate_fmi_per_dim",
                 "build_weights", "get_2nn_triplets", "count_consensus", "solve_transition"):
        monkeypatch.setattr(f"tmest.pipeline.{name}", stage)
    with pytest.raises(DataError, match="true_t has K=3, but the data have K=2"):
        estimate(data, EstimatorConfig(variant="a-tv"), true_t=three)


def test_error_is_none_without_truth():
    data, _ = _noisy_blobs(3, n=800)
    report = estimate(data, EstimatorConfig(variant="plain-hoc"))
    assert report.error is None


def test_estimate_deterministic():
    data, t = _noisy_blobs(4, n=1200)
    cfg = EstimatorConfig(variant="a-tv", seed=21)
    a = estimate(data, cfg, true_t=t)
    b = estimate(data, cfg, true_t=t)
    np.testing.assert_array_equal(a.estimated_t.t, b.estimated_t.t)
    assert a.error == b.error


def test_unobserved_label_is_flagged():
    # two blobs read as K=3: label 2 is never seen, yet the solve converges
    data = two_blob_dataset(0, n=4000)
    t = build_transition(NoiseScheme("binary", e1=0.2, e2=0.2), 2)
    noisy = inject_noise(data, t, seed=0)
    report = estimate(tm.Dataset(noisy.features, noisy.noisy_labels, 3), EstimatorConfig())
    assert report.converged
    assert report.flags == ["label 2 has no c1 mass", "T row 2: diagonal is not the row maximum"]
    assert estimate(noisy, EstimatorConfig()).flags == []


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["blobs-atv-20k", "classes10-plain-10k"])
def test_reference_inputs_are_not_flagged(name, tmp_path):
    workload = _perfbench_workloads()[name]
    inp = workload.prepare([0, 0], workload.n, str(tmp_path))  # the benchmark's reference job
    assert estimate(inp.data, inp.config).flags == []
