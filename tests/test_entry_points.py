"""Every public float (and class-count) input rejects bad values with a
`DataError` that names it, and containers never freeze or alias the
caller's arrays."""

import numpy as np
import pytest

import tmest as tm
from tmest.core import DataError, stage_rng
from tmest.whitening import WhiteningTransform

RATES = tm.NoiseRatePair(0.1, 0.2)
STATS = tm.model_consensus(tm.TransitionMatrix(2, np.eye(2)), [0.5, 0.5])
DATA = tm.Dataset([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [2.0, 0.5]], [0, 1, 0, 1], 2,
                  clean_labels=[0, 1, 0, 1])

# (entry point, call with one bad scalar v placed in it, regex naming the argument)
FLOAT_INPUTS = [
    ("Dataset", lambda v: tm.Dataset([[0.0, 1.0], [v, 0.5], [1.0, 2.0]], [0, 1, 0], 2),
     "features"),
    ("TransitionMatrix.t", lambda v: tm.TransitionMatrix(2, [[1.0, 0.0], [v, 1.0]]),
     "transition entries"),
    ("TransitionMatrix.p", lambda v: tm.TransitionMatrix(2, np.eye(2), p=[0.5, v]), "prior"),
    ("TransitionMatrix.from_json",
     lambda v: tm.TransitionMatrix.from_json({"k": 2, "t": [[1.0, 0.0], [v, 1.0]]}),
     "transition entries"),
    ("NoiseRatePair", lambda v: tm.NoiseRatePair(0.1, v), "noise rate e2"),
    ("EstimatorConfig.tolerance", lambda v: tm.EstimatorConfig(tolerance=v), "tolerance"),
    ("ConsensusStatistics", lambda v: tm.ConsensusStatistics([[[v, 0.5], [0, 0]],
                                                               [[0, 0], [0, 0.5]]], 4), "c3"),
    ("model_consensus", lambda v: tm.model_consensus(tm.TransitionMatrix(2, np.eye(2)),
                                                     [0.5, v]), "prior p"),
    ("estimate_fmi_per_dim",
     lambda v: tm.estimate_fmi_per_dim([[float(i)] for i in range(19)] + [[v]], [0, 1] * 10),
     "features"),
    ("MIEstimate", lambda v: tm.MIEstimate([0.1, v]), "MI values"),
    ("kl_noise_bias", lambda v: tm.kl_noise_bias(v, RATES), "beta"),
    ("practical_gap.beta_lo", lambda v: tm.practical_gap(RATES, beta_lo=v), "beta_lo"),
    ("practical_gap.beta_hi", lambda v: tm.practical_gap(RATES, beta_hi=v), "beta_hi"),
    ("NoiseScheme.validate", lambda v: tm.NoiseScheme("dirichlet", avg_rate=v).validate(3),
     "avg_rate"),
    ("build_transition", lambda v: tm.build_transition(tm.NoiseScheme("binary", e1=v), 2),
     "e1"),
    ("avg_noise_rate_from_r", lambda v: tm.avg_noise_rate_from_r(v, 3), "got r="),
    ("SimilarityWeights", lambda v: tm.SimilarityWeights([1.0, v]), "diagonal weights"),
    ("SimilarityWeights.diagonal", lambda v: tm.SimilarityWeights([1.0, v]),
     "diagonal weights"),
    ("soft_cosine.x", lambda v: tm.soft_cosine([1.0, v], [1.0, 0.0], tm.SimilarityWeights()),
     "^x must"),
    ("soft_cosine.x2", lambda v: tm.soft_cosine([1.0, 0.0], [v, 1.0], tm.SimilarityWeights()),
     "^x2 must"),
    ("WhiteningTransform.mean", lambda v: WhiteningTransform([0.0, v], np.eye(2), [2.0, 1.0]),
     "mean"),
    ("WhiteningTransform.eigenvectors",
     lambda v: WhiteningTransform(np.zeros(2), [[1.0, 0.0], [0.0, v]], [2.0, 1.0]),
     "eigenvectors"),
    ("WhiteningTransform.eigenvalues",
     lambda v: WhiteningTransform(np.zeros(2), np.eye(2), [2.0, v]), "eigenvalues"),
    ("WhiteningTransform.project",
     lambda v: WhiteningTransform(np.zeros(2), np.eye(2), [2.0, 1.0]).project([[0.0, v]]),
     "^x must"),
    ("train_linear", lambda v: tm.train_linear(DATA, DATA, epochs=1, step_size=v),
     "step_size"),
]

# Labels and row ids, like floats, reject bad values with a `DataError` that names them.
# (entry point, call with one bad label v placed in it, name of the labels, their K or None)
LABEL_INPUTS = [
    ("Dataset.noisy_labels", lambda v: tm.Dataset(np.zeros((3, 2)), [0, v, 1], 2),
     "noisy labels", 2),
    ("Dataset.clean_labels",
     lambda v: tm.Dataset(np.zeros((3, 2)), [0, 1, 0], 2, clean_labels=[0, v, 1]),
     "clean labels", 2),
    ("count_consensus", lambda v: tm.count_consensus([[0, 1, 0], [1, v, 0], [0, 0, 1]], 2),
     "triplet labels", 2),
    ("estimate_fmi_per_dim",
     lambda v: tm.estimate_fmi_per_dim([[float(i)] for i in range(20)], [0, v] + [0, 1] * 9),
     "labels", None),
    ("NeighborTriplets.rows", lambda v: tm.NeighborTriplets([0, v], [[1, 2], [2, 0]]),
     "row ids", None),
    ("NeighborTriplets.indices", lambda v: tm.NeighborTriplets([0, 1], [[1, 2], [v, 0]]),
     "neighbor indices", None),
]
LABEL_IDS = [case[0] for case in LABEL_INPUTS]

# (entry point, call on a bad input, regex of its error): ragged nesting and
# wrong types that numpy or Python would otherwise reject with their own errors,
# and inputs of the wrong shape, length, sign or name
MALFORMED_INPUTS = [
    ("SimilarityWeights.ragged", lambda: tm.SimilarityWeights([[1.0], [1.0, 2.0]]),
     "^diagonal weights must be numeric"),
    ("NeighborTriplets.labels.ragged",
     lambda: tm.NeighborTriplets([0, 1], [[1, 2], [2, 0]]).labels([[0], [1, 0], [0]]),
     "^need one label per row id of the graph"),
    ("Dataset.ids", lambda: tm.Dataset(np.zeros((3, 2)), [0, 1, 0], 2, ids=5),
     "^ids must have length N"),
    ("Report.error", lambda: tm.Report(tm.TransitionMatrix(2, np.eye(2)), STATS, error="a"),
     "^error must be finite"),
    ("Dataset.features.1-d", lambda: tm.Dataset(np.zeros(3), [0, 1, 0], 2),
     "^features must be a 2-d matrix with d >= 1$"),
    ("Dataset.features.d0", lambda: tm.Dataset(np.zeros((3, 0)), [0, 1, 0], 2),
     "^features must be a 2-d matrix with d >= 1$"),
    ("Dataset.noisy_labels.length", lambda: tm.Dataset(np.zeros((3, 2)), [0, 1], 2),
     "^noisy labels must have length N=3$"),
    ("Dataset.clean_labels.length",
     lambda: tm.Dataset(np.zeros((3, 2)), [0, 1, 0], 2, clean_labels=[0, 1]),
     "^clean labels must have length N=3$"),
    ("TransitionMatrix.shape", lambda: tm.TransitionMatrix(2, np.eye(3)),
     r"^expected a 2x2 matrix, got \(3, 3\)$"),
    ("TransitionMatrix.p.length", lambda: tm.TransitionMatrix(2, np.eye(2), p=[1.0]),
     "^prior must have length K$"),
    ("estimate_fmi_per_dim.labels",
     lambda: tm.estimate_fmi_per_dim([[float(i)] for i in range(20)], [0, 1] * 9 + [0]),
     r"^need one label per feature row: 20 rows, labels of shape \(19,\)$"),
    ("estimate_fmi_per_dim.no_columns",
     lambda: tm.estimate_fmi_per_dim(np.zeros((20, 0)), [0, 1] * 10),
     r"^features must have at least one column, got shape \(20, 0\)$"),
    ("MIEstimate.empty", lambda: tm.MIEstimate([]), "^per_dim must be a non-empty vector$"),
    ("MIEstimate.2-d", lambda: tm.MIEstimate([[0.1], [0.2]]),
     "^per_dim must be a non-empty vector$"),
    ("MIEstimate.negative", lambda: tm.MIEstimate([-0.1]), "^MI values must be nonnegative$"),
    ("kl_noise_bias.beta", lambda: tm.kl_noise_bias(1.0, RATES),
     r"^beta must lie in \[0, 1\), got 1.0$"),
    ("SimilarityWeights.negative", lambda: tm.SimilarityWeights([1.0, -0.5]),
     "^diagonal weights must be a nonnegative vector$"),
    ("EstimatorConfig.variant.list", lambda: tm.EstimatorConfig(variant=["a-tv"]),
     r"^unknown variant \['a-tv'\] \(choose from plain-hoc, "),
    ("stage_rng", lambda: stage_rng(0, "nope"), "^unknown stage 'nope'$"),
    ("get_2nn_triplets.weight_size",
     lambda: tm.get_2nn_triplets(tm.Dataset(np.eye(3), [0, 1, 0], 2),
                                 tm.SimilarityWeights([1.0, 1.0])),
     "^weight size does not match the feature dimension$"),
    ("soft_cosine.weight_size",
     lambda: tm.soft_cosine([1.0, 0.0], [0.0, 1.0], tm.SimilarityWeights([1.0, 1.0, 1.0])),
     "^weight size does not match the feature dimension$"),
    ("soft_cosine.empty", lambda: tm.soft_cosine([], [], tm.SimilarityWeights()),
     "^degenerate vector under W$"),
    ("fit_whitening.overflow",
     lambda: tm.fit_whitening(tm.Dataset(DATA.features * 1e160, [0, 1, 0, 1], 2)),
     "^the features' mean or covariance overflows float64; rescale them$"),
]

CLASS_COUNT_INPUTS = [
    ("count_consensus", lambda k: tm.count_consensus(np.zeros((3, 3), dtype=int), k)),
    ("build_transition", lambda k: tm.build_transition(tm.NoiseScheme("dirichlet",
                                                                      avg_rate=0.2), k)),
]


@pytest.mark.parametrize("call,name", [case[1:] for case in FLOAT_INPUTS],
                         ids=[case[0] for case in FLOAT_INPUTS])
@pytest.mark.parametrize("bad", ["a", None, np.nan, np.inf, -np.inf],
                         ids=["text", "none", "nan", "inf", "-inf"])
def test_float_input_rejects_bad_value(call, name, bad):
    with pytest.raises(DataError, match=name):
        call(bad)


@pytest.mark.parametrize("call,name", [case[1:3] for case in LABEL_INPUTS], ids=LABEL_IDS)
@pytest.mark.parametrize("bad", ["a", None, [0, 1], 0.5, 1e20],
                         ids=["text", "none", "ragged", "fraction", "beyond-int64"])
def test_label_input_rejects_non_integer(call, name, bad):
    with pytest.raises(DataError, match=f"^{name} must be integers$"):
        call(bad)


@pytest.mark.parametrize("call,name,k", [case[1:] for case in LABEL_INPUTS], ids=LABEL_IDS)
def test_label_input_rejects_out_of_range(call, name, k):
    if k is None:
        with pytest.raises(DataError, match=f"^{name} must be nonnegative, got -1$"):
            call(-1)
        return
    for bad in (-1, k):
        with pytest.raises(DataError, match=f"^{name} out of range \\[0, {k}\\)$"):
            call(bad)


def test_uint64_label_beyond_int64_is_not_wrapped():
    # a uint64 id of 2**63 must be named as given, not as its int64 wrap -2**63
    with pytest.raises(DataError,
                       match=r"^row ids must be below 2\*\*63, got 9223372036854775808$"):
        tm.NeighborTriplets(np.array([2 ** 63, 0], dtype=np.uint64), [[1, 2], [2, 1]])
    with pytest.raises(DataError, match=r"^noisy labels out of range \[0, 2\)$"):
        tm.Dataset(np.zeros((3, 2)), np.array([0, 2 ** 63, 1], dtype=np.uint64), 2)
    graph = tm.NeighborTriplets(np.array([1, 0], dtype=np.uint64), [[0, 2], [2, 1]])
    assert graph.rows.dtype == np.int64 and graph.rows.tolist() == [1, 0]


@pytest.mark.parametrize("call,message", [case[1:] for case in MALFORMED_INPUTS],
                         ids=[case[0] for case in MALFORMED_INPUTS])
def test_malformed_input_is_a_data_error(call, message):
    with pytest.raises(DataError, match=message):
        call()


@pytest.mark.parametrize("call", [case[1] for case in CLASS_COUNT_INPUTS],
                         ids=[case[0] for case in CLASS_COUNT_INPUTS])
@pytest.mark.parametrize("k", ["2", None], ids=["text", "none"])
def test_class_count_rejects_non_number(call, k):
    with pytest.raises(DataError, match=f"k must be an integer >= 2, got {k!r}"):
        call(k)


@pytest.mark.parametrize("build,field,make", [
    (lambda a: tm.Dataset(a, [0, 1, 0], 2), "features", np.eye),
    (lambda a: tm.TransitionMatrix(3, a), "t", np.eye),
    (lambda a: tm.SimilarityWeights(a), "w", np.ones),
], ids=["Dataset", "TransitionMatrix", "SimilarityWeights"])
def test_container_copies_a_writeable_input(build, field, make):
    x = make(3)
    kept = getattr(build(x), field)
    assert x.flags.writeable and not kept.flags.writeable
    x.flat[0] = 0.5  # the caller's array stays writeable and detached
    assert kept.flat[0] == 1.0
    frozen = make(3)
    frozen.setflags(write=False)
    assert getattr(build(frozen), field) is frozen  # a read-only input is not copied


def test_apply_whitening_hands_over_its_output(monkeypatch):
    transform = tm.fit_whitening(DATA)
    out = np.arange(8.0).reshape(4, 2)
    monkeypatch.setattr(WhiteningTransform, "project", lambda self, x: out)
    assert tm.apply_whitening(transform, DATA).features is out
