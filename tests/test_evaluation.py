from dataclasses import replace

import numpy as np
import pytest

import tmest as tm
from tmest.core import DataError
from tmest.evaluation import DownstreamResult, estimation_error, train_linear
from tmest.noise import NoiseScheme, build_transition, inject_noise

from conftest import two_blob_dataset


def test_estimation_error_zero_on_equal():
    t = tm.TransitionMatrix(2, [[0.7, 0.3], [0.3, 0.7]])
    assert estimation_error(t, t) == 0.0


def test_estimation_error_random_guess_hand_value():
    # uniform 0.5 everywhere vs symmetric 0.7: sum |dT| = 0.8, / (2*2) = 0.2
    t_true = tm.TransitionMatrix(2, [[0.7, 0.3], [0.3, 0.7]])
    guess = tm.TransitionMatrix(2, [[0.5, 0.5], [0.5, 0.5]])
    assert estimation_error(t_true, guess) == pytest.approx(0.2, abs=1e-12)


def test_estimation_error_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    for k in (2, 3, 5):
        a = tm.TransitionMatrix(k, rng.dirichlet(np.ones(k), size=k))
        b = tm.TransitionMatrix(k, rng.dirichlet(np.ones(k), size=k))
        e = estimation_error(a, b)
        assert e == estimation_error(b, a)
        assert 0.0 <= e <= 1.0


def test_estimation_error_k_mismatch():
    a = tm.TransitionMatrix(2, np.eye(2))
    b = tm.TransitionMatrix(3, np.eye(3))
    with pytest.raises(DataError):
        estimation_error(a, b)


def _noisy_split(seed, e1, e2, n=800, sep=2.0):
    train = two_blob_dataset(seed, n=n, sep=sep)
    t = build_transition(NoiseScheme("binary", e1=e1, e2=e2), 2)
    train = inject_noise(train, t, seed=seed)
    test = two_blob_dataset(seed + 1000, n=n, sep=sep)
    return train, test, t


def test_train_clean_labels_high_accuracy():
    train, test, _ = _noisy_split(0, 0.0, 0.0)
    res = train_linear(train, test, epochs=200, seed=0)
    assert res.loss_mode == "plain"
    assert res.best_epoch_accuracy > 0.97
    assert 0 <= res.best_epoch < res.epochs
    assert res.best_epoch_accuracy >= res.last_epoch_accuracy


def test_plain_equals_forward_with_identity():
    train, test, _ = _noisy_split(1, 0.2, 0.2)
    plain = train_linear(train, test, t=None, epochs=50, seed=5)
    ident = train_linear(train, test, t=tm.TransitionMatrix(2, np.eye(2)),
                         epochs=50, seed=5)
    assert plain.last_epoch_accuracy == ident.last_epoch_accuracy
    assert plain.best_epoch_accuracy == ident.best_epoch_accuracy
    assert plain.best_epoch == ident.best_epoch
    assert plain.loss_mode == "plain" and ident.loss_mode == "forward"


def test_forward_correction_helps_under_asymmetric_noise():
    train, test, t = _noisy_split(2, 0.4, 0.1, n=2000, sep=0.4)
    plain = train_linear(train, test, epochs=300, seed=0)
    corrected = train_linear(train, test, t=t, epochs=300, seed=0)
    assert corrected.best_epoch_accuracy > plain.best_epoch_accuracy


def test_train_deterministic():
    train, test, t = _noisy_split(3, 0.3, 0.1)
    a = train_linear(train, test, t=t, epochs=30, seed=9)
    b = train_linear(train, test, t=t, epochs=30, seed=9)
    assert a == b


def test_train_input_checks():
    train, test, _ = _noisy_split(4, 0.1, 0.1, n=40)
    stripped = tm.Dataset(test.features, test.noisy_labels, 2)
    with pytest.raises(DataError, match="clean labels"):
        train_linear(train, stripped, epochs=5)
    rng = np.random.default_rng(0)
    other = tm.Dataset(rng.normal(size=(40, 7)), rng.integers(0, 2, 40), 2,
                       clean_labels=rng.integers(0, 2, 40))
    with pytest.raises(DataError):
        train_linear(train, other, epochs=5)
    with pytest.raises(DataError, match="transition matrix has K=3, but the data have K=2"):
        train_linear(train, test, t=tm.TransitionMatrix(3, np.eye(3)), epochs=5)


@pytest.mark.parametrize("kwargs,message", [
    ({"epochs": 0}, "epochs must be an integer >= 1, got 0"),
    ({"epochs": -3}, "epochs must be an integer >= 1, got -3"),
    ({"epochs": 2.5}, "epochs must be an integer >= 1, got 2.5"),
    ({"step_size": np.nan}, "step_size must be finite and > 0, got nan"),
    ({"step_size": np.inf}, "step_size must be finite and > 0, got inf"),
    ({"step_size": 0.0}, "step_size must be finite and > 0, got 0.0"),
    ({"step_size": -0.5}, "step_size must be finite and > 0, got -0.5"),
])
def test_train_rejects_bad_schedule(kwargs, message):
    train, test, _ = _noisy_split(4, 0.1, 0.1, n=40)
    with pytest.raises(DataError, match=f"^{message}$"):
        train_linear(train, test, **kwargs)


def test_train_degenerate_labels():
    data = two_blob_dataset(5, n=50)
    one_class = replace(data, noisy_labels=np.zeros(50, dtype=int))
    with pytest.raises(DataError, match="single class"):
        train_linear(one_class, data, epochs=5)


def test_result_fields():
    train, test, _ = _noisy_split(6, 0.1, 0.1, n=60)
    res = train_linear(train, test, epochs=7)
    assert isinstance(res, DownstreamResult)
    assert res.epochs == 7
