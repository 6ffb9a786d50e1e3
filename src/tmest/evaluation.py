"""Estimation-error metric and a desk-scale downstream check.

The downstream check trains a single linear softmax layer with full-batch
gradient descent, either on the noisy labels directly or through forward loss
correction with a supplied transition matrix, and reports clean test accuracy.
"""

from dataclasses import dataclass

import numpy as np

from .core import DataError, _integer, stage_rng


def estimation_error(t_true, t_hat):
    """Average total variation between two transition matrices: sum |dT| / 2K."""
    if t_true.k != t_hat.k:
        raise DataError("transition matrices must have the same K")
    return float(np.abs(t_true.t - t_hat.t).sum() / (2 * t_true.k))


@dataclass
class DownstreamResult:
    last_epoch_accuracy: float
    best_epoch_accuracy: float
    best_epoch: int
    epochs: int
    loss_mode: str   # "plain" | "forward"


def _softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def train_linear(data_train, data_test, t=None, epochs=500, step_size=0.5, seed=0):
    """Train a linear classifier on noisy labels; evaluate on clean labels.

    With a transition matrix the loss is the forward-corrected cross entropy
    -log((T^T softmax(Wx+b))_noisy); without one it is plain cross entropy,
    which is the same computation with T = I (so the two modes coincide
    exactly at T = I).
    """
    _integer(epochs, "epochs", 1)
    if not (np.isfinite(step_size) and step_size > 0):
        raise DataError(f"step_size must be finite and > 0, got {step_size!r}")
    if data_test.clean_labels is None:
        raise DataError("test dataset must carry clean labels")
    if data_train.d != data_test.d or data_train.k != data_test.k:
        raise DataError("train and test datasets must share d and K")
    k = data_train.k
    if t is not None and t.k != k:
        raise DataError(f"transition matrix has K={t.k}, but the data have K={k}")
    mode = "plain" if t is None else "forward"
    tm = np.eye(k) if t is None else np.asarray(t.t)
    y = data_train.noisy_labels
    if np.unique(y).size < 2:
        raise DataError("training labels are degenerate (single class)")

    x, xt = data_train.features, data_test.features
    yt = data_test.clean_labels
    n = x.shape[0]
    rng = stage_rng(seed, "training")
    w = rng.normal(scale=0.01, size=(x.shape[1], k))
    b = np.zeros(k)

    accs = np.empty(epochs)
    for epoch in range(epochs):
        s = _softmax_rows(x @ w + b)
        q = s @ tm                            # q_j = (T^T s)_j
        # d(-log q_y)/ds_i = -T[i, y] / q_y, chained through the softmax
        g_s = -tm[:, y].T / q[np.arange(n), y][:, None]
        g_logit = s * (g_s - (s * g_s).sum(axis=1, keepdims=True))
        g_logit /= n
        w -= step_size * (x.T @ g_logit)
        b -= step_size * g_logit.sum(axis=0)
        pred = np.argmax(xt @ w + b, axis=1)
        accs[epoch] = (pred == yt).mean()

    best = int(np.argmax(accs))  # earliest epoch wins ties
    return DownstreamResult(float(accs[-1]), float(accs[best]), best, epochs, mode)
