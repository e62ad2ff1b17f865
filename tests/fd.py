"""Central finite-difference gradient checks against scalar loss closures."""

import numpy as np

from oewb import nn_core


def with_vector(params, vec) -> "nn_core.NetworkParams":
    """A copy of params whose parameter vector is vec."""
    out = params.copy()
    out.vector[...] = vec
    return out


def fd_gradient(params, loss_fn, h: float = 1e-5) -> np.ndarray:
    """Central differences of loss_fn over every coordinate of params.vector."""
    vec = params.vector
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        up = vec.copy()
        up[i] += h
        down = vec.copy()
        down[i] -= h
        grad[i] = (loss_fn(with_vector(params, up)) - loss_fn(with_vector(params, down))) / (2.0 * h)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst coordinate of |a - n| / max(|n|, 1e-6)."""
    denom = np.maximum(np.abs(numeric), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def min_hidden_preact_gap(params, inputs) -> float:
    """Distance of the closest hidden pre-activation to the relu kink; used
    to reject configurations where finite differences would straddle it.
    The last layer's pre-activations are the logits, which never pass
    through the activation, so they are excluded."""
    a = np.asarray(inputs, dtype=np.float64)
    gap = np.inf
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w.T + b
        gap = min(gap, float(np.min(np.abs(z))))
        a = np.maximum(z, 0.0) if params.activation == "relu" else np.tanh(z)
    return gap
