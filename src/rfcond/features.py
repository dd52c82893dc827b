"""Random feature matrices: Fourier and ReLU activations over Gaussian data/weights.

Samples sit in rows, features in columns: A is m x N with
a_{j,k} = phi(<x_j, w_k>).  Fourier features are kept complex end to end;
real-valued targets read off the real part of predictions downstream.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .sampling import TAG_DATA, TAG_WEIGHTS, RngStream, gaussian_matrix

FOURIER = "fourier"
RELU = "relu"


def _check_dims(X: np.ndarray, W: np.ndarray) -> None:
    if X.ndim != 2 or W.ndim != 2:
        raise InvalidArgumentError("X and W must be 2-d arrays (columns are points)")
    if X.shape[0] != W.shape[0]:
        raise InvalidArgumentError(
            f"X and W must share the ambient dimension d: got {X.shape[0]} vs {W.shape[0]}"
        )
    if min(X.shape + W.shape) < 1:
        raise InvalidArgumentError("X and W must be at least 1x1")


def fourier_features(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """a_{j,k} = exp(i <x_j, w_k>) for X d x m, W d x N."""
    _check_dims(X, W)
    return np.exp(1j * (X.T @ W))


def relu_features(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """a_{j,k} = max(0, <x_j, w_k>)."""
    _check_dims(X, W)
    return np.maximum(0.0, X.T @ W)


def build_features(X: np.ndarray, W: np.ndarray, kind: str) -> np.ndarray:
    if kind == FOURIER:
        return fourier_features(X, W)
    if kind == RELU:
        return relu_features(X, W)
    raise InvalidArgumentError(f"unknown feature kind {kind!r}")


def random_features(
    d: int,
    m: int,
    n: int,
    gamma: float,
    sigma: float,
    stream: RngStream,
    kind: str = FOURIER,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample X ~ N(0, gamma^2 I_d) and W ~ N(0, sigma^2 I_d), then build A.

    Data and weights come from fixed substreams of `stream`, so one stream per
    trial reproduces the whole instance.
    """
    X = gaussian_matrix(d, m, gamma**2, stream.substream(TAG_DATA))
    W = gaussian_matrix(d, n, sigma**2, stream.substream(TAG_WEIGHTS))
    return X, W, build_features(X, W, kind)
