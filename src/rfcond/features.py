"""Random feature matrices: Fourier and ReLU activations over Gaussian data/weights.

Samples sit in rows, features in columns: A is m x N with
a_{j,k} = phi(<x_j, w_k>).  Fourier features are kept complex end to end;
real-valued targets read off the real part of predictions downstream.

Each matrix costs one m x N allocation beyond the real phase X^T W: Fourier
features are one complex array whose real and imaginary parts receive
cos and sin of the phase (bit for bit numpy's exp(i * phase)), and ReLU
features clip the phase in place.  A caller that must not hold a whole
matrix builds it in the row blocks of `block_ranges`, all sized by one
budget of `_BLOCK_ENTRIES` entries.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

FOURIER = "fourier"
RELU = "relu"

# Largest piece of a feature matrix built at once, in entries: a 150 x 1024
# block, 2.5 MB of complex128.
_BLOCK_ENTRIES = 150 * 1024


def _check_dims(X: np.ndarray, W: np.ndarray) -> None:
    if X.ndim != 2 or W.ndim != 2:
        raise InvalidArgumentError("X and W must be 2-d arrays (columns are points)")
    if X.shape[0] != W.shape[0]:
        raise InvalidArgumentError(
            f"X and W must share the ambient dimension d: got {X.shape[0]} vs {W.shape[0]}"
        )
    if min(X.shape + W.shape) < 1:
        raise InvalidArgumentError("X and W must be at least 1x1")


def _phase(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The m x N real phase X^T W, a fresh array the caller may overwrite."""
    _check_dims(X, W)
    return np.asarray(X.T @ W, dtype=np.float64)


def fourier_features(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """a_{j,k} = exp(i <x_j, w_k>) for X d x m, W d x N."""
    phase = _phase(X, W)
    A = np.empty(phase.shape, np.complex128)
    np.cos(phase, out=A.real)
    np.sin(phase, out=A.imag)
    return A


def relu_features(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """a_{j,k} = max(0, <x_j, w_k>)."""
    phase = _phase(X, W)
    return np.maximum(0.0, phase, out=phase)


def block_ranges(n: int, width: int) -> list[tuple[int, int]]:
    """Ranges [i, j) that cover range(n) once, in order, cutting n rows of
    `width` entries.  Each holds at most `step` rows, the largest multiple of
    8 (8 at the least) whose rows have at most _BLOCK_ENTRIES entries.  Every
    edge is a multiple of 8 and the last block is a single row only when n is
    1; when step is 8, that takes a last block of 9 rows."""
    step = max(8, _BLOCK_ENTRIES // max(width, 1) // 8 * 8)
    cuts = [*range(0, n, step), n]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        cuts[-2] -= 8
    return [(i, j) for i, j in zip(cuts, cuts[1:]) if j > i]


def build_features(X: np.ndarray, W: np.ndarray, kind: str) -> np.ndarray:
    if kind == FOURIER:
        return fourier_features(X, W)
    if kind == RELU:
        return relu_features(X, W)
    raise InvalidArgumentError(f"unknown feature kind {kind!r}")
