"""Random feature matrices: Fourier and ReLU activations over Gaussian data/weights.

Samples sit in rows, features in columns: A is m x N with
a_{j,k} = phi(<x_j, w_k>).  Fourier features are kept complex end to end;
real-valued targets read off the real part of predictions downstream.

Each matrix costs one m x N allocation beyond the real phase X^T W: Fourier
features are one complex array whose real and imaginary parts receive
cos and sin of the phase, and ReLU features clip the phase in place.  A
caller that must not hold a whole matrix builds it in the row blocks of
`block_ranges`, sized by an entry budget: `_BLOCK_ENTRIES` for the
predictions and the kernel of `targets`, and the smaller
`spectral._GRAM_ENTRIES` for the density study's Grams.

Fourier features first reduce the phase to r in [-pi/4, pi/4] by the
Cody-Waite reduction (Cody & Waite, "Software Manual for the Elementary
Functions", 1980), theta = k pi/2 + r with fdlibm's two-part pi/2, take cos
and sin of r and rotate by i^k, which is exact.  numpy evaluates float64
cos and sin with scalar libm, whose branch on |theta| mispredicts on
random phases; below pi/4 it takes one branch and costs half as much.
Each component is within 2^-52 of the exact cos and sin of the float64
phase (a phase below pi/4 gives numpy's exp(i * phase) bit for bit).
Phases beyond 2^19 pi/2, inf and nan are not reduced (k = 0), so they get
np.cos and np.sin of the phase itself.  The phase is walked in flat chunks
of `_CHUNK` entries and every entry depends on its own phase alone, so a
block of rows equals the same rows of the whole matrix bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError

FOURIER = "fourier"
RELU = "relu"

# Cody-Waite reduction theta = k pi/2 + r: pi/2 = _PIO2_HI + _PIO2_LO to
# about 86 bits, with _PIO2_HI holding 33 bits, so k * _PIO2_HI is exact for
# |k| <= _MAX_TURNS and theta - k * _PIO2_HI is exact by Sterbenz's lemma.
_PIO2_HI = 1.57079632673412561417
_PIO2_LO = 6.07710050650619224932e-11
_MAX_TURNS = 2.0**19
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])
# Entries reduced at once.  A chunk's temporaries (a few tens of bytes an
# entry) are all the memory beyond the phase and A, and stay in cache; 1024
# entries pay numpy's per-call overhead, about a third slower per entry, and
# chunks past 4096 gain under 5%.
_CHUNK = 4096

# Largest piece of a feature matrix that `targets` builds at once, in
# entries: a 150 x 1024 block, 2.5 MB of complex128.  A smaller budget would
# cut validate's predictions at N = 15000 into column pieces, which sum in
# another order, and save no memory there (its blocks are 8 test points).
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
    """X^T W, a fresh m x N array the caller may overwrite; NumericalFailureError on overflow."""
    _check_dims(X, W)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.asarray(X.T @ W, dtype=np.float64)
    if not np.isfinite(phase).all() and np.isfinite(X).all() and np.isfinite(W).all():
        raise NumericalFailureError("feature phases overflow: reduce gamma or sigma")
    return phase


def fourier_features(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """a_{j,k} = exp(i <x_j, w_k>) for X d x m, W d x N, each component
    within 2^-52 of the exact value at the float64 phase."""
    phase = _phase(X, W)
    A = np.empty(phase.shape, np.complex128)
    theta, flat = phase.reshape(-1), A.reshape(-1)
    for i in range(0, theta.size, _CHUNK):
        t, a = theta[i:i + _CHUNK], flat[i:i + _CHUNK]
        k = np.rint(t * (2.0 / np.pi))
        k[~(np.abs(k) <= _MAX_TURNS)] = 0.0
        r = t - k * _PIO2_HI
        r -= k * _PIO2_LO
        np.cos(r, out=a.real)
        np.sin(r, out=a.imag)
        a *= _QUARTER_TURNS[k.astype(np.intp) & 3]
    return A


def relu_features(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """a_{j,k} = max(0, <x_j, w_k>)."""
    phase = _phase(X, W)
    return np.maximum(0.0, phase, out=phase)


def block_ranges(n: int, width: int, budget: int = _BLOCK_ENTRIES) -> list[tuple[int, int]]:
    """Ranges [i, j) that cover range(n) once, in order, cutting n rows of
    `width` entries.  Each holds at most `step` rows, the largest multiple of
    8 (8 at the least) whose rows have at most `budget` entries.  Every
    edge is a multiple of 8 and the last block is a single row only when n is
    1; when step is 8, that takes a last block of 9 rows."""
    step = max(8, budget // max(width, 1) // 8 * 8)
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
