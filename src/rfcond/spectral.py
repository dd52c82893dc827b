"""Spectral analysis of feature Gram matrices: eigenvalues, condition numbers,
restricted isometry constants, and singular-value density estimation.

The two normalized Grams share their nonzero spectrum: eig((1/m)A*A) and
eig((1/N)AA*) are the squared singular values of A scaled by 1/m or 1/N, up
to zero padding.  Gram spectra and condition numbers therefore come from one
thin SVD of A rather than from an eigensolver on a formed Gram, whose
round-off floor is squared (Trefethen & Bau, Numerical Linear Algebra,
Lecture 31).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import EnumerationBudgetError, InvalidArgumentError, NumericalFailureError
from .sampling import RngStream

RANK_TOL = 1e-12  # relative floor under which the smallest singular value counts as zero

SIDE_COLUMNS = "columns"  # (1/m) A* A, N x N
SIDE_ROWS = "rows"        # (1/N) A A*, m x m

DEFAULT_ENUMERATION_BUDGET = 2_000_000


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: np.ndarray  # ascending
    lambda_min: float
    lambda_max: float
    cond_number: float       # sqrt(lambda_max / lambda_min); inf when rank-deficient
    side: str


@dataclass(frozen=True)
class RipEstimate:
    s: int
    value: float
    method: str  # "exact_enumeration" | "randomized_lower_bound"
    supports_evaluated: int


@dataclass(frozen=True)
class DensityCurve:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


def _matrix_hash(M: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(M).tobytes()).hexdigest()[:16]


def _hermitian_eigvals(G: np.ndarray) -> np.ndarray:
    G = 0.5 * (G + G.conj().T)
    try:
        return np.linalg.eigvalsh(G)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"eigendecomposition failed: {exc}", matrix_hash=_matrix_hash(G)
        ) from exc


def gram_spectrum_via_svd(A: np.ndarray, side: str) -> SpectralSummary:
    """Full spectrum of the normalized Gram on the requested side, from the
    singular values of A.

    side="columns" is (1/m)A*A, side="rows" is (1/N)AA*; when the requested
    Gram is the larger one its zero eigenvalues are appended analytically.
    The SVD resolves eigenvalues down to (eps * sigma_max)^2 instead of the
    eps * lambda_max of an eigensolver on the formed Gram, which matters near
    the interpolation threshold.  The condition number sigma_max / sigma_min is
    infinite when the Gram is zero-padded or sigma_min <= RANK_TOL * sigma_max.
    """
    if side not in (SIDE_COLUMNS, SIDE_ROWS):
        raise InvalidArgumentError(f"unknown side {side!r}")
    M = np.asarray(A)
    m, n = M.shape
    norm = m if side == SIDE_COLUMNS else n
    s = singular_values(M) / np.sqrt(norm)
    eigs = s**2
    pad = (n if side == SIDE_COLUMNS else m) - s.shape[0]
    if pad > 0:
        eigs = np.concatenate([np.zeros(pad), eigs])
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if s[0] > RANK_TOL * s[-1] and pad == 0:
        cond = float(s[-1] / s[0])
    else:
        cond = float("inf")
    return SpectralSummary(eigenvalues=eigs, lambda_min=lam_min, lambda_max=lam_max,
                           cond_number=cond, side=side)


def singular_values(A: np.ndarray) -> np.ndarray:
    """min(m, N) singular values in ascending order."""
    M = np.asarray(A)
    try:
        s = np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"SVD failed: {exc}", matrix_hash=_matrix_hash(M)
        ) from exc
    return np.sort(s)


def _support_deviation(M: np.ndarray, cols: np.ndarray) -> float:
    """|| A_S* A_S - I ||_2 for the column subset S."""
    sub = M[:, cols]
    G = sub.conj().T @ sub
    G[np.diag_indices_from(G)] -= 1.0
    eigs = _hermitian_eigvals(G)
    return float(max(-eigs[0], eigs[-1]))


def rip_constant_exact(A_normalized: np.ndarray, s: int,
                       budget: int = DEFAULT_ENUMERATION_BUDGET) -> RipEstimate:
    """Exact s-th restricted isometry constant by lexicographic support enumeration."""
    M = np.asarray(A_normalized)
    n = M.shape[1]
    if not 1 <= s <= n:
        raise InvalidArgumentError(f"s must be in [1, {n}], got {s}")
    total = comb(n, s)
    if total > budget:
        raise EnumerationBudgetError(
            f"C({n},{s}) = {total} supports exceeds budget {budget}; "
            "use rip_constant_lower_mc for a randomized lower bound"
        )
    best = 0.0
    for cols in combinations(range(n), s):
        best = max(best, _support_deviation(M, np.asarray(cols)))
    return RipEstimate(s=s, value=best, method="exact_enumeration", supports_evaluated=total)


def rip_constant_lower_mc(A_normalized: np.ndarray, s: int, trials: int,
                          stream: RngStream) -> RipEstimate:
    """Randomized lower bound: max deviation over `trials` uniformly sampled supports.

    Supports are drawn sequentially from one generator, so growing `trials`
    with the same stream extends the sample set (the estimate is monotone).
    A repeated support is not evaluated again; `supports_evaluated` counts
    the distinct supports drawn.
    """
    M = np.asarray(A_normalized)
    n = M.shape[1]
    if not 1 <= s <= n:
        raise InvalidArgumentError(f"s must be in [1, {n}], got {s}")
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    gen = stream.generator()
    best = 0.0
    seen = set()
    for _ in range(trials):
        cols = np.sort(gen.choice(n, size=s, replace=False))
        if cols.tobytes() not in seen:
            seen.add(cols.tobytes())
            best = max(best, _support_deviation(M, cols))
    return RipEstimate(s=s, value=best, method="randomized_lower_bound",
                       supports_evaluated=len(seen))


def _silverman_bandwidth(values: np.ndarray) -> float:
    n = values.size
    std = float(np.std(values))
    q75, q25 = np.percentile(values, [75, 25])
    iqr = float(q75 - q25)
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    h = 0.9 * scale * n ** (-0.2)
    if h <= 0:
        # Degenerate sample (single or repeated value): any positive width
        # gives the contract's symmetric unimodal curve.
        h = max(1.0, float(np.abs(values).max())) * 0.05
    return h


def spectral_density(values) -> DensityCurve:
    """Gaussian-kernel density of `values` with Silverman's bandwidth h on a
    512-point grid over [min - 3h, max + 3h], scaled to a maximum of 1."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise InvalidArgumentError("values must be non-empty")
    h = _silverman_bandwidth(v)
    grid = np.linspace(v.min() - 3 * h, v.max() + 3 * h, 512)
    z = (grid[:, None] - v[None, :]) / h
    dens = np.exp(-0.5 * z**2).sum(axis=1) / (v.size * h * np.sqrt(2 * np.pi))
    return DensityCurve(grid=grid, density=dens / dens.max(), bandwidth=h)
