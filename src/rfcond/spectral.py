"""Spectral analysis of feature Gram matrices: eigenvalues, condition numbers,
restricted isometry constants, and singular-value density estimation.

The two normalized Grams share their nonzero spectrum: eig((1/m)A*A) and
eig((1/N)AA*) are the squared singular values of A scaled by 1/m or 1/N, up
to zero padding.  Every spectrum therefore comes from the singular values of
A, taken from one factorization: for a non-square A, `singular_values` runs
one eigensolver on the smaller formed Gram (AA* or A*A), whose eigenvalues
are accurate to about eps * cond^2 relative (Trefethen & Bau, Numerical
Linear Algebra, Lecture 31), and keeps them when lambda_min >= `_GRAM_GATE` *
lambda_max, where that is at most about 2e-10; otherwise it takes the thin
SVD of A, which resolves singular values down to eps * sigma_max.  A square A
(N = m, the interpolation threshold, where the condition number peaks) goes
straight to the SVD: its Gram is no smaller than A, so the Gram route would
save little when it passes the gate and often fail it.  A caller that has
already factored A (the sweep's least-squares solve) passes those singular
values to `spectrum_from_singular_values` instead.

Restricted isometry constants are the one place that forms Grams of column
supports: delta_s is a maximum over column supports S of ||A_S* A_S - I||_2,
and each s x s support Gram is small and well conditioned near I.  The
supports are evaluated in stacks of `_STACK`, so memory stays
O(_STACK * s * m) however many supports there are.  Each support Gram G also
gives the upper bound min(max row sum of |G|, ||G||_F) >= ||G||_2; a support
whose bound is below the running maximum by more than a rounding margin
cannot raise it and skips the eigensolver.  The rest of the stack goes to one
batched eigensolver call, so the maximum is bit-for-bit the one full
enumeration finds.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

import numpy as np

from .errors import EnumerationBudgetError, InvalidArgumentError, NumericalFailureError
from .sampling import RngStream

RANK_TOL = 1e-12  # relative floor under which the smallest singular value counts as zero
# singular_values keeps the Gram's eigenvalues when lambda_min >= _GRAM_GATE *
# lambda_max (sigma_max / sigma_min <= 1000): their relative error, about
# eps * cond^2, then stays below 2e-10.
_GRAM_GATE = 1e-6

SIDE_COLUMNS = "columns"  # (1/m) A* A, N x N
SIDE_ROWS = "rows"        # (1/N) A A*, m x m

DEFAULT_ENUMERATION_BUDGET = 2_000_000
_STACK = 64  # supports per batched eigvalsh call
# A support is skipped when bound + _PRUNE_MARGIN * (1 + best) < best.  The
# computed bound is within s*eps*bound of the exact min(||G||_inf, ||G||_F),
# which is >= ||G||_2, and eigvalsh returns ||G||_2 to within O(s*eps*||G||_2)
# (backward stable), so a skipped support's computed deviation stays below best
# while the margin exceeds a few s*eps*best: 1e-9 covers s up to ~10^6.  The
# "1 +" keeps every support when best is at round-off level (s = 1).
_PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: np.ndarray  # ascending
    lambda_min: float
    lambda_max: float
    cond_number: float       # sqrt(lambda_max / lambda_min); inf when rank-deficient
    side: str


@dataclass(frozen=True)
class RipEstimate:
    """delta_s as the maximum of ||A_S* A_S - I||_2 over `supports_evaluated`
    supports S.  Of these, `supports_pruned` were settled without an
    eigensolve: their bound min(max row sum of |G|, ||G||_F) lay below the
    running maximum by more than the rounding margin `_PRUNE_MARGIN * (1 +
    best)`, so they could not change `value`, which is bit-for-bit the maximum
    over every support.  The bound comes from the stacked Grams the
    eigensolver would receive, so memory stays O(_STACK * s * m)."""

    s: int
    value: float
    method: str  # "exact_enumeration" | "randomized_lower_bound"
    supports_evaluated: int
    supports_pruned: int


@dataclass(frozen=True)
class DensityCurve:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


def gram_spectrum_via_svd(A: np.ndarray, side: str) -> SpectralSummary:
    """Full spectrum of the normalized Gram on the requested side
    (side="columns" is (1/m)A*A, side="rows" is (1/N)AA*) from
    `singular_values(A)`: for non-square A, the smaller Gram's eigenvalues
    when lambda_min >= `_GRAM_GATE` * lambda_max, accurate to about
    eps * cond^2 relative (at most about 2e-10 at the gate), and otherwise the
    thin SVD's, which resolve eigenvalues down to (eps * sigma_max)^2 near the
    interpolation threshold.
    """
    M = np.asarray(A)
    return spectrum_from_singular_values(singular_values(M), M.shape, side)


def spectrum_from_singular_values(s: np.ndarray, shape: tuple[int, int],
                                  side: str) -> SpectralSummary:
    """Spectrum of the normalized Gram on `side` of an m x N matrix of the
    given shape with ascending singular values `s`.

    When the requested Gram is the larger one its zero eigenvalues are
    appended analytically.  The condition number sigma_max / sigma_min is
    infinite when the Gram is zero-padded or sigma_min <= RANK_TOL * sigma_max.
    """
    if side not in (SIDE_COLUMNS, SIDE_ROWS):
        raise InvalidArgumentError(f"unknown side {side!r}")
    m, n = shape
    s = s / np.sqrt(m if side == SIDE_COLUMNS else n)
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
    """min(m, N) singular values in ascending order.

    For non-square A they are the square roots of the eigenvalues of the
    smaller Gram (AA* or A*A) when those are finite and lambda_min >=
    `_GRAM_GATE` * lambda_max; each is then within about eps * cond^2 relative
    of the SVD's (at most about 2e-10 at the gate).  Otherwise, and always
    for square A, they come from the thin SVD of A; a failed SVD or a
    non-finite result (as on non-finite A) raises NumericalFailureError.
    """
    M = np.asarray(A)
    m, n = M.shape
    if m != n:
        with np.errstate(all="ignore"):  # an overflowing Gram fails the gate
            G = M @ M.conj().T if m < n else M.conj().T @ M
            try:
                lam = np.linalg.eigvalsh(G)
            except np.linalg.LinAlgError:  # as on a non-finite Gram
                lam = np.array([np.nan])  # fails the gate
        if np.isfinite(lam).all() and lam[0] >= _GRAM_GATE * lam[-1]:
            return np.sqrt(lam)
    try:
        s = np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD failed: {exc}") from exc
    if not np.isfinite(s).all():  # LAPACK returns NaN for an infinite entry
        raise NumericalFailureError("SVD failed: non-finite singular values")
    return np.sort(s)


def _norm_bound(G: np.ndarray) -> np.ndarray:
    """min(max row sum of |G|, ||G||_F) of each matrix in the stack G: an
    upper bound on ||G||_2."""
    a = np.abs(G)
    return np.minimum(a.sum(axis=-1).max(axis=-1), np.sqrt((a * a).sum(axis=(-2, -1))))


def _max_deviation(M: np.ndarray, supports: np.ndarray, best: float) -> tuple[float, int]:
    """max(best, || A_S* A_S - I ||_2 over the rows S of the (B, s) index
    array `supports`) and the number of supports whose norm bound settles them
    below `best` without an eigensolve.  The others go to one batched
    eigendecomposition of their stacked s x s support Grams."""
    sub = M.T[supports]  # (B, s, m): sub[b] = A_S^T for S = supports[b]
    G = sub.conj() @ np.swapaxes(sub, -1, -2)
    G -= np.eye(supports.shape[1])
    G = 0.5 * (G + np.swapaxes(G, -1, -2).conj())
    keep = ~(_norm_bound(G) + _PRUNE_MARGIN * (1.0 + best) < best)  # a NaN bound is kept
    n_keep = int(keep.sum())
    if n_keep == 0:
        return best, len(keep)
    try:
        eigs = np.linalg.eigvalsh(G[keep])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    dev = float(np.maximum(-eigs[:, 0], eigs[:, -1]).max())
    if not np.isfinite(dev):
        raise NumericalFailureError("support Gram has non-finite eigenvalues")
    return max(best, dev), len(keep) - n_keep


def _max_over_stacks(M: np.ndarray, supports: Iterable) -> tuple[float, int]:
    """Largest support deviation, taking `supports` `_STACK` at a time, and
    the number of supports pruned against the running maximum."""
    supports = iter(supports)
    best, pruned = 0.0, 0
    while stack := list(islice(supports, _STACK)):
        best, k = _max_deviation(M, np.array(stack), best)
        pruned += k
    return best, pruned


def rip_constant_exact(A_normalized: np.ndarray, s: int,
                       budget: int = DEFAULT_ENUMERATION_BUDGET) -> RipEstimate:
    """Exact s-th restricted isometry constant by lexicographic support
    enumeration, evaluated `_STACK` supports per eigensolver call."""
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
    best, pruned = _max_over_stacks(M, combinations(range(n), s))
    return RipEstimate(s=s, value=best, method="exact_enumeration", supports_evaluated=total,
                       supports_pruned=pruned)


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
    distinct = {}  # in order of first draw
    for _ in range(trials):
        cols = np.sort(gen.choice(n, size=s, replace=False))
        distinct.setdefault(cols.tobytes(), cols)
    best, pruned = _max_over_stacks(M, distinct.values())
    return RipEstimate(s=s, value=best, method="randomized_lower_bound",
                       supports_evaluated=len(distinct), supports_pruned=pruned)


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
