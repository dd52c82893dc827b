"""Training rules for random feature coefficients.

Least squares and min-norm interpolation share one SVD solve, `_pinv_fit`,
which flags a pseudoinverse fit where np.linalg.lstsq ranks A below min(m, N);
ridge goes through the shifted normal equations on the smaller Gram, and basis
pursuit denoising through a primal-dual splitting scheme with complex
soft-thresholding certified by an explicit duality gap.  Every fit is one
`CoefficientVector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    InfeasibleProblemError,
    InvalidArgumentError,
    NumericalFailureError,
)
from .spectral import rank_rcond

FLAG_SINGULAR_GRAM = "singular_gram_pseudoinverse"
# bpdn returned c = 0 without iterating: ||y|| <= xi sqrt(m), so zero is feasible.
FLAG_ZERO_FEASIBLE = "zero_feasible_no_iterations"


@dataclass(frozen=True)
class CoefficientVector:
    values: np.ndarray
    residual_norm: float = 0.0
    iterations: int = 0
    duality_gap: float | None = None
    flags: tuple[str, ...] = ()
    # Ascending singular values of A from the least-squares solve, so that a
    # caller needing A's spectrum does not factor A again.
    singular_values: np.ndarray | None = field(default=None, compare=False, repr=False)


def _as_matrix_vector(A: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    A = np.asarray(A)
    y = np.asarray(y).ravel()
    if A.ndim != 2:
        raise InvalidArgumentError("A must be a 2-d array")
    if y.shape[0] != A.shape[0]:
        raise InvalidArgumentError(f"y has length {y.shape[0]}, expected {A.shape[0]}")
    return np.asarray(A, dtype=np.complex128), y.astype(np.complex128)


def l2_norm(v: np.ndarray) -> float:
    """||v||_2, the one norm of the fits: np.linalg.norm where it is finite, and
    where its sum of squares overflows but v is finite, the norm of v scaled by
    its largest modulus."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm == np.inf and np.isfinite(v).all():
        scale = float(np.abs(v).max())
        norm = scale * float(np.linalg.norm(v / scale))
    return norm


def _lstsq(A: np.ndarray, y: np.ndarray):
    """lstsq at `rank_rcond`; a non-finite A or a LinAlgError is a NumericalFailureError."""
    if not np.isfinite(A).all():
        raise NumericalFailureError("least-squares solve failed: A has non-finite entries")
    try:
        return np.linalg.lstsq(A, y, rcond=rank_rcond(*A.shape))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"least-squares solve failed: {exc}") from exc


def _pinv_fit(A: np.ndarray, y: np.ndarray, flag: str) -> CoefficientVector:
    """Minimal-norm least-squares solution, flagged `flag` when lstsq ranks A
    below min(m, N): it counts sigma <= `rank_rcond`(m, N) sigma_max as zero."""
    c, _, rank, sv = _lstsq(A, y)
    flags = () if rank == min(A.shape) else (flag,)
    return CoefficientVector(c, l2_norm(A @ c - y), flags=flags, singular_values=sv[::-1])


def least_squares(A: np.ndarray, y: np.ndarray) -> CoefficientVector:
    """argmin ||Ac - y||_2 for m >= N via SVD; falls back to the minimal-norm
    pseudoinverse solution (flagged) when A is numerically rank-deficient."""
    A, y = _as_matrix_vector(A, y)
    m, n = A.shape
    if m < n:
        raise InvalidArgumentError(f"least_squares requires m >= N, got {m} < {n}")
    return _pinv_fit(A, y, "rank_deficient_pseudoinverse")


def min_norm_interpolate(A: np.ndarray, y: np.ndarray) -> CoefficientVector:
    """Smallest-l2 interpolant c = A*(AA*)^{-1} y for m <= N, computed via the
    SVD pseudoinverse so c lies in the row space of A.  When the row Gram AA*
    is numerically singular the result is the minimal-norm least-squares
    solution, flagged FLAG_SINGULAR_GRAM, and need not interpolate."""
    A, y = _as_matrix_vector(A, y)
    m, n = A.shape
    if m > n:
        raise InvalidArgumentError(f"min_norm_interpolate requires m <= N, got {m} > {n}")
    return _pinv_fit(A, y, FLAG_SINGULAR_GRAM)


def ridge(A: np.ndarray, y: np.ndarray, lam: float) -> CoefficientVector:
    """argmin (1/m)||Ac - y||^2 + lam ||c||^2, i.e. (A*A/m + lam I) c = A*y/m.

    Solved on the smaller Gram: for m < N the push-through identity
    c = A*(AA* + m lam I)^{-1} y avoids the N x N system.
    """
    A, y = _as_matrix_vector(A, y)
    m, n = A.shape
    if lam <= 0:
        raise InvalidArgumentError("ridge requires lam > 0")
    if n <= m:
        G = A.conj().T @ A + m * lam * np.eye(n)
        c = np.linalg.solve(G, A.conj().T @ y)
    else:
        G = A @ A.conj().T + m * lam * np.eye(m)
        c = A.conj().T @ np.linalg.solve(G, y)
    return CoefficientVector(c, l2_norm(A @ c - y))


def _soft_threshold(z: np.ndarray, t: float) -> np.ndarray:
    """Complex soft-thresholding: shrinks the modulus by t, preserves phase."""
    mag = np.abs(z)
    scale = np.maximum(0.0, 1.0 - t / np.maximum(mag, 1e-300))
    return z * scale


def _bpdn_gap(A: np.ndarray, y: np.ndarray, radius: float, c: np.ndarray,
              u: np.ndarray) -> tuple[float, float]:
    """(feasibility violation, duality gap) for primal c and scaled dual u.

    Any u with ||A*u||_inf <= 1 gives the lower bound
    -Re<y, u> - radius ||u||_2 <= min ||c||_1; u is rescaled into that set.
    """
    feas = max(0.0, l2_norm(A @ c - y) - radius)
    z = A.conj().T @ u
    denom = max(1.0, float(np.abs(z).max())) if z.size else 1.0
    uf = u / denom
    dual = -float(np.real(np.vdot(y, uf))) - radius * l2_norm(uf)
    gap = float(np.abs(c).sum()) - dual
    return feas, gap


def bpdn(A: np.ndarray, y: np.ndarray, xi: float, tolerance: float = 1e-6,
         max_iter: int = 100_000) -> CoefficientVector:
    """Basis pursuit denoising: min ||c||_1 subject to ||Ac - y||_2 <= xi sqrt(m).

    Primal-dual hybrid gradient on the conic form; stops once the constraint
    violation and the duality gap are both below `tolerance`.  When c = 0 is
    feasible it is optimal and is returned at iteration 0, flagged
    FLAG_ZERO_FEASIBLE.  Raises InfeasibleProblemError when no c comes within
    `tolerance` of the constraint.  For A = 0 every c leaves the residual ||y||,
    so c = 0 is optimal and is returned unflagged at iteration 0.
    """
    A, y = _as_matrix_vector(A, y)
    m, n = A.shape
    if xi < 0:
        raise InvalidArgumentError("xi must be non-negative")
    if not 0 < tolerance < np.inf:
        raise InvalidArgumentError(f"tolerance must be finite and positive, got {tolerance}")
    radius = xi * np.sqrt(m)

    y_norm = l2_norm(y)
    if y_norm <= radius:
        return CoefficientVector(np.zeros(n, dtype=np.complex128), y_norm,
                                 duality_gap=0.0, flags=(FLAG_ZERO_FEASIBLE,))

    c_feas, _, _, sv = _lstsq(A, y)
    min_residual = l2_norm(A @ c_feas - y)
    if min_residual > radius + tolerance:
        raise InfeasibleProblemError(
            f"||Ac - y|| cannot go below {min_residual:.3e}, constraint level is "
            f"{radius:.3e}"
        )

    opnorm = float(sv[0])  # the largest singular value, from the solve above
    c = np.zeros(n, dtype=np.complex128)
    u = np.zeros(m, dtype=np.complex128)
    if opnorm == 0.0:  # A = 0, where PDHG has no step size
        _, gap = _bpdn_gap(A, y, radius, c, u)
        return CoefficientVector(c, min_residual, duality_gap=gap)
    tau = sigma_step = 0.99 / opnorm
    c_bar = c.copy()
    check_every = 25
    feas = gap = float("inf")
    for it in range(1, max_iter + 1):
        w = u + sigma_step * (A @ c_bar - y)
        wn = l2_norm(w)
        u = w * max(0.0, 1.0 - sigma_step * radius / wn) if wn > 0 else w
        c_next = _soft_threshold(c - tau * (A.conj().T @ u), tau)
        c_bar = 2.0 * c_next - c
        c = c_next
        if it % check_every == 0:
            feas, gap = _bpdn_gap(A, y, radius, c, u)
            if feas <= tolerance and gap <= tolerance:
                return CoefficientVector(c, l2_norm(A @ c - y), iterations=it,
                                         duality_gap=gap)
    raise ConvergenceError(
        f"bpdn did not certify optimality in {max_iter} iterations "
        f"(gap {gap:.3e}, feasibility {feas:.3e})",
        last_gap=gap, last_feasibility=feas, iterations=max_iter,
    )


def prune_top_s(values: np.ndarray, s: int) -> np.ndarray:
    """Keep the s largest-modulus entries (ties keep the lower index), zero the rest."""
    n = values.shape[0]
    if not 1 <= s <= n:
        raise InvalidArgumentError(f"s must be in [1, {n}], got {s}")
    keep = np.argsort(-np.abs(values), kind="stable")[:s]
    pruned = np.zeros_like(values)
    pruned[keep] = values[keep]
    return pruned


def best_s_term_error(values: np.ndarray, s: int, p: int) -> float:
    """l^p norm of the N - s smallest-modulus entries (the best s-term
    approximation error)."""
    n = values.shape[0]
    if not 1 <= s <= n:
        raise InvalidArgumentError(f"s must be in [1, {n}], got {s}")
    if p not in (1, 2):
        raise InvalidArgumentError("p must be 1 or 2")
    tail = np.sort(np.abs(values))[: n - s]
    if p == 1:
        return float(tail.sum())
    return float(np.sqrt((tail**2).sum()))
