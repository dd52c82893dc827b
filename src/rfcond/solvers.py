"""Training rules for random feature coefficients.

Least squares and min-norm interpolation go through SVD-based solves (the
pseudoinverse path), ridge through the shifted normal equations on the smaller
Gram, and basis pursuit denoising through a primal-dual splitting scheme with
complex soft-thresholding certified by an explicit duality gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConvergenceError,
    InfeasibleProblemError,
    InvalidArgumentError,
)

FLAG_SINGULAR_GRAM = "singular_gram_pseudoinverse"
# bpdn returned c = 0 without iterating: ||y|| <= xi sqrt(m), so zero is feasible.
FLAG_ZERO_FEASIBLE = "zero_feasible_no_iterations"


@dataclass(frozen=True)
class Diagnostics:
    residual_norm: float = 0.0
    iterations: int = 0
    duality_gap: float | None = None
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class CoefficientVector:
    values: np.ndarray
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    def __len__(self) -> int:
        return self.values.shape[0]


def _as_matrix_vector(A: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    A = np.asarray(A)
    y = np.asarray(y).ravel()
    if A.ndim != 2:
        raise InvalidArgumentError("A must be a 2-d array")
    if y.shape[0] != A.shape[0]:
        raise InvalidArgumentError(f"y has length {y.shape[0]}, expected {A.shape[0]}")
    return A.astype(np.complex128), y.astype(np.complex128)


def _residual_norm(A: np.ndarray, c: np.ndarray, y: np.ndarray) -> float:
    return float(np.linalg.norm(A @ c - y))


def least_squares(A: np.ndarray, y: np.ndarray) -> CoefficientVector:
    """argmin ||Ac - y||_2 for m >= N via SVD; falls back to the minimal-norm
    pseudoinverse solution (flagged) when A is numerically rank-deficient."""
    A, y = _as_matrix_vector(A, y)
    m, n = A.shape
    if m < n:
        raise InvalidArgumentError(f"least_squares requires m >= N, got {m} < {n}")
    c, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    flags = () if rank == n else ("rank_deficient_pseudoinverse",)
    diag = Diagnostics(residual_norm=_residual_norm(A, c, y), flags=flags)
    return CoefficientVector(c, diag)


def min_norm_interpolate(A: np.ndarray, y: np.ndarray) -> CoefficientVector:
    """Smallest-l2 interpolant c = A*(AA*)^{-1} y for m <= N, computed via the
    SVD pseudoinverse so c lies in the row space of A.  When the row Gram AA*
    is numerically singular the result is the minimal-norm least-squares
    solution, flagged FLAG_SINGULAR_GRAM, and need not interpolate."""
    A, y = _as_matrix_vector(A, y)
    m, n = A.shape
    if m > n:
        raise InvalidArgumentError(f"min_norm_interpolate requires m <= N, got {m} > {n}")
    c, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    flags = () if rank == m else (FLAG_SINGULAR_GRAM,)
    diag = Diagnostics(residual_norm=_residual_norm(A, c, y), flags=flags)
    return CoefficientVector(c, diag)


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
    diag = Diagnostics(residual_norm=_residual_norm(A, c, y))
    return CoefficientVector(c, diag)


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
    feas = max(0.0, float(np.linalg.norm(A @ c - y)) - radius)
    z = A.conj().T @ u
    denom = max(1.0, float(np.abs(z).max())) if z.size else 1.0
    uf = u / denom
    dual = -float(np.real(np.vdot(y, uf))) - radius * float(np.linalg.norm(uf))
    gap = float(np.abs(c).sum()) - dual
    return feas, gap


def bpdn(A: np.ndarray, y: np.ndarray, xi: float, tolerance: float = 1e-6,
         max_iter: int = 100_000) -> CoefficientVector:
    """Basis pursuit denoising: min ||c||_1 subject to ||Ac - y||_2 <= xi sqrt(m).

    Primal-dual hybrid gradient on the conic form; stops once the constraint
    violation and the duality gap are both below `tolerance`.  When c = 0 is
    feasible it is optimal and is returned at iteration 0, flagged
    FLAG_ZERO_FEASIBLE.
    """
    A, y = _as_matrix_vector(A, y)
    m, n = A.shape
    if xi < 0:
        raise InvalidArgumentError("xi must be non-negative")
    if tolerance <= 0:
        raise InvalidArgumentError("tolerance must be positive")
    radius = xi * np.sqrt(m)

    if np.linalg.norm(y) <= radius:
        diag = Diagnostics(residual_norm=float(np.linalg.norm(y)), iterations=0,
                           duality_gap=0.0, flags=(FLAG_ZERO_FEASIBLE,))
        return CoefficientVector(np.zeros(n, dtype=np.complex128), diag)

    c_feas, *_ = np.linalg.lstsq(A, y, rcond=None)
    min_residual = float(np.linalg.norm(A @ c_feas - y))
    if min_residual > radius + tolerance:
        raise InfeasibleProblemError(
            f"||Ac - y|| cannot go below {min_residual:.3e}, constraint level is "
            f"{radius:.3e}"
        )

    opnorm = float(np.linalg.norm(A, 2))
    tau = sigma_step = 0.99 / opnorm
    c = np.zeros(n, dtype=np.complex128)
    c_bar = c.copy()
    u = np.zeros(m, dtype=np.complex128)
    check_every = 25
    feas = gap = float("inf")
    for it in range(1, max_iter + 1):
        w = u + sigma_step * (A @ c_bar - y)
        wn = float(np.linalg.norm(w))
        u = w * max(0.0, 1.0 - sigma_step * radius / wn) if wn > 0 else w
        c_next = _soft_threshold(c - tau * (A.conj().T @ u), tau)
        c_bar = 2.0 * c_next - c
        c = c_next
        if it % check_every == 0:
            feas, gap = _bpdn_gap(A, y, radius, c, u)
            if feas <= tolerance and gap <= tolerance:
                diag = Diagnostics(residual_norm=_residual_norm(A, c, y),
                                   iterations=it, duality_gap=gap)
                return CoefficientVector(c, diag)
    raise ConvergenceError(
        f"bpdn did not certify optimality in {max_iter} iterations "
        f"(gap {gap:.3e}, feasibility {feas:.3e})",
        last_gap=gap, last_feasibility=feas, iterations=max_iter,
    )


def prune_top_s(c: CoefficientVector, s: int) -> CoefficientVector:
    """Keep the s largest-modulus entries (ties keep the lower index), zero the rest."""
    n = len(c)
    if not 1 <= s <= n:
        raise InvalidArgumentError(f"s must be in [1, {n}], got {s}")
    order = np.argsort(-np.abs(c.values), kind="stable")
    keep = order[:s]
    pruned = np.zeros_like(c.values)
    pruned[keep] = c.values[keep]
    return replace(c, values=pruned)


def best_s_term_error(c: CoefficientVector | np.ndarray, s: int, p: int) -> float:
    """l^p norm of the N - s smallest-modulus entries (the best s-term
    approximation error)."""
    values = c.values if isinstance(c, CoefficientVector) else np.asarray(c)
    n = values.shape[0]
    if not 1 <= s <= n:
        raise InvalidArgumentError(f"s must be in [1, {n}], got {s}")
    if p not in (1, 2):
        raise InvalidArgumentError("p must be 1 or 2")
    tail = np.sort(np.abs(values))[: n - s]
    if p == 1:
        return float(tail.sum())
    return float(np.sqrt((tail**2).sum()))
