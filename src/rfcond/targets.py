"""Synthetic regression targets with known structure and model predictions.

Three families:

* linear         f(x) = b.x       -- the double-descent sweep target; its
                                     transform is distributional, so it has no
                                     finite rho-norm and is excluded from
                                     bound-validation experiments.
* planted        f(x) = sum_k c0_k phi(x, w0_k) -- exactly representable.
* gaussian_bump  f(x) = exp(-||x||^2 / (2 a^2)) -- canonical member of the
                                     finite-rho-norm class: against Gaussian
                                     weights N(0, sigma^2 I) its transform
                                     ratio is the closed form
                                     alpha/rho = (a sigma)^d exp(-(a^2 - 1/sigma^2)||w||^2 / 2),
                                     so ||f||_rho = (a^2 sigma^2)^(d/2), finite
                                     iff a^2 >= 1/sigma^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UnsupportedTargetError
from .features import FOURIER, build_features
from .sampling import RngStream, gaussian_matrix
from .solvers import CoefficientVector

KIND_LINEAR = "linear"
KIND_PLANTED = "planted"
KIND_BUMP = "gaussian_bump"

# Largest test-feature block evaluate_model builds at once, in matrix entries
# (16 MiB of complex128).
_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class TargetFunction:
    kind: str
    params: dict
    rho_norm: float | None

    def evaluate(self, Z: np.ndarray) -> np.ndarray:
        """Target values at the columns of Z (d x M)."""
        Z = np.asarray(Z)
        if self.kind == KIND_LINEAR:
            return self.params["b"] @ Z
        if self.kind == KIND_PLANTED:
            A = build_features(Z, self.params["W0"], self.params["feature_kind"])
            return A @ self.params["c0"]
        if self.kind == KIND_BUMP:
            a = self.params["a"]
            return np.exp(-np.sum(Z**2, axis=0) / (2.0 * a**2))
        raise InvalidArgumentError(f"unknown target kind {self.kind!r}")

    @property
    def has_alpha_over_rho(self) -> bool:
        return self.kind == KIND_BUMP

    def alpha_over_rho(self, W: np.ndarray) -> np.ndarray:
        """alpha(w_k)/rho(w_k) at the weight columns; only targets with a
        closed-form transform ratio support this."""
        if not self.has_alpha_over_rho:
            raise UnsupportedTargetError(
                f"target kind {self.kind!r} has no closed-form alpha/rho"
            )
        a, sigma = self.params["a"], self.params["sigma"]
        sq = np.sum(np.asarray(W) ** 2, axis=0)
        return self.rho_norm * np.exp(-0.5 * (a**2 - 1.0 / sigma**2) * sq)


def linear_target(b: np.ndarray) -> TargetFunction:
    b = np.asarray(b, dtype=float).ravel()
    if b.size == 0:
        raise InvalidArgumentError("linear target needs a non-empty coefficient vector")
    return TargetFunction(KIND_LINEAR, {"b": b}, None)


def planted_target(W0: np.ndarray, c0: np.ndarray, feature_kind: str = FOURIER) -> TargetFunction:
    W0 = np.asarray(W0)
    c0 = np.asarray(c0)
    if W0.ndim != 2 or c0.ndim != 1 or W0.shape[1] != c0.shape[0]:
        raise InvalidArgumentError("planted target needs W0 (d x s) and c0 (length s)")
    return TargetFunction(
        KIND_PLANTED, {"W0": W0, "c0": c0, "feature_kind": feature_kind}, None
    )


def gaussian_bump_target(a: float, sigma: float, d: int) -> TargetFunction:
    if a <= 0 or sigma <= 0 or d < 1:
        raise InvalidArgumentError("gaussian_bump needs a > 0, sigma > 0, d >= 1")
    try:
        rho_norm = float((a**2 * sigma**2) ** (d / 2.0))
    except OverflowError:
        rho_norm = np.inf
    if not np.isfinite(rho_norm):  # also catches a non-finite a or a^2
        raise InvalidArgumentError(f"gaussian_bump needs finite a, a^2, rho-norm; got a = {a!r}")
    if a**2 < 1.0 / sigma**2:
        raise InvalidArgumentError(
            f"gaussian_bump needs a^2 >= 1/sigma^2 for a finite rho-norm "
            f"(got a^2 = {a**2:.4g} < {1.0 / sigma**2:.4g})"
        )
    return TargetFunction(KIND_BUMP, {"a": a, "sigma": sigma, "d": d}, rho_norm)


def sample_target(kind: str, d: int, sigma: float, stream: RngStream,
                  feature_kind: str = FOURIER, planted_s: int = 2,
                  bump_width: float | None = None) -> TargetFunction:
    """Draw a target of the requested kind from its own stream.

    linear: b ~ U[0,1]^d.  planted: s weight atoms ~ N(0, sigma^2 I) with unit
    expected-energy coefficients.  gaussian_bump: deterministic given the width
    (default a^2 = 2/sigma^2).
    """
    gen = stream.generator()
    if kind == KIND_LINEAR:
        return linear_target(gen.uniform(0.0, 1.0, size=d))
    if kind == KIND_PLANTED:
        W0 = gaussian_matrix(d, planted_s, sigma**2, stream.substream(1))
        if feature_kind == FOURIER:
            c0 = (gen.normal(size=planted_s) + 1j * gen.normal(size=planted_s))
            c0 /= np.sqrt(2.0 * planted_s)
        else:
            c0 = gen.normal(size=planted_s) / np.sqrt(planted_s)
        return planted_target(W0, c0, feature_kind)
    if kind == KIND_BUMP:
        a = np.sqrt(2.0) / sigma if bump_width is None else bump_width
        return gaussian_bump_target(float(a), sigma, d)
    raise InvalidArgumentError(f"unknown target kind {kind!r}")


def best_phi_coeffs(target: TargetFunction, W: np.ndarray) -> CoefficientVector:
    """Monte Carlo discretization of the target's integral representation:
    c*_k = alpha(w_k) / (N rho(w_k)); every entry obeys |c*_k| <= ||f||_rho / N."""
    ratio = target.alpha_over_rho(np.asarray(W))
    n = ratio.shape[0]
    return CoefficientVector(np.asarray(ratio, dtype=np.complex128) / n)


def _row_blocks(n: int, n_features: int) -> list[tuple[int, int]]:
    """Row ranges [i, j) that cover range(n) once, in order.  Each holds at
    most `step` rows, the largest multiple of 8 (8 at the least) whose rows
    have at most _BLOCK_ENTRIES entries.  Every edge is a multiple of 8 and
    the last block is a single row only when n is 1; when step is 8, that
    takes a last block of 9 rows."""
    step = max(8, _BLOCK_ENTRIES // n_features // 8 * 8)
    cuts = [*range(0, n, step), n]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        cuts[-2] -= 8
    return [(i, j) for i, j in zip(cuts, cuts[1:]) if j > i]


def evaluate_model(W: np.ndarray, c: CoefficientVector | np.ndarray, Z: np.ndarray,
                   kind: str = FOURIER) -> np.ndarray:
    """Model predictions f#(z_j) = sum_k c_k phi(z_j, w_k) at the columns of Z.

    The test features are built and applied in the row blocks of
    `_row_blocks`, so memory is O(block * N), not O(n_test * N); at sweep
    sizes (N <= 500, n_test = 1000) that is a single block.  Block edges on
    multiples of 8 rows, and no 1-row block, keep every row on the BLAS
    kernel path of the one-shot product build_features(Z, W, kind) @ c: with
    OpenBLAS the predictions equal it bit for bit when N is a multiple of 8.
    """
    values = c.values if isinstance(c, CoefficientVector) else np.asarray(c)
    W = np.asarray(W)
    Z = np.asarray(Z)
    if values.shape[0] != W.shape[1]:
        raise InvalidArgumentError(
            f"coefficient length {values.shape[0]} does not match {W.shape[1]} weights"
        )
    if Z.ndim != 2 or Z.shape[1] < 1:
        raise InvalidArgumentError("Z must be a d x n_test array with n_test >= 1")
    return np.concatenate([build_features(Z[:, i:j], W, kind) @ values
                           for i, j in _row_blocks(Z.shape[1], W.shape[1])])


def worst_case_theta(s: int, N: int, f_rho_norm: float) -> float:
    """Worst-case compressibility of the best-phi coefficients:
    theta_{s,1}(c*) <= (1 - s/N) ||f||_rho."""
    if not 1 <= s <= N:
        raise InvalidArgumentError(f"s must be in [1, {N}], got {s}")
    return (1.0 - s / N) * f_rho_norm


def target_to_json(target: TargetFunction) -> dict:
    """Serializable form {kind, params, rho_norm}; complex arrays become
    [re, im] pairs."""
    params: dict = {}
    if target.kind == KIND_LINEAR:
        params["b"] = target.params["b"].tolist()
    elif target.kind == KIND_PLANTED:
        c0 = np.asarray(target.params["c0"], dtype=np.complex128)
        params["W0"] = np.asarray(target.params["W0"]).tolist()
        params["c0"] = [[float(v.real), float(v.imag)] for v in c0]
        params["feature_kind"] = target.params["feature_kind"]
    elif target.kind == KIND_BUMP:
        params = {"a": target.params["a"], "sigma": target.params["sigma"],
                  "d": target.params["d"]}
    return {"kind": target.kind, "params": params, "rho_norm": target.rho_norm}
