"""Synthetic regression targets with known structure, model predictions, and
the population risk of a model in closed form (`population_risk`).

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
from functools import reduce

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .features import _BLOCK_ENTRIES, FOURIER, RELU, block_ranges, build_features
from .sampling import RngStream, gaussian_matrix

KIND_LINEAR = "linear"
KIND_PLANTED = "planted"
KIND_BUMP = "gaussian_bump"

# population_risk clips a negative value to 0 only within this fraction of
# E|f|^2 + c*Kc, the size of the terms that cancel.
_RISK_ROUNDING = 1e-12


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

    def alpha_over_rho(self, W: np.ndarray) -> np.ndarray:
        """alpha(w_k)/rho(w_k) at the weight columns; only targets with a
        closed-form transform ratio, those with a `rho_norm`, support this."""
        if self.rho_norm is None:
            raise InvalidArgumentError(f"target kind {self.kind!r} has no closed-form alpha/rho")
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
    if not np.isfinite(rho_norm):  # also catches a non-finite a, a^2 or sigma^2
        raise InvalidArgumentError(f"gaussian_bump rho-norm (a^2 sigma^2)^(d/2) is not "
                                   f"finite: a = {a!r}, sigma = {sigma!r}, d = {d}")
    if a**2 < 1.0 / sigma**2:
        raise InvalidArgumentError(
            f"gaussian_bump needs a^2 >= 1/sigma^2 for a finite rho-norm "
            f"(got a^2 = {a**2:.4g} < {1.0 / sigma**2:.4g})"
        )
    return TargetFunction(KIND_BUMP, {"a": a, "sigma": sigma}, rho_norm)


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
        if not sigma > 0:
            raise InvalidArgumentError(f"sigma must be positive to draw planted W0, got {sigma}")
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


def best_phi_coeffs(target: TargetFunction, W: np.ndarray) -> np.ndarray:
    """Monte Carlo discretization of the target's integral representation:
    c*_k = alpha(w_k) / (N rho(w_k)); every entry obeys |c*_k| <= ||f||_rho / N."""
    ratio = target.alpha_over_rho(np.asarray(W))
    return np.asarray(ratio, dtype=np.complex128) / ratio.shape[0]


def evaluate_model(W: np.ndarray, c: np.ndarray, Z: np.ndarray,
                   kind: str = FOURIER) -> np.ndarray:
    """Model predictions f#(z_j) = sum_k c_k phi(z_j, w_k) at the columns of Z.

    The test features are built and applied in the row blocks of
    `features.block_ranges`, so memory is that of one block, not
    O(n_test * N): 8 test points at N = 15000.  Block edges on multiples of
    8 rows, and no 1-row block, keep every row on the BLAS kernel path of the
    one-shot product build_features(Z, W, kind) @ c: with OpenBLAS the
    predictions equal it bit for bit when N is a multiple of 8.  A block
    whose rows hold more than _BLOCK_ENTRIES entries (8 rows of more than
    19,200 features, or a last block of 9 rows of more than 17,066) is also
    cut into column pieces of at most _BLOCK_ENTRIES // rows features whose
    partial products are summed in order; its predictions agree with the
    one-shot product to rounding, not bit for bit.
    """
    values = np.asarray(c)
    W = np.asarray(W)
    Z = np.asarray(Z)
    if values.shape[0] != W.shape[1]:
        raise InvalidArgumentError(
            f"coefficient length {values.shape[0]} does not match {W.shape[1]} weights"
        )
    if Z.ndim != 2 or Z.shape[1] < 1:
        raise InvalidArgumentError("Z must be a d x n_test array with n_test >= 1")

    def predict(i: int, j: int) -> np.ndarray:
        X, step = Z[:, i:j], _BLOCK_ENTRIES // (j - i)
        # with no features one build still runs, so build_features rejects W
        return reduce(np.add, (build_features(X, W[:, a:a + step], kind) @ values[a:a + step]
                               for a in range(0, max(W.shape[1], 1), step)))

    return np.concatenate([predict(i, j) for i, j in block_ranges(Z.shape[1], W.shape[1])])


def _kernel(V1: np.ndarray, V2: np.ndarray, gamma: float, kind: str) -> np.ndarray:
    """K_ij = E[phi(z, v1_i) conj(phi(z, v2_j))] over z ~ N(0, gamma^2 I_d).

    Fourier features give the Gaussian kernel exp(-gamma^2 ||v1_i - v2_j||^2 / 2);
    ReLU features the order-1 arc-cosine kernel (Cho & Saul, "Kernel Methods
    for Deep Learning", NeurIPS 2009)
    gamma^2 ||v1_i|| ||v2_j|| (sin t + (pi - t) cos t) / (2 pi), t the angle
    between the two columns.  Both are real and symmetric."""
    G = V1.T @ V2
    sq1, sq2 = np.sum(V1**2, axis=0), np.sum(V2**2, axis=0)
    if kind == FOURIER:
        return np.exp(-0.5 * gamma**2 * np.maximum(sq1[:, None] + sq2 - 2.0 * G, 0.0))
    norms = np.sqrt(sq1)[:, None] * np.sqrt(sq2)
    # relu(<z, 0>) = 0 for every z, so a zero-norm column has a zero kernel
    # row whatever the angle; dividing by its zero norm would give nan.
    cos = np.clip(np.divide(G, norms, out=np.zeros_like(G), where=norms > 0), -1.0, 1.0)
    return (gamma**2 / (2.0 * np.pi) * norms
            * (np.sqrt(1.0 - cos**2) + (np.pi - np.arccos(cos)) * cos))


def _quadratic_form(W: np.ndarray, c: np.ndarray, gamma: float, kind: str) -> float:
    """c* K c over the kernel of the columns of W, built in the row blocks of
    `features.block_ranges`, so memory is that of one block, not O(N^2); the
    kernel of N <= 391 columns is a single block.  K is real and symmetric,
    so c* K c = Re(c)^T K Re(c) + Im(c)^T K Im(c)."""
    C = np.stack([c.real, c.imag], axis=1)
    return sum(float(np.sum(C[i:j] * (_kernel(W[:, i:j], W, gamma, kind) @ C)))
               for i, j in block_ranges(W.shape[1], W.shape[1]))


def _target_moments(target: TargetFunction, W: np.ndarray, gamma: float,
                    kind: str) -> tuple[float, np.ndarray]:
    """(E|f|^2, g) over z ~ N(0, gamma^2 I_d), with g_k = E[f(z) conj(phi(z, w_k))]."""
    d, g2 = W.shape[0], gamma**2
    sq = np.sum(W**2, axis=0)
    if target.kind == KIND_LINEAR:
        b = target.params["b"]
        bw = b @ W
        g = -1j * g2 * bw * np.exp(-0.5 * g2 * sq) if kind == FOURIER else 0.5 * g2 * bw
        return g2 * float(b @ b), g
    if target.kind == KIND_BUMP:
        # z's density times the bump is (1 + gamma^2/a^2)^(-d/2) times the
        # density of N(0, s2 I_d), s2 = gamma^2 a^2 / (a^2 + gamma^2).
        a2 = target.params["a"] ** 2
        mass, s2 = (1.0 + g2 / a2) ** (-d / 2.0), g2 * a2 / (a2 + g2)
        g = np.exp(-0.5 * s2 * sq) if kind == FOURIER else np.sqrt(s2 * sq / (2.0 * np.pi))
        return (1.0 + 2.0 * g2 / a2) ** (-d / 2.0), mass * g
    W0, c0 = target.params["W0"], np.asarray(target.params["c0"])
    return _quadratic_form(W0, c0, gamma, kind), _kernel(W, W0, gamma, kind) @ c0


def population_risk(target: TargetFunction, W: np.ndarray, c: np.ndarray, gamma: float,
                    kind: str = FOURIER) -> float:
    """The population risk E_z |f(z) - f#(z)|^2, z ~ N(0, gamma^2 I_d), of the
    model f# = sum_k c_k phi(., w_k) in closed form:

        E|f|^2 - 2 Re sum_k conj(c_k) E[f conj(phi_k)] + c* K c,

    K the feature kernel of `_kernel`.  Every term is Gaussian: for the
    linear target E f^2 = gamma^2 ||b||^2 and E[f conj(phi_k)] is
    -i gamma^2 (b.w_k) exp(-gamma^2 ||w_k||^2 / 2) (Fourier) or
    gamma^2 (b.w_k) / 2 (ReLU); the bump's moments follow by absorbing it into
    z's density; a planted target gives the quadratic form u* K u over
    [W0, W] with u = [c0; -c], taken here in its three blocks.  Only the
    nonzero entries of c enter, so the cost is O(nnz(c)^2 d) and the memory
    O(block * nnz(c)).

    A negative value within `_RISK_ROUNDING` of E|f|^2 + c* K c is rounding
    in the cancellation of a risk near 0 and returns 0; below that it raises
    NumericalFailureError, as does a risk that is not finite (nan or inf)."""
    values = np.asarray(c)
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or values.shape != (W.shape[1],):
        raise InvalidArgumentError("population_risk needs W (d x N) and c of length N")
    if kind not in (FOURIER, RELU):
        raise InvalidArgumentError(f"unknown feature kind {kind!r}")
    if not (gamma >= 0 and np.isfinite(gamma)):
        raise InvalidArgumentError(f"gamma must be finite and >= 0, got {gamma!r}")
    d = W.shape[0]
    if target.kind == KIND_LINEAR and target.params["b"].shape != (d,):
        raise InvalidArgumentError(f"linear target has dimension {target.params['b'].size}, "
                                   f"W has {d}")
    if target.kind == KIND_PLANTED and (target.params["W0"].shape[0] != d
                                        or target.params["feature_kind"] != kind):
        raise InvalidArgumentError("a planted target needs W0 of W's dimension and the "
                                   "model's feature kind")
    keep = np.flatnonzero(values)
    W, values = W[:, keep], values[keep]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite risk raises below
        f2, g = _target_moments(target, W, gamma, kind)
        cKc = _quadratic_form(W, values, gamma, kind)
        risk = f2 - 2.0 * float(np.vdot(values, g).real) + cKc
    if risk < 0 and -risk <= _RISK_ROUNDING * (f2 + cKc):
        return 0.0
    if not 0 <= risk < np.inf:
        problem = "is not finite" if not np.isfinite(risk) else "is negative beyond rounding"
        raise NumericalFailureError(
            f"closed-form risk {risk!r} {problem} (E|f|^2 = {f2!r}, c*Kc = {cKc!r})")
    return risk

