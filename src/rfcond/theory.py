"""Closed-form conditioning and risk bounds for Gaussian Fourier feature models.

Everything here is a deterministic formula evaluation: eigenvalue bands and
condition-number caps parameterized by eta, the feature-overlap constant
beta = (2 gamma^2 sigma^2 + 1)^(-d/2) and its inversion, the restricted
isometry budget f(eta1, eta2, eta3), regime complexity conditions, and the
risk bounds for least squares, min-norm interpolation, and sparse regression.

All logarithms are natural; every ">=" condition passes at exact equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidArgumentError

# Largest eta keeping the eigenvalue band (1 - 5eta/4 - eta^2, ...) positive.
ETA_MAX = (math.sqrt(89.0) - 5.0) / 8.0

# Prefactor of the underparameterized least-squares risk bound; explicit in
# the theorem statement.
LS_PREFACTOR = 16.0

# Constants the proofs leave symbolic: the chaining constant c_tilde1 (finite
# bound 37.97, asymptotic 15.38), C-tilde of the min-norm risk bound, and C'
# and C'' of the sparse-regression risk bound.
C_TILDE1 = 37.97
C_MIN_NORM = 16.0
C_PRIME = 10.0
C_DPRIME = 10.0

REGIME_UNDER = "under"
REGIME_OVER = "over"
REGIME_INTERPOLATION = "interpolation"

MODE_STRICT = "strict"
MODE_PERMISSIVE = "permissive"


def _exp_power(base: float, exponent: float) -> float:
    """base**exponent for base >= 1 without OverflowError (saturates to inf)."""
    if base < 1.0:
        return base**exponent
    t = exponent * math.log(base)
    if t > 700.0:
        return math.inf
    return math.exp(t)


@dataclass(frozen=True)
class TheoryConstants:
    """Mode of the universal condition constant C.

    Strict mode uses the proof-grade C2(eta) = 4 C_TILDE1^2 / eta^2.
    Permissive mode replaces C by 1 for desk-scale empirical validation, where
    the proof-grade constants are unreachable; it never alters bound values.
    """

    permissive: bool = False

    def universal(self, eta: float) -> float:
        """Condition constant C at a given eta in this mode."""
        if self.permissive:
            return 1.0
        return 4.0 * C_TILDE1**2 / eta**2

    @property
    def mode(self) -> str:
        return MODE_PERMISSIVE if self.permissive else MODE_STRICT


DEFAULT_CONSTANTS = TheoryConstants()


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    lhs: float
    rhs: float
    satisfied: bool

    def as_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "ok": self.satisfied}


@dataclass(frozen=True)
class RegimeReport:
    regime: str
    eta: float
    band: tuple[float, float]
    conditions: tuple[ConditionCheck, ...]
    failure_probability: float | None

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.conditions)

    def as_dict(self) -> dict:
        return {
            "regime": self.regime,
            "eta": self.eta,
            "band": [self.band[0], self.band[1]],
            "conditions": [c.as_dict() for c in self.conditions],
            "failure_probability": self.failure_probability,
        }


def beta_overlap(gamma: float, sigma: float, d: int) -> float:
    """Expected modulus of the overlap between two distinct feature columns,
    |E exp(i<x, w_j - w_k>)| = (2 gamma^2 sigma^2 + 1)^(-d/2)."""
    if gamma < 0 or sigma < 0:
        raise InvalidArgumentError("gamma and sigma must be non-negative")
    if d < 1:
        raise InvalidArgumentError("d must be a positive integer")
    return _exp_power(2.0 * gamma**2 * sigma**2 + 1.0, -0.5 * d)


def eig_band(eta: float) -> tuple[float, float]:
    """Eigenvalue band (1 - 5eta/4 - eta^2, 1 + 5eta/4 + eta^2) of the
    normalized Gram; requires 0 < eta < (sqrt(89) - 5)/8 so the band stays
    inside (0, 2)."""
    if not 0.0 < eta < ETA_MAX:
        raise InvalidArgumentError(f"eta must lie in (0, {ETA_MAX:.6f}), got {eta}")
    half = 1.25 * eta + eta**2
    return (1.0 - half, 1.0 + half)


def K_eta(eta: float) -> float:
    """Condition-number cap of the normalized Gram: band_high / band_low."""
    low, high = eig_band(eta)
    return high / low


def kappa_threshold(eta2: float, s: int, d: int) -> float:
    """Minimum gamma*sigma making s * beta_overlap <= eta2:
    sqrt((( s / eta2 )^(2/d) - 1) / 2)."""
    if not 0.0 < eta2 <= 1.0:
        raise InvalidArgumentError("eta2 must lie in (0, 1]")
    if s < 1:
        raise InvalidArgumentError("s must be >= 1")
    if d < 1:
        raise InvalidArgumentError("d must be a positive integer")
    return math.sqrt(max(0.0, (s / eta2) ** (2.0 / d) - 1.0) / 2.0)


def rip_bound_f(eta1: float, eta2: float, eta3: float) -> float:
    """Restricted isometry budget f = eta1^2/2 + eta1 sqrt(eta1^2/4 + eta2 + 1)
    + eta2 + eta3."""
    for name, v in (("eta1", eta1), ("eta2", eta2), ("eta3", eta3)):
        if not 0.0 < v < 1.0:
            raise InvalidArgumentError(f"{name} must lie in (0, 1), got {v}")
    return eta1**2 / 2.0 + eta1 * math.sqrt(eta1**2 / 4.0 + eta2 + 1.0) + eta2 + eta3


def interpolation_expectation_bounds(N: int, gamma: float, sigma: float,
                                     d: int) -> tuple[float, float]:
    """At the square threshold m = N: upper bound on E lambda_min and lower
    bound on E lambda_max of (1/N) A* A."""
    if N < 2:
        raise InvalidArgumentError("N must be >= 2")
    lam_min_upper = (math.sqrt(1.0 - 1.0 / N)
                     * _exp_power(4.0 * gamma**2 * sigma**2 + 1.0, -0.25 * d)
                     + 1.0 / N)
    lam_max_lower = 2.0 - 1.0 / N
    return lam_min_upper, lam_max_lower


def markov_min_eig_threshold(N: int, gamma: float, sigma: float, d: int) -> float:
    """Level whose exceedance probability for lambda_min((1/N)A*A) is at most
    N^(-1/2) at the square threshold."""
    if N < 2:
        raise InvalidArgumentError("N must be >= 2")
    return _exp_power(4.0 * gamma**2 * sigma**2 + 1.0, -0.25 * d) + N ** (-0.5)


def _validate_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise InvalidArgumentError(f"delta must lie in (0, 1), got {delta}")


def epsilon_bound(N: int, m: int, d: int, gamma: float, sigma: float,
                  delta: float) -> float:
    """Feature-sampling accuracy epsilon =
    (2/sqrt(N)) (1 + 4 gamma sigma d sqrt(1 + sqrt((12/d) log(m/delta)))
    + sqrt(log(1/delta)/2))."""
    if N < 1 or m < 1 or d < 1:
        raise InvalidArgumentError("N, m, d must be positive")
    _validate_delta(delta)
    inner = math.sqrt(1.0 + math.sqrt(12.0 / d * math.log(m / delta)))
    return (2.0 / math.sqrt(N)) * (1.0 + 4.0 * gamma * sigma * d * inner
                                   + math.sqrt(0.5 * math.log(1.0 / delta)))


def ball_radius(gamma: float, d: int, m: int, delta: float) -> float:
    """Smallest radius containing all m Gaussian samples with probability
    1 - delta: gamma sqrt(d + sqrt(12 d log(m/delta)))."""
    if d < 1 or m < 1:
        raise InvalidArgumentError("d and m must be positive")
    _validate_delta(delta)
    return gamma * math.sqrt(d + math.sqrt(12.0 * d * math.log(m / delta)))


def min_features_for_accuracy(epsilon: float, delta: float) -> int:
    """Feature count guaranteeing ||f - f*|| <= epsilon ||f||_rho with
    probability 1 - delta: ceil((1/eps^2)(1 + sqrt(2 log(1/delta)))^2).
    delta = 1 is accepted as the degenerate no-confidence limit."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidArgumentError("epsilon must lie in (0, 1)")
    if not 0.0 < delta <= 1.0:
        raise InvalidArgumentError("delta must lie in (0, 1]")
    value = (1.0 + math.sqrt(2.0 * math.log(1.0 / delta))) ** 2 / epsilon**2
    return math.ceil(value)


def _exp_neg(t: float) -> float:
    """exp(-t), underflowing cleanly to 0 once it is below the smallest float."""
    return math.exp(-t) if t < 745.0 else 0.0


def _failure_probability(small: int, big: int) -> float:
    """small^(-log^2(small) * log(3 big))."""
    return _exp_neg(math.log(small) ** 3 * math.log(3.0 * big))


def check_regime_conditions(m: int, N: int, d: int, gamma: float, sigma: float,
                            eta: float,
                            constants: TheoryConstants = DEFAULT_CONSTANTS) -> RegimeReport:
    """Evaluate the conditioning-theorem hypotheses at a parameter point.

    Regime follows the sign of m - N.  Both the simplified log^3 condition and
    the tighter log^2 * log(3 + ...) variant are reported; the feature
    uncertainty condition (eta/20)(2 gamma^2 sigma^2 + 1)^(d/2) >= min(m, N)
    completes the set.
    """
    if m < 2 or N < 2:
        raise InvalidArgumentError("m and N must be >= 2")
    band = eig_band(eta)
    if m == N:
        return RegimeReport(REGIME_INTERPOLATION, eta, band, (), None)

    big, small = (m, N) if m > N else (N, m)
    regime = REGIME_UNDER if m > N else REGIME_OVER
    C = constants.universal(eta)

    lhs_main = big / math.log(3.0 * big)
    rhs_simplified = C * eta**-2 * small * math.log(small) ** 3
    rhs_tight = (C * eta**-2 * small * math.log(small) ** 2
                 * math.log(3.0 + small / (9.0 * math.log(2.0 * big))))
    lhs_unc = (eta / 20.0) * _exp_power(2.0 * gamma**2 * sigma**2 + 1.0, 0.5 * d)

    conditions = (
        ConditionCheck("sample_complexity_simplified", lhs_main, rhs_simplified,
                       lhs_main >= rhs_simplified),
        ConditionCheck("sample_complexity_tight", lhs_main, rhs_tight,
                       lhs_main >= rhs_tight),
        ConditionCheck("feature_uncertainty", lhs_unc, float(small),
                       lhs_unc >= small),
    )
    return RegimeReport(regime, eta, band, conditions, _failure_probability(small, big))


@dataclass(frozen=True)
class BoundResult:
    """A risk bound value plus the hypotheses it rests on.

    The value is always computed; `satisfied` is False (report-only mode)
    when any hypothesis fails at the given parameter point.
    """

    value: float
    epsilon: float | None
    conditions: tuple[ConditionCheck, ...]
    regime_report: RegimeReport | None
    mode: str

    @property
    def satisfied(self) -> bool:
        ok = all(c.satisfied for c in self.conditions)
        if self.regime_report is not None:
            ok = ok and self.regime_report.all_satisfied
        return ok

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "epsilon": self.epsilon,
            "mode": self.mode,
            "satisfied": self.satisfied,
            "conditions": [c.as_dict() for c in self.conditions],
            "regime": None if self.regime_report is None else self.regime_report.as_dict(),
        }


def risk_bound_ls(N: int, m: int, d: int, gamma: float, sigma: float, delta: float,
                  eta: float, f_rho_norm: float, E_noise: float,
                  constants: TheoryConstants = DEFAULT_CONSTANTS) -> BoundResult:
    """Underparameterized least-squares risk bound
    16 K(eta) (1 + N m^(-1/2) log^(1/2)(1/delta)) (eps^2 ||f||_rho^2 + E^2)."""
    _validate_delta(delta)
    eps = epsilon_bound(N, m, d, gamma, sigma, delta)
    value = (LS_PREFACTOR * K_eta(eta)
             * (1.0 + N / math.sqrt(m) * math.sqrt(math.log(1.0 / delta)))
             * (eps**2 * f_rho_norm**2 + E_noise**2))
    regime = check_regime_conditions(m, N, d, gamma, sigma, eta, constants)
    floor = _failure_probability(N, m)
    conditions = (
        ConditionCheck("regime_m_gt_N", float(m), float(N), m > N),
        ConditionCheck("delta_floor", delta, floor, delta >= floor),
    )
    return BoundResult(value, eps, conditions, regime, constants.mode)


def risk_bound_minnorm(N: int, m: int, d: int, gamma: float, sigma: float, delta: float,
                       eta: float, f_rho_norm: float, E_noise: float,
                       constants: TheoryConstants = DEFAULT_CONSTANTS) -> BoundResult:
    """Overparameterized min-norm interpolation risk bound
    C~ log^(1/2)(1/delta) (m^(-1/2) + K(eta) m^(1/2) eps^2) ||f||_rho^2
    + C~ m^(1/2) K(eta) log^(1/2)(1/delta) E^2."""
    _validate_delta(delta)
    eps = epsilon_bound(N, m, d, gamma, sigma, delta)
    K = K_eta(eta)
    root_log = math.sqrt(math.log(1.0 / delta))
    value = (C_MIN_NORM * root_log
             * (1.0 / math.sqrt(m) + K * math.sqrt(m) * eps**2) * f_rho_norm**2
             + C_MIN_NORM * math.sqrt(m) * K * root_log * E_noise**2)
    regime = check_regime_conditions(m, N, d, gamma, sigma, eta, constants)
    floor = _failure_probability(m, N)
    conditions = (
        ConditionCheck("regime_m_lt_N", float(N), float(m), m < N),
        ConditionCheck("delta_floor", delta, floor, delta >= floor),
    )
    return BoundResult(value, eps, conditions, regime, constants.mode)


def bp_noise_parameter(epsilon: float, f_rho_norm: float, E_noise: float) -> float:
    """Constraint level xi = sqrt(2 (eps^2 ||f||_rho + E^2)) of the sparse
    regression problem.  The first term carries ||f||_rho to the first power,
    unlike the squared norm in the risk bound; implemented verbatim."""
    return math.sqrt(2.0 * (epsilon**2 * f_rho_norm + E_noise**2))


def check_bp_conditions(m: int, N: int, s: int, d: int, gamma: float, sigma: float,
                        delta: float, constants: TheoryConstants = DEFAULT_CONSTANTS,
                        eta1: float = 0.4) -> tuple[ConditionCheck, ...]:
    """Hypotheses of the sparse-regression risk bound.  The universal constant
    is evaluated at eta1 = 0.4, the value used to reach the 4/sqrt(41)
    restricted isometry level."""
    _validate_delta(delta)
    if s < 1:
        raise InvalidArgumentError("s must be >= 1")
    C = constants.universal(eta1)
    lhs_main = m / math.log(3.0 * m)
    rhs_main = C * s * math.log(2.0 * s) ** 2 * math.log(N)
    lhs_sparse = _exp_power(2.0 * gamma**2 * sigma**2 + 1.0, 0.5 * d) / 105.0
    floor = _exp_neg(math.log(2.0 * s) ** 2 * math.log(3.0 * m) * math.log(N))
    return (
        ConditionCheck("sample_complexity", lhs_main, rhs_main, lhs_main >= rhs_main),
        ConditionCheck("sparsity_uncertainty", lhs_sparse, float(s), lhs_sparse >= s),
        ConditionCheck("delta_floor", delta, floor, delta >= floor),
    )


def risk_bound_bp(N: int, m: int, s: int, delta: float, epsilon: float,
                  f_rho_norm: float, E_noise: float, theta_s1: float,
                  constants: TheoryConstants = DEFAULT_CONSTANTS,
                  d: int | None = None, gamma: float | None = None,
                  sigma: float | None = None) -> BoundResult:
    """Sparse-regression (pruned basis pursuit) risk bound
    C' (1 + N m^(-1/2) log^(1/2)(1/delta)) (eps^2 ||f||_rho^2 + E^2)
    + C'' (1 + N m^(-1/2) s^(-1) log^(1/2)(1/delta)) theta_{s,1}^2.

    Condition checks require d, gamma, sigma; without them only the bound
    value is reported."""
    _validate_delta(delta)
    if s < 1:
        raise InvalidArgumentError("s must be >= 1")
    root_log = math.sqrt(math.log(1.0 / delta))
    value = (C_PRIME * (1.0 + N / math.sqrt(m) * root_log)
             * (epsilon**2 * f_rho_norm**2 + E_noise**2)
             + C_DPRIME * (1.0 + N / (math.sqrt(m) * s) * root_log)
             * theta_s1**2)
    if d is not None and gamma is not None and sigma is not None:
        conditions = check_bp_conditions(m, N, s, d, gamma, sigma, delta, constants)
    else:
        conditions = ()
    return BoundResult(value, epsilon, conditions, None, constants.mode)
