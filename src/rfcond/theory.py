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
import sys
from dataclasses import asdict, dataclass

from .errors import InvalidArgumentError

# Largest eta keeping the eigenvalue band (1 - 5eta/4 - eta^2, ...) positive.
ETA_MAX = (math.sqrt(89.0) - 5.0) / 8.0
# Smallest eta whose eta^-2, a factor of the regime conditions, is a finite float.
ETA_MIN = 1.0 / math.sqrt(sys.float_info.max)

# Prefactor of the underparameterized least-squares risk bound; explicit in
# the theorem statement.
LS_PREFACTOR = 16.0

# Constants the proofs leave symbolic: the chaining constant c_tilde1 (finite
# bound 37.97, asymptotic 15.38), C-tilde of the min-norm risk bound, and C'
# and C'' of the sparse-regression risk bound.
C_TILDE1 = 37.97
# eta1 at which the sparse-regression hypotheses take the universal constant:
# the value used to reach the 4/sqrt(41) restricted isometry level.
ETA1_BP = 0.4
C_MIN_NORM = 16.0
C_PRIME = 10.0
C_DPRIME = 10.0


def _overlap_power(c: float, gamma: float, sigma: float, exponent: float) -> float:
    """(c gamma^2 sigma^2 + 1)^exponent, saturating to inf where math.exp
    overflows.  Every overlap term takes gamma, sigma and d through it: c = 2
    with exponent -d/2 is `beta_overlap` (+d/2 its inverse, in the uncertainty
    conditions), and c = 4 with exponent -d/4 is the square-threshold level of
    lambda_min."""
    try:
        return math.exp(exponent * math.log(c * gamma**2 * sigma**2 + 1.0))
    except OverflowError:
        return math.inf


def _universal(eta: float, permissive: bool) -> float:
    """Universal condition constant C at eta: the proof-grade
    C2(eta) = 4 C_TILDE1^2 / eta^2, or 1 in permissive mode, for desk-scale
    empirical validation where the proof-grade constants are unreachable.
    Only the hypotheses use C; no bound value depends on the mode."""
    return 1.0 if permissive else 4.0 * C_TILDE1**2 / eta**2


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    lhs: float
    rhs: float
    ok: bool


def hypotheses_by_mode(check, *args, **kwargs) -> dict:
    """The hypotheses `check(*args, **kwargs)` returns, checked with the
    strict and then the permissive universal constant: per mode, whether all
    of them hold and each check as a plain dict."""
    report = {}
    for mode in ("strict", "permissive"):
        checks = check(*args, permissive=mode == "permissive", **kwargs)
        report[mode] = {"satisfied": all(c.ok for c in checks),
                        "checks": [asdict(c) for c in checks]}
    return report


def beta_overlap(gamma: float, sigma: float, d: int) -> float:
    """Expected modulus of the overlap between two distinct feature columns,
    |E exp(i<x, w_j - w_k>)| = (2 gamma^2 sigma^2 + 1)^(-d/2)."""
    if gamma < 0 or sigma < 0:
        raise InvalidArgumentError("gamma and sigma must be non-negative")
    if d < 1:
        raise InvalidArgumentError("d must be a positive integer")
    return _overlap_power(2.0, gamma, sigma, -0.5 * d)


def eig_band(eta: float) -> tuple[float, float]:
    """Eigenvalue band (1 - 5eta/4 - eta^2, 1 + 5eta/4 + eta^2) of the
    normalized Gram; requires eta < (sqrt(89) - 5)/8 so the band stays inside
    (0, 2), and eta >= `ETA_MIN` so the hypotheses at eta can be evaluated."""
    if not ETA_MIN <= eta < ETA_MAX:
        raise InvalidArgumentError(
            f"eta must lie in [{ETA_MIN:.6g}, {ETA_MAX:.6f}), got {eta}")
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
    lam_min_upper = (math.sqrt(1.0 - 1.0 / N) * _overlap_power(4.0, gamma, sigma, -0.25 * d)
                     + 1.0 / N)
    lam_max_lower = 2.0 - 1.0 / N
    return lam_min_upper, lam_max_lower


def markov_min_eig_threshold(N: int, gamma: float, sigma: float, d: int) -> float:
    """Level whose exceedance probability for lambda_min((1/N)A*A) is at most
    N^(-1/2) at the square threshold."""
    if N < 2:
        raise InvalidArgumentError("N must be >= 2")
    return _overlap_power(4.0, gamma, sigma, -0.25 * d) + N ** (-0.5)


def _square(x: float, name: str) -> float:
    """x**2, or an InvalidArgumentError naming the input `name` where the
    square overflows, on which float ** raises OverflowError.  Not x*x: libm's
    pow rounds differently in the last bit for about one double in 1,100."""
    try:
        return x**2
    except OverflowError:
        raise InvalidArgumentError(f"{name} = {x!r} is too large: its square "
                                   "overflows") from None


def _error_term(eps: float, f_rho_norm: float, E_noise: float) -> float:
    """eps^2 ||f||_rho^2 + E^2, the approximation-plus-noise factor of the
    least-squares and sparse-regression bounds."""
    return (_square(eps, "epsilon") * _square(f_rho_norm, "rho-norm ||f||_rho")
            + _square(E_noise, "noise bound E"))


def _validate_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise InvalidArgumentError(f"delta must lie in (0, 1), got {delta}")


def _radius_factor(d: int, m: int, delta: float) -> float:
    """sqrt(1 + sqrt((12/d) log(m/delta))), `ball_radius` over gamma sqrt(d)."""
    if d < 1 or m < 1:
        raise InvalidArgumentError("d and m must be positive")
    _validate_delta(delta)
    return math.sqrt(1.0 + math.sqrt(12.0 / d * math.log(m / delta)))


def _sample_factor(N: int, m: int, delta: float, s: int = 1) -> float:
    """1 + N / (sqrt(m) s) log^(1/2)(1/delta), s = 1 but in the theta_{s,1} term."""
    return 1.0 + N / (math.sqrt(m) * s) * math.sqrt(math.log(1.0 / delta))


def epsilon_bound(N: int, m: int, d: int, gamma: float, sigma: float,
                  delta: float) -> float:
    """Feature-sampling accuracy epsilon =
    (2/sqrt(N)) (1 + 4 gamma sigma d sqrt(1 + sqrt((12/d) log(m/delta)))
    + sqrt(log(1/delta)/2))."""
    if N < 1:
        raise InvalidArgumentError("N must be positive")
    return (2.0 / math.sqrt(N)) * (1.0 + 4.0 * gamma * sigma * d * _radius_factor(d, m, delta)
                                   + math.sqrt(0.5 * math.log(1.0 / delta)))


def ball_radius(gamma: float, d: int, m: int, delta: float) -> float:
    """Smallest radius containing all m Gaussian samples with probability
    1 - delta: gamma sqrt(d + sqrt(12 d log(m/delta)))."""
    return _radius_factor(d, m, delta) * gamma * math.sqrt(d)


def failure_probability(small: int, big: int) -> float:
    """small^(-log^2(small) * log(3 big)), the failure probability of the
    conditioning theorem with small = min(m, N) and big = max(m, N)."""
    return math.exp(-math.log(small) ** 3 * math.log(3.0 * big))


def check_regime_conditions(m: int, N: int, d: int, gamma: float, sigma: float,
                            eta: float, permissive: bool = False) -> tuple[ConditionCheck, ...]:
    """Evaluate the conditioning-theorem hypotheses at a parameter point.

    The roles of m and N follow the sign of m - N; at m = N the theorem states
    nothing and no check is returned.  Both the simplified log^3 condition and
    the tighter log^2 * log(3 + ...) variant are reported; the feature
    uncertainty condition (eta/20)(2 gamma^2 sigma^2 + 1)^(d/2) >= min(m, N)
    completes the set.
    """
    if m < 2 or N < 2:
        raise InvalidArgumentError("m and N must be >= 2")
    eig_band(eta)
    if m == N:
        return ()

    big, small = (m, N) if m > N else (N, m)
    C = _universal(eta, permissive)

    lhs_main = big / math.log(3.0 * big)
    rhs_simplified = C * eta**-2 * small * math.log(small) ** 3
    rhs_tight = (C * eta**-2 * small * math.log(small) ** 2
                 * math.log(3.0 + small / (9.0 * math.log(2.0 * big))))
    lhs_unc = (eta / 20.0) * _overlap_power(2.0, gamma, sigma, 0.5 * d)

    return (
        ConditionCheck("sample_complexity_simplified", lhs_main, rhs_simplified,
                       lhs_main >= rhs_simplified),
        ConditionCheck("sample_complexity_tight", lhs_main, rhs_tight,
                       lhs_main >= rhs_tight),
        ConditionCheck("feature_uncertainty", lhs_unc, float(small),
                       lhs_unc >= small),
    )


def check_regime_bound(m: int, N: int, d: int, gamma: float, sigma: float,
                       delta: float, eta: float, permissive: bool,
                       under: bool) -> tuple[ConditionCheck, ...]:
    """Hypotheses of a regime risk bound: the regime it is stated for (m > N
    when `under`, least squares; else m < N, min-norm), the delta floor
    small^(-log^2(small) log(3 big)), then the `check_regime_conditions`
    checks.  The caller names the regime, so at m = N both bounds report
    theirs unsatisfied."""
    _validate_delta(delta)
    big, small = (m, N) if under else (N, m)
    floor = failure_probability(small, big)
    return (ConditionCheck(f"regime_m_{'gt' if under else 'lt'}_N", float(big),
                           float(small), big > small),
            ConditionCheck("delta_floor", delta, floor, delta >= floor),
            *check_regime_conditions(m, N, d, gamma, sigma, eta, permissive))


def _validate_bound_inputs(m: int, delta: float) -> None:
    """The inputs every risk bound checks itself: epsilon comes from the
    caller, so no `epsilon_bound` call checks them for it."""
    if m < 1:
        raise InvalidArgumentError("m must be positive")
    _validate_delta(delta)


def _finite_bound(value: float, f_rho_norm: float, E_noise: float) -> float:
    """`value`, or an InvalidArgumentError naming the inputs that scale it
    where it overflows: an inf bound would cover every risk."""
    if not math.isfinite(value):
        raise InvalidArgumentError(
            f"risk bound {value} is not finite: rho-norm ||f||_rho = {f_rho_norm!r} "
            f"or noise bound E = {E_noise!r} is too large")
    return value


def risk_bound_ls(N: int, m: int, delta: float, eta: float, epsilon: float,
                  f_rho_norm: float, E_noise: float) -> float:
    """Underparameterized least-squares risk bound
    16 K(eta) (1 + N m^(-1/2) log^(1/2)(1/delta)) (eps^2 ||f||_rho^2 + E^2),
    eps the `epsilon_bound` at N; its hypotheses are `check_regime_bound`'s
    with `under`."""
    _validate_bound_inputs(m, delta)
    value = (LS_PREFACTOR * K_eta(eta) * _sample_factor(N, m, delta)
             * _error_term(epsilon, f_rho_norm, E_noise))
    return _finite_bound(value, f_rho_norm, E_noise)


def risk_bound_minnorm(m: int, delta: float, eta: float, epsilon: float,
                       f_rho_norm: float, E_noise: float) -> float:
    """Overparameterized min-norm interpolation risk bound
    C~ log^(1/2)(1/delta) (m^(-1/2) + K(eta) m^(1/2) eps^2) ||f||_rho^2
    + C~ m^(1/2) K(eta) log^(1/2)(1/delta) E^2, eps the `epsilon_bound` at N;
    its hypotheses are `check_regime_bound`'s without `under`."""
    _validate_bound_inputs(m, delta)
    K = K_eta(eta)
    root_log = math.sqrt(math.log(1.0 / delta))
    value = (C_MIN_NORM * root_log
             * (1.0 / math.sqrt(m) + K * math.sqrt(m) * _square(epsilon, "epsilon"))
             * _square(f_rho_norm, "rho-norm ||f||_rho")
             + C_MIN_NORM * math.sqrt(m) * K * root_log * _square(E_noise, "noise bound E"))
    return _finite_bound(value, f_rho_norm, E_noise)


def bp_noise_parameter(epsilon: float, f_rho_norm: float, E_noise: float) -> float:
    """Constraint level xi = sqrt(2 (eps^2 ||f||_rho + E^2)) of the sparse
    regression problem.  The first term carries ||f||_rho to the first power,
    unlike the squared norm in the risk bound; implemented verbatim."""
    return math.sqrt(2.0 * (_square(epsilon, "epsilon") * f_rho_norm
                            + _square(E_noise, "noise bound E")))


def check_bp_conditions(m: int, N: int, s: int, d: int, gamma: float, sigma: float,
                        delta: float, permissive: bool = False) -> tuple[ConditionCheck, ...]:
    """Hypotheses of the sparse-regression risk bound, the universal constant
    evaluated at eta1 = `ETA1_BP`."""
    _validate_delta(delta)
    if s < 1:
        raise InvalidArgumentError("s must be >= 1")
    C = _universal(ETA1_BP, permissive)
    lhs_main = m / math.log(3.0 * m)
    rhs_main = C * s * math.log(2.0 * s) ** 2 * math.log(N)
    lhs_sparse = _overlap_power(2.0, gamma, sigma, 0.5 * d) / 105.0
    floor = math.exp(-math.log(2.0 * s) ** 2 * math.log(3.0 * m) * math.log(N))
    return (
        ConditionCheck("sample_complexity", lhs_main, rhs_main, lhs_main >= rhs_main),
        ConditionCheck("sparsity_uncertainty", lhs_sparse, float(s), lhs_sparse >= s),
        ConditionCheck("delta_floor", delta, floor, delta >= floor),
    )


def risk_bound_bp(N: int, m: int, s: int, delta: float, epsilon: float,
                  f_rho_norm: float, E_noise: float, theta_s1: float) -> float:
    """Sparse-regression (pruned basis pursuit) risk bound
    C' (1 + N m^(-1/2) log^(1/2)(1/delta)) (eps^2 ||f||_rho^2 + E^2)
    + C'' (1 + N m^(-1/2) s^(-1) log^(1/2)(1/delta)) theta_{s,1}^2; its
    hypotheses are `check_bp_conditions`'."""
    _validate_bound_inputs(m, delta)
    value = (C_PRIME * _sample_factor(N, m, delta) * _error_term(epsilon, f_rho_norm, E_noise)
             + C_DPRIME * _sample_factor(N, m, delta, s)
             * _square(theta_s1, "best s-term error theta_{s,1}"))
    return _finite_bound(value, f_rho_norm, E_noise)
