import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfcond.errors import InvalidArgumentError
from rfcond.theory import (
    C_PRIME,
    ETA_MAX,
    K_eta,
    TheoryConstants,
    ball_radius,
    beta_overlap,
    bp_noise_parameter,
    check_bp_conditions,
    check_regime_conditions,
    eig_band,
    epsilon_bound,
    interpolation_expectation_bounds,
    kappa_threshold,
    markov_min_eig_threshold,
    min_features_for_accuracy,
    rip_bound_f,
    risk_bound_bp,
    risk_bound_ls,
    risk_bound_minnorm,
)

PERMISSIVE = TheoryConstants(permissive=True)

etas = st.floats(min_value=1e-3, max_value=ETA_MAX - 1e-6)


def test_beta_overlap_degenerate_and_arithmetic():
    assert beta_overlap(0.0, 5.0, 3) == 1.0
    # gamma^2 sigma^2 = 0.5, d = 2 -> (2*0.5+1)^-1
    assert beta_overlap(np.sqrt(0.5), 1.0, 2) == pytest.approx(0.5, rel=1e-14)
    assert beta_overlap(1.0, 1.0, 3) == pytest.approx(3.0**-1.5, rel=1e-14)


def test_beta_overlap_monte_carlo_oracle():
    # |E exp(i <x, w_j - w_k>)| for gamma = sigma = 1, d = 3 against 3^(-3/2).
    gen = np.random.default_rng(12345)
    n = 1_000_000
    x = gen.normal(size=(n, 3))
    dw = gen.normal(size=(n, 3)) - gen.normal(size=(n, 3))
    phases = np.exp(1j * np.einsum("ij,ij->i", x, dw))
    est = phases.mean()
    se = phases.real.std(ddof=1) / np.sqrt(n)
    assert abs(abs(est) - beta_overlap(1.0, 1.0, 3)) <= 3 * se


def test_eig_band_examples():
    lo, hi = eig_band(0.2)
    assert lo == pytest.approx(0.71, abs=1e-12)
    assert hi == pytest.approx(1.29, abs=1e-12)
    lo, hi = eig_band(1e-9)
    assert lo == pytest.approx(1.0, abs=1e-8)
    assert hi == pytest.approx(1.0, abs=1e-8)
    lo, _ = eig_band(ETA_MAX - 1e-9)
    assert lo > 0.0
    for bad in (0.0, ETA_MAX, 0.9):
        with pytest.raises(InvalidArgumentError):
            eig_band(bad)


@given(etas)
def test_condition_cap_equals_band_ratio(eta):
    lo, hi = eig_band(eta)
    assert K_eta(eta) == pytest.approx(hi / lo, rel=1e-12)
    assert K_eta(eta) >= 1.0


def test_kappa_threshold_examples():
    assert kappa_threshold(1.0, 1, 4) == 0.0  # s/eta2 = 1
    assert kappa_threshold(1.0, 20, 2) == pytest.approx(3.082207001484488, rel=1e-12)


@given(st.floats(min_value=1e-3, max_value=0.999), st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=30))
def test_overlap_threshold_round_trip(eta2, s, d):
    gs = kappa_threshold(eta2, s, d)
    assert s * beta_overlap(gs, 1.0, d) == pytest.approx(eta2, abs=1e-10, rel=1e-10)


def test_rip_budget_value_against_recovery_level():
    value = rip_bound_f(0.4, 0.02, 0.1)
    assert value == pytest.approx(0.6118, abs=1e-3)
    assert value <= 4.0 / math.sqrt(41.0)


def test_rip_budget_vanishes_at_origin():
    assert rip_bound_f(1e-9, 1e-9, 1e-9) == pytest.approx(0.0, abs=1e-8)


def test_rip_budget_below_band_halfwidth_on_grid():
    # f(eta, eta/20, eta/5) < eta^2 + (5/4) eta throughout the usable range.
    for eta in np.linspace(1e-3, 0.554, 200):
        assert rip_bound_f(eta, eta / 20.0, eta / 5.0) < eta**2 + 1.25 * eta


@given(etas, etas, etas, etas, etas, etas)
def test_rip_budget_monotone(a1, a2, a3, b1, b2, b3):
    lo = rip_bound_f(min(a1, b1), min(a2, b2), min(a3, b3))
    hi = rip_bound_f(max(a1, b1), max(a2, b2), max(a3, b3))
    assert lo <= hi + 1e-12


def test_interpolation_bounds_examples():
    lam_min, lam_max = interpolation_expectation_bounds(2, 1e9, 1e9, 2)
    assert lam_min == pytest.approx(0.5, abs=1e-9)
    assert lam_max == pytest.approx(1.5, abs=1e-12)
    lam_min, lam_max = interpolation_expectation_bounds(4, 1.0, 1.0, 2)
    assert lam_min == pytest.approx(0.637298334620742, rel=1e-12)
    assert lam_max == pytest.approx(1.75, abs=1e-12)


def test_markov_threshold_value():
    assert markov_min_eig_threshold(10, 1.0, 1.0, 2) == pytest.approx(
        5.0**-0.5 + 10.0**-0.5, rel=1e-12)


def test_epsilon_bound_frozen_value():
    # Verified against an independent high-precision evaluation.
    assert epsilon_bound(100, 1000, 1, 1.0, 1.0, 0.01) == pytest.approx(
        3.360498131751079, rel=1e-12)


def test_epsilon_bound_scales_as_inverse_root_n():
    base = epsilon_bound(50, 500, 2, 1.0, 1.0, 0.05)
    assert epsilon_bound(200, 500, 2, 1.0, 1.0, 0.05) == pytest.approx(base / 2, rel=1e-12)


def test_epsilon_bound_monotone_in_overlap_and_confidence():
    grid = np.linspace(0.5, 3.0, 7)
    values = [epsilon_bound(50, 500, 2, g, 1.0, 0.05) for g in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    deltas = np.linspace(0.01, 0.5, 7)
    values = [epsilon_bound(50, 500, 2, 1.0, 1.0, dl) for dl in deltas]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_ball_radius_example_and_scaling():
    # m/delta = e makes the inner log equal 1.
    r = ball_radius(1.0, 1, 1, 1.0 / math.e)
    assert r == pytest.approx(2.112842070562245, rel=1e-12)
    assert ball_radius(2.5, 1, 1, 1.0 / math.e) == pytest.approx(2.5 * r, rel=1e-12)


def test_ball_radius_monte_carlo_coverage():
    gamma, d, m, delta = 1.0, 3, 20, 0.1
    R = ball_radius(gamma, d, m, delta)
    gen = np.random.default_rng(2024)
    trials = 10_000
    samples = gen.normal(0.0, gamma, size=(trials, m, d))
    all_inside = (np.linalg.norm(samples, axis=2).max(axis=1) <= R)
    p_hat = all_inside.mean()
    se = math.sqrt(delta * (1 - delta) / trials)
    assert p_hat >= 1 - delta - 3 * se


def test_min_features_examples():
    assert min_features_for_accuracy(0.1, 1.0) == 100
    n1 = min_features_for_accuracy(0.2, 0.05)
    n2 = min_features_for_accuracy(0.1, 0.05)
    assert n2 == pytest.approx(4 * n1, abs=4)


def test_regime_report_interpolation_is_empty():
    report = check_regime_conditions(10, 10, 2, 1.0, 1.0, 0.3)
    assert report.regime == "interpolation"
    assert report.conditions == ()
    assert report.failure_probability is None


def test_regime_conditions_pin_natural_log():
    # Frozen from a high-precision evaluation with natural logs; base-10 logs
    # would flip the simplified condition to satisfied (lhs 40.37 vs rhs 40).
    report = check_regime_conditions(100, 10, 3, 1.0, 1.0, 0.5, PERMISSIVE)
    assert report.regime == "under"
    by_name = {c.name: c for c in report.conditions}
    simplified = by_name["sample_complexity_simplified"]
    assert simplified.lhs == pytest.approx(17.53222540381461, rel=1e-12)
    assert simplified.rhs == pytest.approx(488.3228621504343, rel=1e-12)
    assert not simplified.satisfied
    tight = by_name["sample_complexity_tight"]
    assert tight.rhs == pytest.approx(247.3188389183037, rel=1e-12)
    assert report.failure_probability == pytest.approx(5.742836804884339e-31, rel=1e-9)


def test_regime_conditions_swap_roles_in_overparameterized_case():
    under = check_regime_conditions(100, 10, 3, 1.0, 1.0, 0.5, PERMISSIVE)
    over = check_regime_conditions(10, 100, 3, 1.0, 1.0, 0.5, PERMISSIVE)
    assert over.regime == "over"
    for cu, co in zip(under.conditions, over.conditions):
        assert cu.lhs == pytest.approx(co.lhs, rel=1e-15)
        assert cu.rhs == pytest.approx(co.rhs, rel=1e-15)


def test_exascale_uncertainty_condition():
    # d = 74 at gamma*sigma = 1 supports N up to ~1.1e16.
    report = check_regime_conditions(10**6, 10**4, 74, 1.0, 1.0, 0.5, PERMISSIVE)
    unc = {c.name: c for c in report.conditions}["feature_uncertainty"]
    assert unc.lhs == pytest.approx(1.1257097647274934e16, rel=1e-10)
    assert unc.satisfied


def test_condition_passes_at_exact_equality():
    # The delta floor uses >=, so handing back the computed floor passes.
    report = risk_bound_ls(10, 100, 3, 1.0, 1.0, 0.5, 0.5, 1.0, 0.0, PERMISSIVE)
    floor_check = {c.name: c for c in report.conditions}["delta_floor"]
    report2 = risk_bound_ls(10, 100, 3, 1.0, 1.0, max(floor_check.rhs, 1e-300),
                            0.5, 1.0, 0.0, PERMISSIVE)
    floor2 = {c.name: c for c in report2.conditions}["delta_floor"]
    assert floor2.satisfied


def test_ls_bound_zero_signal_zero_noise_is_zero():
    res = risk_bound_ls(10, 100, 3, 1.0, 1.0, 0.05, 0.3, 0.0, 0.0)
    assert res.value == 0.0


def test_ls_bound_noise_term_is_quadratic():
    one = risk_bound_ls(10, 100, 3, 1.0, 1.0, 0.05, 0.3, 0.0, 1.0).value
    two = risk_bound_ls(10, 100, 3, 1.0, 1.0, 0.05, 0.3, 0.0, 2.0).value
    assert two == pytest.approx(4 * one, rel=1e-12)


def test_minnorm_bound_noise_term_scales_with_root_m():
    one = risk_bound_minnorm(400, 25, 3, 1.0, 1.0, 0.05, 0.3, 0.0, 1.0).value
    two = risk_bound_minnorm(400, 50, 3, 1.0, 1.0, 0.05, 0.3, 0.0, 1.0).value
    assert two == pytest.approx(math.sqrt(2) * one, rel=1e-12)


def test_minnorm_bound_zero_inputs():
    assert risk_bound_minnorm(400, 25, 3, 1.0, 1.0, 0.05, 0.3, 0.0, 0.0).value == 0.0


def test_bp_bound_reduces_to_first_term_when_dense():
    n, m, s = 64, 200, 64
    delta, eps, rho, E = 0.05, 0.4, 2.0, 0.1
    res = risk_bound_bp(n, m, s, delta, eps, rho, E, 0.0)
    expected = (C_PRIME
                * (1 + n / math.sqrt(m) * math.sqrt(math.log(1 / delta)))
                * (eps**2 * rho**2 + E**2))
    assert res.value == pytest.approx(expected, rel=1e-12)


def test_bp_conditions_reported_when_geometry_known():
    res = risk_bound_bp(150, 750, 4, 0.05, 0.5, 2.0, 0.0, 0.1,
                        PERMISSIVE, d=12, gamma=1.0, sigma=1.0)
    names = {c.name for c in res.conditions}
    assert names == {"sample_complexity", "sparsity_uncertainty", "delta_floor"}
    assert res.satisfied


def test_bp_noise_parameter_uses_unsquared_norm():
    # xi = sqrt(2 (eps^2 ||f||_rho + E^2)) with the norm to the first power.
    assert bp_noise_parameter(0.5, 4.0, 0.0) == pytest.approx(
        math.sqrt(2 * 0.25 * 4.0), rel=1e-12)


@given(st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.0, max_value=5.0))
def test_bounds_monotone_in_signal_and_noise(f1, f2, e1, e2):
    lo = risk_bound_ls(10, 100, 3, 1.0, 1.0, 0.05, 0.3, min(f1, f2), min(e1, e2)).value
    hi = risk_bound_ls(10, 100, 3, 1.0, 1.0, 0.05, 0.3, max(f1, f2), max(e1, e2)).value
    assert 0.0 <= lo <= hi + 1e-12


def test_constants_validation_and_modes():
    c = TheoryConstants()
    assert c.mode == "strict"
    assert c.universal(0.5) == pytest.approx(4 * 37.97**2 / 0.25, rel=1e-12)
    assert PERMISSIVE.mode == "permissive"
    assert PERMISSIVE.universal(0.5) == 1.0


def test_strict_constants_make_desk_scale_unreachable():
    report = check_regime_conditions(15000, 16, 12, 1.0, 1.0, 0.5, TheoryConstants())
    assert not report.all_satisfied
    permissive = check_regime_conditions(15000, 16, 12, 1.0, 1.0, 0.5, PERMISSIVE)
    assert permissive.all_satisfied
