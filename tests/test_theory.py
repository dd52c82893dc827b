import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfcond.errors import InvalidArgumentError
from rfcond.theory import (
    C_PRIME,
    ETA_MAX,
    ETA_MIN,
    K_eta,
    ball_radius,
    beta_overlap,
    bp_noise_parameter,
    check_bp_conditions,
    check_regime_bound,
    check_regime_conditions,
    eig_band,
    epsilon_bound,
    failure_probability,
    hypotheses_by_mode,
    interpolation_expectation_bounds,
    kappa_threshold,
    markov_min_eig_threshold,
    rip_bound_f,
    risk_bound_bp,
    risk_bound_ls,
    risk_bound_minnorm,
)

PERMISSIVE = True

etas = st.floats(min_value=1e-3, max_value=ETA_MAX - 1e-6)


def _eps(N, m, delta=0.05):
    """epsilon_bound at d = 3, gamma = sigma = 1, the geometry of the bound tests."""
    return epsilon_bound(N, m, 3, 1.0, 1.0, delta)


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


def test_eta_floor_is_the_smallest_eta_the_hypotheses_can_take():
    # Below ETA_MIN, eta^-2 overflows, and further down eta^2 underflows to 0
    # in the strict constant; at ETA_MIN both modes evaluate.
    for permissive in (False, True):
        assert len(check_regime_conditions(100, 10, 3, 1.0, 1.0, ETA_MIN, permissive)) == 3
    for bad in (math.nextafter(ETA_MIN, 0.0), 7e-155, 1e-300):
        with pytest.raises(InvalidArgumentError, match="eta must lie in"):
            check_regime_conditions(100, 10, 3, 1.0, 1.0, bad)


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


def test_regime_report_interpolation_is_empty():
    assert check_regime_conditions(10, 10, 2, 1.0, 1.0, 0.3) == ()


def test_regime_conditions_pin_natural_log():
    # Frozen from a high-precision evaluation with natural logs; base-10 logs
    # would flip the simplified condition to satisfied (lhs 40.37 vs rhs 40).
    by_name = {c.name: c for c in check_regime_conditions(100, 10, 3, 1.0, 1.0, 0.5, PERMISSIVE)}
    simplified = by_name["sample_complexity_simplified"]
    assert simplified.lhs == pytest.approx(17.53222540381461, rel=1e-12)
    assert simplified.rhs == pytest.approx(488.3228621504343, rel=1e-12)
    assert not simplified.ok
    tight = by_name["sample_complexity_tight"]
    assert tight.rhs == pytest.approx(247.3188389183037, rel=1e-12)
    assert failure_probability(10, 100) == pytest.approx(5.742836804884339e-31, rel=1e-9)


def test_regime_conditions_swap_roles_in_overparameterized_case():
    under = check_regime_conditions(100, 10, 3, 1.0, 1.0, 0.5, PERMISSIVE)
    over = check_regime_conditions(10, 100, 3, 1.0, 1.0, 0.5, PERMISSIVE)
    assert len(under) == len(over) == 3
    for cu, co in zip(under, over):
        assert cu.lhs == pytest.approx(co.lhs, rel=1e-15)
        assert cu.rhs == pytest.approx(co.rhs, rel=1e-15)


def test_exascale_uncertainty_condition():
    # d = 74 at gamma*sigma = 1 supports N up to ~1.1e16.
    report = check_regime_conditions(10**6, 10**4, 74, 1.0, 1.0, 0.5, PERMISSIVE)
    unc = {c.name: c for c in report}["feature_uncertainty"]
    assert unc.lhs == pytest.approx(1.1257097647274934e16, rel=1e-10)
    assert unc.ok


def test_uncertainty_condition_is_finite_up_to_the_float_range():
    # (eta/20) 3^640 = 0.025 exp(703.1): past exp(700), still a finite float
    checks = check_regime_conditions(100, 10, 1280, 1.0, 1.0, 0.5)
    unc = {c.name: c for c in checks}["feature_uncertainty"]
    assert unc.lhs == pytest.approx(5.695646529572998e303, rel=1e-12)
    assert unc.ok


def test_uncertainty_condition_saturates_past_the_float_range():
    # (2 gamma^2 sigma^2 + 1)^(d/2) = 201^1000 overflows a float: the overlap
    # power saturates to inf, so the condition holds rather than raising.
    for permissive in (False, True):
        checks = check_regime_conditions(100, 10, 2000, 10.0, 1.0, 0.5, permissive)
        unc = {c.name: c for c in checks}["feature_uncertainty"]
        assert (unc.lhs, unc.rhs, unc.ok) == (math.inf, 10.0, True)


def test_condition_passes_at_exact_equality():
    # The delta floor uses >=, so handing back the computed floor passes.
    def floor_check(delta):
        checks = check_regime_bound(100, 10, 3, 1.0, 1.0, delta, 0.5, PERMISSIVE, under=True)
        return {c.name: c for c in checks}["delta_floor"]

    assert floor_check(max(floor_check(0.5).rhs, 1e-300)).ok


def test_ls_bound_zero_signal_zero_noise_is_zero():
    assert risk_bound_ls(10, 100, 0.05, 0.3, _eps(10, 100), 0.0, 0.0) == 0.0


def test_ls_bound_noise_term_is_quadratic():
    one = risk_bound_ls(10, 100, 0.05, 0.3, _eps(10, 100), 0.0, 1.0)
    two = risk_bound_ls(10, 100, 0.05, 0.3, _eps(10, 100), 0.0, 2.0)
    assert two == pytest.approx(4 * one, rel=1e-12)


def test_minnorm_bound_noise_term_scales_with_root_m():
    one = risk_bound_minnorm(25, 0.05, 0.3, _eps(400, 25), 0.0, 1.0)
    two = risk_bound_minnorm(50, 0.05, 0.3, _eps(400, 50), 0.0, 1.0)
    assert two == pytest.approx(math.sqrt(2) * one, rel=1e-12)


def test_minnorm_bound_zero_inputs():
    assert risk_bound_minnorm(25, 0.05, 0.3, _eps(400, 25), 0.0, 0.0) == 0.0


def test_bp_bound_reduces_to_first_term_when_dense():
    n, m, s = 64, 200, 64
    delta, eps, rho, E = 0.05, 0.4, 2.0, 0.1
    value = risk_bound_bp(n, m, s, delta, eps, rho, E, 0.0)
    expected = (C_PRIME
                * (1 + n / math.sqrt(m) * math.sqrt(math.log(1 / delta)))
                * (eps**2 * rho**2 + E**2))
    assert value == pytest.approx(expected, rel=1e-12)


def test_bp_conditions_reported_when_geometry_known():
    checks = check_bp_conditions(750, 150, 4, 12, 1.0, 1.0, 0.05, PERMISSIVE)
    names = {c.name for c in checks}
    assert names == {"sample_complexity", "sparsity_uncertainty", "delta_floor"}
    assert all(c.ok for c in checks)


def test_each_bound_checks_its_own_inputs():
    # The bounds take epsilon from the caller, so no epsilon_bound call checks
    # m and delta for them; the regime bounds check eta through K(eta).
    bounds = [lambda m, delta, eta: risk_bound_ls(10, m, delta, eta, 0.5, 1.0, 0.0),
              lambda m, delta, eta: risk_bound_minnorm(m, delta, eta, 0.5, 1.0, 0.0),
              lambda m, delta, eta: risk_bound_bp(64, m, 4, delta, 0.5, 1.0, 0.0, 0.1)]
    for bound in bounds:
        with pytest.raises(InvalidArgumentError, match="m must be positive"):
            bound(0, 0.05, 0.5)
        for delta in (0.0, 1.0):
            with pytest.raises(InvalidArgumentError, match="delta must lie in"):
                bound(100, delta, 0.5)
    for bound in bounds[:2]:
        with pytest.raises(InvalidArgumentError, match="eta must lie in"):
            bound(100, 0.05, 0.9)
    # Each square is finite, but the sum overflows: an inf bound would cover every risk.
    with pytest.raises(InvalidArgumentError,
                       match=r"risk bound inf is not finite: rho-norm \|\|f\|\|_rho = 1e\+154"):
        risk_bound_bp(64, 200, 4, 0.05, 0.5, 1e154, 0.0, 0.0)


def test_bp_noise_parameter_uses_unsquared_norm():
    # xi = sqrt(2 (eps^2 ||f||_rho + E^2)) with the norm to the first power.
    assert bp_noise_parameter(0.5, 4.0, 0.0) == pytest.approx(
        math.sqrt(2 * 0.25 * 4.0), rel=1e-12)


@given(st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.0, max_value=5.0))
def test_bounds_monotone_in_signal_and_noise(f1, f2, e1, e2):
    lo = risk_bound_ls(10, 100, 0.05, 0.3, _eps(10, 100), min(f1, f2), min(e1, e2))
    hi = risk_bound_ls(10, 100, 0.05, 0.3, _eps(10, 100), max(f1, f2), max(e1, e2))
    assert 0.0 <= lo <= hi + 1e-12


def test_constants_validation_and_modes():
    # A right-hand side is C times a mode-free factor: strict C = 4 c~1^2 / eta^2
    # (eta1 = 0.4 for the sparse bound), permissive C = 1.
    def rhs(checks, name):
        return {c.name: c.rhs for c in checks}[name]

    strict = check_regime_conditions(100, 10, 3, 1.0, 1.0, 0.5)
    permissive = check_regime_conditions(100, 10, 3, 1.0, 1.0, 0.5, PERMISSIVE)
    name = "sample_complexity_simplified"
    assert rhs(permissive, name) == pytest.approx(10 * math.log(10) ** 3 / 0.25, rel=1e-12)
    assert rhs(strict, name) / rhs(permissive, name) == pytest.approx(
        4 * 37.97**2 / 0.25, rel=1e-12)
    bp = [check_bp_conditions(750, 150, 4, 12, 1.0, 1.0, 0.05, p) for p in (False, True)]
    assert rhs(bp[0], "sample_complexity") / rhs(bp[1], "sample_complexity") == pytest.approx(
        4 * 37.97**2 / 0.16, rel=1e-12)


@pytest.mark.parametrize("hypotheses, args", [
    (check_regime_bound, dict(m=100, N=10, d=3, gamma=1.0, sigma=1.0, delta=0.05, eta=0.5,
                              under=True)),
    (check_regime_bound, dict(m=25, N=400, d=3, gamma=1.0, sigma=1.0, delta=0.05, eta=0.5,
                              under=False)),
    (check_bp_conditions, dict(m=750, N=150, s=4, d=12, gamma=1.0, sigma=1.0, delta=0.05)),
], ids=["least-squares", "min-norm", "bpdn-pruned"])
def test_the_mode_changes_only_the_sample_complexity_right_hand_sides(hypotheses, args):
    # The mode changes C, which only the sample-complexity hypotheses use; the
    # bound values take no mode at all.
    strict = hypotheses(**args, permissive=False)
    permissive = hypotheses(**args, permissive=True)
    assert [c.name for c in strict] == [c.name for c in permissive]
    assert any(c.name.startswith("sample_complexity") for c in strict)
    for s, p in zip(strict, permissive):
        assert s.lhs == p.lhs
        if s.name.startswith("sample_complexity"):
            assert s.rhs > p.rhs
        else:
            assert (s.rhs, s.ok) == (p.rhs, p.ok)


@pytest.mark.parametrize("m, N", [(10, 10), (10, 40), (40, 10)])
def test_regime_bounds_keep_their_own_regime(m, N):
    # Least squares is stated for m > N and min-norm for m < N, whatever the
    # point: outside its regime (m = N included) a bound reports the regime
    # check unsatisfied, and its delta floor keeps its own roles,
    # small^(-log^2(small) log(3 big)) with small = N for least squares and
    # small = m for min-norm.
    def floor(small, big):
        return math.exp(-math.log(small) ** 3 * math.log(3 * big))

    def checks(under):
        return {c.name: c
                for c in check_regime_bound(m, N, 3, 1.0, 1.0, 0.05, 0.5, False, under)}

    ls = checks(under=True)
    assert (ls["regime_m_gt_N"].lhs, ls["regime_m_gt_N"].rhs) == (m, N)
    assert ls["regime_m_gt_N"].ok == (m > N)
    assert ls["delta_floor"].rhs == pytest.approx(floor(N, m), rel=1e-12)
    mn = checks(under=False)
    assert (mn["regime_m_lt_N"].lhs, mn["regime_m_lt_N"].rhs) == (N, m)
    assert mn["regime_m_lt_N"].ok == (m < N)
    assert mn["delta_floor"].rhs == pytest.approx(floor(m, N), rel=1e-12)


def test_strict_constants_make_desk_scale_unreachable():
    report = hypotheses_by_mode(check_regime_conditions, 15000, 16, 12, 1.0, 1.0, 0.5)
    assert not report["strict"]["satisfied"]
    assert report["permissive"]["satisfied"]
