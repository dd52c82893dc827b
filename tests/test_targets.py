import numpy as np
import pytest
from scipy.integrate import quad

from rfcond.errors import InvalidArgumentError, UnsupportedTargetError
from rfcond.features import FOURIER
from rfcond.sampling import gaussian_matrix, split_stream
from rfcond.solvers import best_s_term_error
from rfcond.targets import (
    best_phi_coeffs,
    evaluate_model,
    gaussian_bump_target,
    linear_target,
    planted_coefficients,
    planted_target,
    sample_target,
    target_from_json,
    target_to_json,
    worst_case_theta,
)
from rfcond.theory import min_features_for_accuracy


def _bump(a=np.sqrt(2.0), sigma=1.0, d=3):
    return gaussian_bump_target(a, sigma, d)


def _mc_risk(target, W, c, n_test, data_variance, stream):
    """Monte Carlo risk mean |f(z) - f#(z)|^2 over z ~ N(0, data_variance I)."""
    Z = gaussian_matrix(np.asarray(W).shape[0], n_test, data_variance, stream)
    return float(np.mean(np.abs(target.evaluate(Z) - evaluate_model(W, c, Z)) ** 2))


def test_bump_requires_finite_rho_norm():
    with pytest.raises(InvalidArgumentError):
        gaussian_bump_target(0.5, 1.0, 3)  # a^2 < 1/sigma^2
    t = _bump()
    assert t.rho_norm == pytest.approx(2.0 ** (3 / 2), rel=1e-12)


def test_bump_transform_ratio_peaks_at_origin():
    t = _bump(d=4)
    W = np.zeros((4, 1))
    assert t.alpha_over_rho(W)[0] == pytest.approx(t.rho_norm, rel=1e-12)


def test_best_phi_envelope_never_violated():
    t = _bump(d=3)
    W = gaussian_matrix(3, 100_000, 1.0, split_stream(31, 0))
    c = best_phi_coeffs(t, W)
    assert np.abs(c.values).max() <= t.rho_norm / 100_000 + 1e-18
    assert c.origin == "best_phi"


def test_constant_transform_ratio_gives_uniform_coefficients():
    # a^2 = 1/sigma^2 makes alpha/rho constant, so c*_k = rho_norm / N exactly.
    t = gaussian_bump_target(1.0, 1.0, 3)
    assert t.rho_norm == pytest.approx(1.0)
    W = gaussian_matrix(3, 50, 1.0, split_stream(32, 0))
    c = best_phi_coeffs(t, W)
    assert np.allclose(c.values, 1.0 / 50)


def test_linear_target_has_no_transform_ratio():
    t = linear_target(np.array([1.0, 2.0]))
    assert t.rho_norm is None
    with pytest.raises(UnsupportedTargetError):
        t.alpha_over_rho(np.zeros((2, 3)))
    with pytest.raises(UnsupportedTargetError):
        best_phi_coeffs(t, np.zeros((2, 3)))


def test_evaluate_model_zero_coefficients():
    W = gaussian_matrix(2, 5, 1.0, split_stream(33, 0))
    Z = gaussian_matrix(2, 7, 1.0, split_stream(33, 1))
    preds = evaluate_model(W, np.zeros(5, dtype=complex), Z)
    assert np.all(preds == 0)


def test_planted_target_matches_its_own_model():
    t = sample_target("planted", 3, 1.0, split_stream(34, 0), FOURIER, planted_s=4)
    W0 = t.params["W0"]
    c0 = planted_coefficients(t)
    Z = gaussian_matrix(3, 50, 1.0, split_stream(34, 1))
    preds = evaluate_model(W0, c0, Z)
    assert np.abs(preds - t.evaluate(Z)).max() <= 1e-10


def test_evaluate_model_is_linear_in_coefficients():
    W = gaussian_matrix(2, 6, 1.0, split_stream(35, 0))
    Z = gaussian_matrix(2, 9, 1.0, split_stream(35, 1))
    gen = np.random.default_rng(0)
    c1 = gen.normal(size=6) + 1j * gen.normal(size=6)
    c2 = gen.normal(size=6) + 1j * gen.normal(size=6)
    lhs = evaluate_model(W, c1 + c2, Z)
    rhs = evaluate_model(W, c1, Z) + evaluate_model(W, c2, Z)
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_risk_of_planted_model_on_its_own_target_is_zero():
    t = sample_target("planted", 2, 1.0, split_stream(36, 0), FOURIER, planted_s=3)
    risk = _mc_risk(t, t.params["W0"], planted_coefficients(t), 500, 1.0,
                    split_stream(36, 1))
    assert risk <= 1e-20


def test_constant_offset_model_has_unit_risk():
    # Append a zero-weight feature with coefficient 1 to the target's own
    # planted model: f# = f + 1 pointwise, so the risk is 1 up to Monte
    # Carlo error.
    d = 2
    t = sample_target("planted", d, 1.0, split_stream(37, 5), FOURIER, planted_s=3)
    W = np.hstack([t.params["W0"], np.zeros((d, 1))])
    c = np.concatenate([t.params["c0"], [1.0]])
    n_test = 10_000
    risk = _mc_risk(t, W, c, n_test, 1.0, split_stream(37, 0))
    assert abs(risk - 1.0) <= 3.0 / np.sqrt(n_test)


def test_zero_model_risk_matches_quadrature_oracle():
    a, gamma, d = np.sqrt(2.0), 1.0, 3
    t = _bump(a=a, d=d)
    W = gaussian_matrix(d, 10, 1.0, split_stream(38, 0))
    n_test = 20_000
    risk = _mc_risk(t, W, np.zeros(10, dtype=complex), n_test, gamma**2,
                    split_stream(38, 1))

    def density(x):
        return np.exp(-x**2 / gamma**2 / 2.0) / np.sqrt(2 * np.pi * gamma**2)

    one_dim, _ = quad(lambda x: np.exp(-x**2 / a**2) * density(x), -np.inf, np.inf)
    expected = one_dim**d
    # second moment of |f|^2 for the standard error
    one_dim4, _ = quad(lambda x: np.exp(-2 * x**2 / a**2) * density(x), -np.inf, np.inf)
    se = np.sqrt(max(one_dim4**d - expected**2, 0.0) / n_test)
    assert abs(risk - expected) <= 3 * se


def test_worst_case_theta_examples():
    assert worst_case_theta(5, 5, 3.0) == 0.0
    assert worst_case_theta(1, 2, 2.0) == pytest.approx(1.0)
    with pytest.raises(InvalidArgumentError):
        worst_case_theta(0, 5, 1.0)


def test_actual_tail_error_below_worst_case():
    t = _bump(d=3)
    for trial in range(5):
        W = gaussian_matrix(3, 40, 1.0, split_stream(39, trial))
        c = best_phi_coeffs(t, W)
        for s in (1, 5, 20, 39):
            actual = best_s_term_error(c, s, 1)
            assert actual <= worst_case_theta(s, 40, t.rho_norm) + 1e-12


def test_feature_count_rule_reaches_target_accuracy():
    # With N from the accuracy rule, the Monte Carlo discretization f* of the
    # bump target lands within eps ||f||_rho in L2 in at least 1 - delta of
    # the weight draws.
    eps, delta = 0.25, 0.2
    d, gamma, sigma = 2, 1.0, 1.0
    t = _bump(a=np.sqrt(2.0), sigma=sigma, d=d)
    n_features = min_features_for_accuracy(eps, delta)
    assert n_features == 125
    trials, n_test = 200, 10_000
    hits = 0
    for trial in range(trials):
        stream = split_stream(40, trial)
        W = gaussian_matrix(d, n_features, sigma**2, stream.substream(1))
        c = best_phi_coeffs(t, W)
        Z = gaussian_matrix(d, n_test, gamma**2, stream.substream(2))
        err2 = np.mean(np.abs(t.evaluate(Z) - evaluate_model(W, c, Z)) ** 2)
        hits += np.sqrt(err2) <= eps * t.rho_norm
    frac = hits / trials
    se = np.sqrt(delta * (1 - delta) / trials)
    assert frac >= 1 - delta - 3 * se


def test_target_json_round_trips():
    cases = [
        (linear_target(np.array([0.5, -1.5])), 2),
        (sample_target("planted", 3, 1.0, split_stream(41, 0), FOURIER, planted_s=2), 3),
        (_bump(), 3),
    ]
    for t, d in cases:
        back = target_from_json(target_to_json(t))
        assert back.kind == t.kind
        assert back.rho_norm == t.rho_norm
        Z = gaussian_matrix(d, 5, 1.0, split_stream(41, 1))
        assert np.allclose(back.evaluate(Z), t.evaluate(Z))
