import tracemalloc
from itertools import groupby

import numpy as np
import pytest
from scipy.integrate import quad

from rfcond import targets
from rfcond.errors import InvalidArgumentError, NumericalFailureError
from rfcond.features import _BLOCK_ENTRIES, FOURIER, RELU, build_features
from rfcond.sampling import gaussian_matrix, split_stream
from rfcond.solvers import least_squares, prune_top_s
from rfcond.targets import (
    best_phi_coeffs,
    evaluate_model,
    gaussian_bump_target,
    linear_target,
    population_risk,
    sample_target,
)


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
    assert np.abs(c).max() <= t.rho_norm / 100_000 + 1e-18
    assert len(c) == 100_000


def test_constant_transform_ratio_gives_uniform_coefficients():
    # a^2 = 1/sigma^2 makes alpha/rho constant, so c*_k = rho_norm / N exactly.
    t = gaussian_bump_target(1.0, 1.0, 3)
    assert t.rho_norm == pytest.approx(1.0)
    W = gaussian_matrix(3, 50, 1.0, split_stream(32, 0))
    c = best_phi_coeffs(t, W)
    assert np.allclose(c, 1.0 / 50)


def test_linear_target_has_no_transform_ratio():
    t = linear_target(np.array([1.0, 2.0]))
    assert t.rho_norm is None
    with pytest.raises(InvalidArgumentError):
        t.alpha_over_rho(np.zeros((2, 3)))
    with pytest.raises(InvalidArgumentError):
        best_phi_coeffs(t, np.zeros((2, 3)))


def test_evaluate_model_zero_coefficients():
    W = gaussian_matrix(2, 5, 1.0, split_stream(33, 0))
    Z = gaussian_matrix(2, 7, 1.0, split_stream(33, 1))
    preds = evaluate_model(W, np.zeros(5, dtype=complex), Z)
    assert np.all(preds == 0)
    with pytest.raises(InvalidArgumentError):  # a model with no features
        evaluate_model(W[:, :0], np.zeros(0), Z)


def test_planted_target_matches_its_own_model():
    t = sample_target("planted", 3, 1.0, split_stream(34, 0), FOURIER, planted_s=4)
    W0 = t.params["W0"]
    c0 = t.params["c0"]
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


def _instance(n_test, n_features, kind, d=12):
    W = gaussian_matrix(d, n_features, 1.0, split_stream(42, 0))
    Z = gaussian_matrix(d, n_test, 1.0, split_stream(42, 1))
    gen = np.random.default_rng(n_test)
    c = gen.normal(size=n_features)
    if kind == FOURIER:
        c = c + 1j * gen.normal(size=n_features)
    return W, Z, c


# n_test -> N: with N = 16384 the entry budget gives 8-row blocks, the block
# height of the validate workload (N = 15000); n_test = 1000 takes a smaller N
# to keep the one-shot reference small, and gets 32-row blocks.
_BLOCKED_CASES = {1: 16384, 63: 16384, 64: 16384, 65: 16384, 129: 16384, 1000: 4096}


@pytest.mark.parametrize("kind", [FOURIER, RELU])
@pytest.mark.parametrize("n_test", list(_BLOCKED_CASES))
def test_evaluate_model_blocks_match_one_shot_bitwise(kind, n_test):
    W, Z, c = _instance(n_test, _BLOCKED_CASES[n_test], kind)
    assert np.array_equal(evaluate_model(W, c, Z, kind), build_features(Z, W, kind) @ c)


@pytest.mark.parametrize("n_test, n_features, n_blocks",
                         [(1, 15000, 1), (65, 15000, 8), (129, 15000, 16), (1000, 15000, 125),
                          (1000, 500, 4), (17, 16384, 2), (17, 100000, 12)])
def test_evaluate_model_blocks_stay_in_budget_and_cover_z_once(monkeypatch, n_test,
                                                                n_features, n_blocks):
    # (17, 100000): rows of 100,000 features outgrow the budget, so the row
    # blocks of 8 and 9 are each cut into 6 column pieces
    W, Z, c = _instance(n_test, n_features, RELU, d=2)
    blocks = []

    def recording_build_features(X, V, kind):
        blocks.append((X, V))
        return np.zeros((X.shape[1], V.shape[1]))

    monkeypatch.setattr(targets, "build_features", recording_build_features)
    assert evaluate_model(W, c, Z, RELU).shape == (n_test,)
    assert all(X.shape[1] * V.shape[1] <= _BLOCK_ENTRIES for X, V in blocks)
    # consecutive builds of the same test points make one row block
    groups = [list(g) for _, g in groupby(blocks, lambda b: (b[0].ctypes.data, b[0].shape))]
    rows = [g[0][0].shape[1] for g in groups]
    assert all(r % 8 == 0 for r in rows[:-1])
    assert rows[-1] > 1 or n_test == 1
    assert np.array_equal(np.hstack([g[0][0] for g in groups]), Z)
    assert all(np.array_equal(np.hstack([V for _, V in g]), W) for g in groups)
    assert len(blocks) == n_blocks


@pytest.mark.parametrize("kind", [FOURIER, RELU])
def test_evaluate_model_sums_column_pieces_to_the_one_shot_product(kind):
    W, Z, c = _instance(17, 100_000, kind)
    got, want = evaluate_model(W, c, Z, kind), build_features(Z, W, kind) @ c
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("kind", [FOURIER, RELU])
def test_evaluate_model_memory_stays_within_a_few_blocks(kind):
    # One block at a time: its phase (8 bytes per entry) and features (16 for
    # Fourier), so the peak stays under three complex blocks, not the
    # 16 * n_test * N bytes (240 MB) of the whole test-feature matrix.
    W, Z, c = _instance(1000, 15000, kind)
    tracemalloc.start()
    try:
        evaluate_model(W, c, Z, kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * _BLOCK_ENTRIES


def test_risk_of_planted_model_on_its_own_target_is_zero():
    t = sample_target("planted", 2, 1.0, split_stream(36, 0), FOURIER, planted_s=3)
    risk = _mc_risk(t, t.params["W0"], t.params["c0"], 500, 1.0,
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


def _fitted_cell(kind, target_kind, n_features=10, m=40, d=3, gamma=1.3, sigma=0.7):
    """(target, W, c): a least-squares fit of m noiseless samples with N < m
    features, a cell well below the N = m peak."""
    target = sample_target(target_kind, d, sigma, split_stream(50, 0), kind, planted_s=3)
    X = gaussian_matrix(d, m, gamma**2, split_stream(50, 1))
    W = gaussian_matrix(d, n_features, sigma**2, split_stream(50, 2))
    return target, W, least_squares(build_features(X, W, kind), target.evaluate(X)).values


def _mc_risk_and_se(target, W, c, gamma, kind, n_test=200_000):
    Z = gaussian_matrix(W.shape[0], n_test, gamma**2, split_stream(51, 0))
    sq_err = np.abs(target.evaluate(Z) - evaluate_model(W, c, Z, kind)) ** 2
    return sq_err.mean(), sq_err.std(ddof=1) / np.sqrt(n_test)


@pytest.mark.parametrize("kind", [FOURIER, RELU])
@pytest.mark.parametrize("target_kind", ["linear", "gaussian_bump", "planted"])
def test_population_risk_matches_monte_carlo(kind, target_kind):
    # The planted Fourier case has complex c0, so a complex target.
    gamma = 1.3
    target, W, c = _fitted_cell(kind, target_kind, gamma=gamma)
    risk = population_risk(target, W, c, gamma, kind)
    mc, se = _mc_risk_and_se(target, W, c, gamma, kind)
    assert risk > 0
    assert abs(risk - mc) <= 4 * se


@pytest.mark.parametrize("kind", [FOURIER, RELU])
def test_population_risk_of_sparse_coefficients(kind):
    # A pruned fit (nnz < N): the zero entries drop out exactly, and the
    # value still matches Monte Carlo.
    gamma = 1.3
    target, W, c = _fitted_cell(kind, "gaussian_bump", n_features=30, m=80, gamma=gamma)
    c = prune_top_s(c, 4)
    keep = np.flatnonzero(c)
    assert keep.size == 4
    risk = population_risk(target, W, c, gamma, kind)
    assert risk == population_risk(target, W[:, keep], c[keep], gamma, kind)
    mc, se = _mc_risk_and_se(target, W, c, gamma, kind)
    assert abs(risk - mc) <= 4 * se


def test_population_risk_of_zero_model_is_the_target_energy():
    a, gamma, d = np.sqrt(2.0), 0.8, 3
    W = gaussian_matrix(d, 5, 1.0, split_stream(52, 0))
    risk = population_risk(_bump(a=a, d=d), W, np.zeros(5, dtype=complex), gamma)
    assert risk == pytest.approx((1 + 2 * gamma**2 / a**2) ** (-d / 2), rel=1e-14)
    b = np.array([0.5, -1.0, 2.0])
    risk = population_risk(linear_target(b), W, np.zeros(5), gamma, RELU)
    assert risk == pytest.approx(gamma**2 * b @ b, rel=1e-14)


@pytest.mark.parametrize("kind", [FOURIER, RELU])
def test_population_risk_of_a_planted_model_on_its_own_target(kind):
    # The true risk is 0; cancellation leaves at most rounding, never a
    # negative value.
    t = sample_target("planted", 3, 1.0, split_stream(53, 0), kind, planted_s=6)
    risk = population_risk(t, t.params["W0"], t.params["c0"], 1.0, kind)
    assert 0.0 <= risk <= 1e-12


def test_population_risk_zero_weight_column():
    # A ReLU feature with w = 0 is identically 0: its kernel row is 0, not
    # nan, and its coefficient does not change the risk.  A Fourier feature
    # with w = 0 is the constant 1, so it adds exactly 1 to the risk of the
    # target's own planted model.
    d = 2
    t = sample_target("planted", d, 1.0, split_stream(54, 0), RELU, planted_s=3)
    W = np.hstack([t.params["W0"], np.zeros((d, 1))])
    kernel = targets._kernel(W, W, 1.0, RELU)
    assert np.all(np.isfinite(kernel)) and np.all(kernel[-1] == 0) and np.all(kernel[:, -1] == 0)
    c = np.concatenate([t.params["c0"] + 0.1, [5.0]])
    assert population_risk(t, W, c, 1.0, RELU) == pytest.approx(
        population_risk(t, W[:, :-1], c[:-1], 1.0, RELU), rel=1e-13)
    t = sample_target("planted", d, 1.0, split_stream(54, 1), FOURIER, planted_s=3)
    W = np.hstack([t.params["W0"], np.zeros((d, 1))])
    c = np.concatenate([t.params["c0"], [1.0]])
    assert population_risk(t, W, c, 1.0, FOURIER) == pytest.approx(1.0, abs=1e-12)


def _moments_giving(monkeypatch, risk_over_scale):
    """Make _target_moments return E|f|^2 = 1 and a cross moment that puts
    the risk at risk_over_scale * (E|f|^2 + c*Kc)."""
    def moments(target, W, gamma, kind):
        scale = 1.0 + targets._quadratic_form(W, c, gamma, kind)
        cross = (scale - risk_over_scale * scale) / 2.0
        return 1.0, cross * c / np.vdot(c, c)

    W = gaussian_matrix(2, 4, 1.0, split_stream(55, 0))
    c = np.array([0.3 + 0.1j, -0.2j, 0.5, 0.1])
    monkeypatch.setattr(targets, "_target_moments", moments)
    return W, c


def test_population_risk_clips_rounding_below_zero(monkeypatch):
    W, c = _moments_giving(monkeypatch, -1e-13)
    assert population_risk(_bump(d=2), W, c, 1.0) == 0.0


@pytest.mark.parametrize("risk_over_scale", [-1e-9, np.nan])
def test_population_risk_raises_beyond_rounding(monkeypatch, risk_over_scale):
    W, c = _moments_giving(monkeypatch, risk_over_scale)
    problem = ("closed-form risk nan is not finite" if np.isnan(risk_over_scale)
               else "closed-form risk .* is negative beyond rounding")
    with pytest.raises(NumericalFailureError, match=problem):
        population_risk(_bump(d=2), W, c, 1.0)


def test_population_risk_raises_on_an_infinite_risk(monkeypatch):
    monkeypatch.setattr(targets, "_target_moments",
                        lambda target, W, gamma, kind: (np.inf, np.zeros(W.shape[1])))
    W = gaussian_matrix(2, 4, 1.0, split_stream(55, 0))
    with pytest.raises(NumericalFailureError, match="closed-form risk inf is not finite"):
        population_risk(_bump(d=2), W, np.array([0.3 + 0.1j, -0.2j, 0.5, 0.1]), 1.0)


def test_population_risk_validates_its_arguments():
    W = np.zeros((3, 4))
    with pytest.raises(InvalidArgumentError):
        population_risk(_bump(), W, np.zeros(5), 1.0)
    with pytest.raises(InvalidArgumentError):
        population_risk(_bump(), W, np.zeros(4), 1.0, "tanh")
    with pytest.raises(InvalidArgumentError):
        population_risk(linear_target(np.ones(2)), W, np.zeros(4), 1.0)
    planted = sample_target("planted", 3, 1.0, split_stream(56, 0), RELU)
    with pytest.raises(InvalidArgumentError):
        population_risk(planted, W, np.zeros(4), 1.0, FOURIER)
