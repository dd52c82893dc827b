import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfcond.errors import (
    ConvergenceError,
    InfeasibleProblemError,
    InvalidArgumentError,
    NumericalFailureError,
)
from rfcond.experiments import random_features
from rfcond.sampling import NoiseModel, noise_vector, split_stream
from rfcond.solvers import (
    FLAG_SINGULAR_GRAM,
    FLAG_ZERO_FEASIBLE,
    CoefficientVector,
    best_s_term_error,
    bpdn,
    least_squares,
    min_norm_interpolate,
    prune_top_s,
    ridge,
)
from rfcond.spectral import gram_spectrum_via_svd, rip_constant_exact


def _random_complex(gen, m, n):
    return gen.normal(size=(m, n)) + 1j * gen.normal(size=(m, n))


def _coeff(values):
    return np.asarray(values, dtype=complex)


@pytest.mark.parametrize("solver, shape", [
    (least_squares, (6, 3)),
    (min_norm_interpolate, (3, 6)),
    (lambda A, y: bpdn(A, y, 0.01), (3, 6)),
], ids=["least_squares", "min_norm_interpolate", "bpdn"])
def test_nan_entry_raises_numerical_failure(solver, shape):
    A = np.ones(shape, dtype=complex)
    A[1, 2] = np.nan
    with pytest.raises(NumericalFailureError, match="least-squares solve failed"):
        solver(A, np.arange(1.0, shape[0] + 1))


def test_least_squares_constant_column_returns_mean():
    A = np.ones((6, 1), dtype=complex)
    y = np.arange(6.0)
    c = least_squares(A, y)
    assert c.values[0] == pytest.approx(y.mean(), rel=1e-12)


def test_least_squares_recovers_planted_solution():
    gen = np.random.default_rng(0)
    A = _random_complex(gen, 50, 10)
    c0 = _random_complex(gen, 10, 1).ravel()
    c = least_squares(A, A @ c0)
    assert np.linalg.norm(c.values - c0) <= 1e-8 * np.linalg.norm(c0)
    assert c.residual_norm <= 1e-8 * np.linalg.norm(A @ c0)


def test_least_squares_matches_svd_pseudoinverse_oracle():
    gen = np.random.default_rng(1)
    A = _random_complex(gen, 50, 10)
    y = _random_complex(gen, 50, 1).ravel()
    c = least_squares(A, y)
    oracle = np.linalg.pinv(A) @ y
    assert np.linalg.norm(c.values - oracle) <= 1e-8 * np.linalg.norm(oracle)
    # normal-equations residual
    ne = np.linalg.norm(A.conj().T @ (A @ c.values - y))
    assert ne <= 1e-8 * np.linalg.norm(A, 2) * np.linalg.norm(y)


def test_least_squares_flags_rank_deficiency():
    A = np.ones((5, 2), dtype=complex)
    c = least_squares(A, np.ones(5))
    assert "rank_deficient_pseudoinverse" in c.flags


def test_least_squares_rejects_underdetermined():
    with pytest.raises(InvalidArgumentError):
        least_squares(np.ones((2, 3)), np.ones(2))


def test_min_norm_square_invertible_inverts():
    gen = np.random.default_rng(2)
    A = _random_complex(gen, 6, 6) + 6 * np.eye(6)
    y = _random_complex(gen, 6, 1).ravel()
    c = min_norm_interpolate(A, y)
    assert np.linalg.norm(c.values - np.linalg.solve(A, y)) <= 1e-8 * np.linalg.norm(c.values)


def test_min_norm_zero_data_gives_zero():
    gen = np.random.default_rng(3)
    A = _random_complex(gen, 4, 9)
    c = min_norm_interpolate(A, np.zeros(4))
    assert np.linalg.norm(c.values) == 0.0


def test_min_norm_interpolates_and_lives_in_row_space():
    gen = np.random.default_rng(4)
    A = _random_complex(gen, 10, 50)
    y = _random_complex(gen, 10, 1).ravel()
    c = min_norm_interpolate(A, y)
    assert np.linalg.norm(A @ c.values - y) <= 1e-8 * np.linalg.norm(y)
    pinv = np.linalg.pinv(A)
    proj = pinv @ (A @ c.values)
    assert np.linalg.norm(c.values - proj) <= 1e-8 * np.linalg.norm(c.values)


def test_min_norm_beats_null_space_perturbations():
    gen = np.random.default_rng(5)
    A = _random_complex(gen, 10, 50)
    y = _random_complex(gen, 10, 1).ravel()
    c = min_norm_interpolate(A, y).values
    _, _, vh = np.linalg.svd(A)
    null_basis = vh[10:].conj().T  # 50 x 40 orthonormal null-space basis
    for _ in range(100):
        z = null_basis @ _random_complex(gen, 40, 1).ravel()
        competitor = c + z
        assert np.linalg.norm(A @ competitor - y) <= 1e-6 * np.linalg.norm(y)
        assert np.linalg.norm(c) <= np.linalg.norm(competitor) + 1e-10


def test_min_norm_flags_pseudoinverse_on_singular_row_gram():
    A = np.vstack([np.ones(5), np.ones(5)]).astype(complex)
    c = min_norm_interpolate(A, np.array([2.0, 2.0]))
    assert c.flags == (FLAG_SINGULAR_GRAM,)
    assert c.residual_norm == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(c.values, 0.4)  # minimal-norm solution of sum(c) = 2


def test_pseudoinverse_identities_on_full_rank_inputs():
    gen = np.random.default_rng(6)
    for shape in ((30, 12), (12, 30)):
        A = _random_complex(gen, *shape)
        pinv = np.linalg.pinv(A)
        assert (np.linalg.norm(A @ pinv @ A - A, "fro")
                <= 1e-8 * np.linalg.norm(A, "fro"))
        assert (np.linalg.norm(pinv @ A @ pinv - pinv, "fro")
                <= 1e-8 * np.linalg.norm(pinv, "fro"))


def test_least_squares_and_min_norm_agree_on_square_systems():
    gen = np.random.default_rng(7)
    A = _random_complex(gen, 8, 8) + 8 * np.eye(8)
    y = _random_complex(gen, 8, 1).ravel()
    a = least_squares(A, y).values
    b = min_norm_interpolate(A, y).values
    assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(a)


def test_ridge_shrinks_to_zero():
    gen = np.random.default_rng(8)
    A = _random_complex(gen, 12, 5)
    y = _random_complex(gen, 12, 1).ravel()
    c = ridge(A, y, 1e9)
    assert np.linalg.norm(c.values) <= 1e-6


def test_ridge_solves_shifted_normal_equations():
    gen = np.random.default_rng(9)
    for shape in ((12, 5), (5, 12)):
        A = _random_complex(gen, *shape)
        y = _random_complex(gen, shape[0], 1).ravel()
        lam = 0.37
        c = ridge(A, y, lam).values
        m = shape[0]
        lhs = A.conj().T @ A @ c / m + lam * c
        rhs = A.conj().T @ y / m
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_ridgeless_limit_matches_least_squares():
    gen = np.random.default_rng(10)
    A = _random_complex(gen, 40, 8)
    y = _random_complex(gen, 40, 1).ravel()
    c_ridge = ridge(A, y, 1e-10).values
    c_ls = least_squares(A, y).values
    assert np.linalg.norm(c_ridge - c_ls) <= 1e-6 * np.linalg.norm(c_ls)


def test_ridgeless_limit_matches_min_norm():
    _, _, A = random_features(3, 8, 40, 1.0, 1.0, split_stream(77, 0))
    gen = np.random.default_rng(11)
    y = gen.normal(size=8) + 1j * gen.normal(size=8)
    c_ridge = ridge(A, y, 1e-10).values
    c_mn = min_norm_interpolate(A, y).values
    assert np.linalg.norm(c_ridge - c_mn) <= 1e-6 * np.linalg.norm(c_mn)


def test_bpdn_zero_is_optimal_when_ball_contains_origin():
    gen = np.random.default_rng(12)
    A = _random_complex(gen, 10, 20)
    y = 0.1 * gen.normal(size=10)
    c = bpdn(A, y, xi=float(np.linalg.norm(y)), tolerance=1e-8)
    assert np.all(c.values == 0)
    assert c.duality_gap == 0.0
    assert c.iterations == 0


def test_bpdn_flags_only_the_zero_feasible_shortcut():
    gen = np.random.default_rng(12)
    A = _random_complex(gen, 10, 20)
    y = 0.1 * gen.normal(size=10)
    radius_ratio = float(np.linalg.norm(y)) / np.sqrt(10)
    inside = bpdn(A, y, xi=1.01 * radius_ratio)
    assert inside.flags == (FLAG_ZERO_FEASIBLE,)
    below = bpdn(A, y, xi=0.5 * radius_ratio)
    assert below.iterations > 0
    assert below.flags == ()
    assert np.any(below.values != 0)


def test_bpdn_zero_slack_inverts_square_systems():
    A = np.array([[2.0, 0.3], [0.1, 1.5]], dtype=complex)
    y = np.array([1.0, -2.0], dtype=complex)
    c = bpdn(A, y, 0.0, tolerance=1e-8)
    assert np.linalg.norm(c.values - np.linalg.solve(A, y)) <= 1e-6
    assert c.duality_gap <= 1e-8


def test_bpdn_planted_sparse_recovery_under_verified_rip():
    d, m, n, s = 5, 200, 20, 2
    _, _, A = random_features(d, m, n, 2.0, 1.0, split_stream(0, 0))
    delta_2s = rip_constant_exact(A / np.sqrt(m), 2 * s).value
    assert delta_2s <= 4.0 / np.sqrt(41.0)  # robust-recovery gate, by enumeration
    c0 = np.zeros(n, dtype=complex)
    c0[3] = 1.2 + 0.5j
    c0[11] = -0.8 + 0.3j
    E = 0.05
    e = noise_vector(m, NoiseModel("bounded_uniform", E), split_stream(0, 1))
    y = A @ c0 + e
    c = bpdn(A, y, xi=E, tolerance=1e-6)
    assert c.duality_gap <= 1e-6
    # c0 is feasible (||e||_2 <= E sqrt(m)), so the solution l1 cannot exceed it
    assert np.abs(c.values).sum() <= np.abs(c0).sum() + 1e-6
    top = set(np.argsort(-np.abs(c.values))[:s].tolist())
    assert top == {3, 11}


def test_bpdn_objective_not_worse_than_any_feasible_vector():
    _, _, A = random_features(4, 15, 40, 1.5, 1.0, split_stream(9, 0))
    gen = np.random.default_rng(13)
    y = gen.normal(size=15) + 1j * gen.normal(size=15)
    xi = 0.1
    c = bpdn(A, y, xi, tolerance=1e-7)
    radius = xi * np.sqrt(15)
    interpolant = min_norm_interpolate(A, y).values
    comparisons = [interpolant]
    for alpha in (0.25, 0.5, 0.75):
        comparisons.append(alpha * c.values + (1 - alpha) * interpolant)
    for v in comparisons:
        assert np.linalg.norm(A @ v - y) <= radius + 1e-9
        assert np.abs(c.values).sum() <= np.abs(v).sum() + 1e-6


def test_bpdn_detects_infeasible_constraints():
    A = np.array([[1.0], [0.0]], dtype=complex)
    y = np.array([0.0, 1.0], dtype=complex)
    with pytest.raises(InfeasibleProblemError):
        bpdn(A, y, xi=0.1)


@pytest.mark.parametrize("tolerance", [0.0, -1.0, np.inf, np.nan])
def test_bpdn_refuses_a_tolerance_that_is_not_finite_and_positive(tolerance):
    # Every gap is <= inf and none is <= nan: PDHG would stop at once or never.
    with pytest.raises(InvalidArgumentError, match="tolerance must be finite and positive"):
        bpdn(np.eye(2, dtype=complex), [1.0, 1.0], xi=0.1, tolerance=tolerance)


def test_bpdn_on_a_zero_matrix_returns_zero_within_tolerance():
    # ||y|| = 1 exceeds the radius 1 - 1e-7 by less than the tolerance, and
    # with A = 0 every c leaves the residual ||y||, so c = 0 is optimal.
    c = bpdn(np.zeros((4, 3)), [1, 0, 0, 0], xi=(1 - 1e-7) / 2, tolerance=1e-6)
    assert np.array_equal(c.values, np.zeros(3))
    assert c.iterations == 0
    assert c.residual_norm == 1.0
    assert c.duality_gap == 0.0
    assert c.flags == ()


def test_bpdn_on_a_zero_matrix_detects_infeasible_constraints():
    with pytest.raises(InfeasibleProblemError):
        bpdn(np.zeros((4, 3)), [1, 0, 0, 0], xi=0.4, tolerance=1e-6)


def test_bpdn_iteration_cap_reports_last_gap():
    gen = np.random.default_rng(14)
    A = _random_complex(gen, 10, 30)
    y = gen.normal(size=10) + 1j * gen.normal(size=10)
    with pytest.raises(ConvergenceError) as info:
        bpdn(A, y, xi=0.01, tolerance=1e-12, max_iter=50)
    assert info.value.last_gap is not None
    assert info.value.iterations == 50


@pytest.mark.parametrize("solver, shape", [(least_squares, (12, 5)),
                                           (min_norm_interpolate, (5, 12))])
def test_fits_keep_the_singular_values_of_their_solve(solver, shape):
    gen = np.random.default_rng(15)
    A = _random_complex(gen, *shape)
    c = solver(A, gen.normal(size=shape[0]))
    sv = c.singular_values
    assert np.allclose(sv, np.sort(np.linalg.svd(A, compute_uv=False)), rtol=1e-12)
    assert np.all(np.diff(sv) >= 0)
    # not part of equality or repr: the fit's identity is its values and flags
    assert replace(c, singular_values=None) == CoefficientVector(c.values, c.residual_norm)
    assert "singular_values" not in repr(c)


def _with_singular_values(gen, m, n, ratio):
    """A complex m x n matrix whose singular values run geometrically from 1
    down to `ratio`."""
    k = min(m, n)
    U = np.linalg.qr(_random_complex(gen, m, k))[0]
    V = np.linalg.qr(_random_complex(gen, n, k))[0]
    return (U * np.geomspace(1.0, ratio, k)) @ V.conj().T


# lstsq counts sigma_min as zero when sigma_min <= eps max(m, N) sigma_max:
# 2.2e-14 at 100 x 50, 3.3e-12 at 16 x 15000.
@pytest.mark.parametrize("solver, shape, ratio, pseudoinverse", [
    (least_squares, (100, 50), 1e-13, False),
    (min_norm_interpolate, (16, 15000), 2e-12, True),
    (least_squares, (100, 50), 1e-3, False),
    (min_norm_interpolate, (16, 200), 1e-3, False),
], ids=["least_squares-1e-13", "min_norm-2e-12", "least_squares-control",
        "min_norm-control"])
def test_condition_number_is_infinite_exactly_for_pseudoinverse_fits(solver, shape, ratio,
                                                                     pseudoinverse):
    # The sweep reports each fit's flags beside the condition number of the
    # same A, taken from the fit's own singular values; both rank A alike.
    gen = np.random.default_rng(16)
    A = _with_singular_values(gen, *shape, ratio)
    fit = solver(A, gen.normal(size=shape[0]))
    cond = gram_spectrum_via_svd(A, fit.singular_values).cond_number
    assert any("pseudoinverse" in flag for flag in fit.flags) == pseudoinverse
    assert (cond == np.inf) == pseudoinverse


def test_bpdn_takes_its_step_from_the_feasibility_solve(monkeypatch):
    factorizations = []
    svd, norm = np.linalg.svd, np.linalg.norm

    def counting_svd(*args, **kwargs):
        factorizations.append("svd")
        return svd(*args, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        if ord in (2, -2) and np.ndim(x) == 2:
            factorizations.append("matrix 2-norm")
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    gen = np.random.default_rng(12)
    A = _random_complex(gen, 10, 20)
    y = 0.1 * gen.normal(size=10)
    c = bpdn(A, y, xi=0.5 * float(np.linalg.norm(y)) / np.sqrt(10))
    assert c.iterations > 0
    assert factorizations == []  # the step size comes from lstsq's singular values


def test_prune_identity_and_ordering():
    c = _coeff([3.0, 1.0, 2.0])
    assert np.array_equal(prune_top_s(c, 3), c)
    assert np.array_equal(prune_top_s(c, 1), [3.0, 0.0, 0.0])


def test_prune_breaks_ties_toward_lower_index():
    c = _coeff([1.0, 1.0, 1.0])
    pruned = prune_top_s(c, 2)
    assert np.array_equal(pruned, [1.0, 1.0, 0.0])


def test_best_s_term_examples():
    c = _coeff([3.0, 1.0, 2.0])
    assert best_s_term_error(c, 1, 1) == pytest.approx(3.0)
    assert best_s_term_error(c, 3, 1) == 0.0
    assert best_s_term_error(c, 1, 2) == pytest.approx(np.sqrt(5.0))


def test_best_s_term_matches_exhaustive_support_search():
    gen = np.random.default_rng(15)
    values = gen.normal(size=9) + 1j * gen.normal(size=9)
    c = _coeff(values)
    for s in range(1, 9):
        for p in (1, 2):
            brute = min(
                np.linalg.norm(np.where(np.isin(np.arange(9), sup), 0.0, values), p)
                for sup in itertools.combinations(range(9), s)
            )
            assert best_s_term_error(c, s, p) == pytest.approx(brute, rel=1e-12)


@given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=12),
       st.integers(min_value=1, max_value=12))
def test_prune_and_tail_split_l1_mass(values, s):
    c = _coeff(values)
    s = min(s, len(values))
    pruned = prune_top_s(c, s)
    assert np.count_nonzero(pruned) <= s
    total = np.abs(c).sum()
    split = np.abs(pruned).sum() + best_s_term_error(c, s, 1)
    assert split == pytest.approx(total, abs=1e-12 * max(1.0, total))


@given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
                min_size=2, max_size=12))
def test_tail_error_non_increasing_in_s(values):
    c = _coeff(values)
    errs = [best_s_term_error(c, s, 1) for s in range(1, len(values) + 1)]
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
