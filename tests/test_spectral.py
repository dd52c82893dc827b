import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfcond.errors import EnumerationBudgetError, InvalidArgumentError
from rfcond.features import random_features
from rfcond.sampling import split_stream
from rfcond.spectral import (
    SIDE_COLUMNS,
    SIDE_ROWS,
    gram_spectrum_via_svd,
    rip_constant_exact,
    rip_constant_lower_mc,
    singular_values,
    spectral_density,
)


def _random_fourier(d, m, n, seed, gamma=1.0, sigma=1.0):
    _, _, A = random_features(d, m, n, gamma, sigma, split_stream(seed, 0))
    return A


def test_single_fourier_column_has_unit_eigenvalue():
    A = _random_fourier(3, 20, 1, 1)
    spec = gram_spectrum_via_svd(A, SIDE_COLUMNS)
    assert spec.eigenvalues.shape == (1,)
    assert spec.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert spec.cond_number == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_equal_norm_columns_give_flat_spectrum():
    entries = np.sqrt(3) * np.eye(4, dtype=complex)[:, :3]
    spec = gram_spectrum_via_svd(entries, SIDE_COLUMNS)
    assert np.allclose(spec.eigenvalues, spec.eigenvalues[0])


def test_both_sides_share_nonzero_spectrum():
    A = _random_fourier(2, 6, 9, 2)
    cols = gram_spectrum_via_svd(A, SIDE_COLUMNS)
    rows = gram_spectrum_via_svd(A, SIDE_ROWS)
    assert cols.eigenvalues.shape == (9,)
    assert rows.eigenvalues.shape == (6,)
    # zero padding on the larger side
    assert np.all(np.abs(cols.eigenvalues[:3]) <= 1e-9)
    nz = cols.eigenvalues[3:] * 6  # undo 1/m
    assert np.allclose(np.sort(nz), np.sort(rows.eigenvalues * 9), atol=1e-8)
    assert cols.cond_number == float("inf")


def test_singular_values_identity_and_diagonal():
    assert np.allclose(singular_values(np.eye(3)), [1, 1, 1])
    assert np.allclose(singular_values(np.diag([3.0, 4.0])), [3, 4])


def test_singular_values_square_against_gram_oracle():
    gen = np.random.default_rng(0)
    M = gen.normal(size=(20, 5)) + 1j * gen.normal(size=(20, 5))
    sv = singular_values(M)
    eigs = np.sort(np.linalg.eigvalsh(M.conj().T @ M))
    rel = np.abs(sv**2 - eigs) / eigs[-1]
    assert rel.max() <= 1e-8


def test_condition_number_examples():
    def cond(M):
        return gram_spectrum_via_svd(M, SIDE_COLUMNS).cond_number

    assert cond(np.eye(4)) == pytest.approx(1.0)
    assert cond(np.diag([1.0, 10.0])) == pytest.approx(10.0)
    assert cond(np.zeros((3, 3))) == float("inf")
    rank_def = np.outer(np.ones(4), np.ones(3))
    assert cond(rank_def) == float("inf")


def test_gram_spectrum_matches_singular_values_cross_oracle():
    A = _random_fourier(3, 15, 8, 5)
    eigs = np.sort(np.linalg.eigvalsh(A.conj().T @ A) / 15)
    sv = singular_values(A)
    assert np.all(eigs >= -1e-9)
    rel = np.abs(np.sort(sv**2 / 15) - eigs) / eigs[-1]
    assert rel.max() <= 1e-8


def test_rip_s1_is_zero_for_unit_norm_columns():
    A = _random_fourier(2, 25, 6, 7)
    est = rip_constant_exact(A / np.sqrt(25), 1)
    assert est.method == "exact_enumeration"
    assert est.supports_evaluated == 6
    assert est.value <= 1e-10


def test_rip_full_support_equals_operator_norm():
    A = _random_fourier(2, 30, 7, 8)
    An = A / np.sqrt(30)
    est = rip_constant_exact(An, 7)
    op = np.linalg.norm(An.conj().T @ An - np.eye(7), 2)
    assert est.value == pytest.approx(op, abs=1e-10)


def test_rip_nondecreasing_in_sparsity():
    A = _random_fourier(3, 30, 8, 9)
    An = A / np.sqrt(30)
    values = [rip_constant_exact(An, s).value for s in range(1, 9)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_rip_budget_error_advises_randomized():
    A = _random_fourier(2, 10, 30, 10)
    with pytest.raises(EnumerationBudgetError, match="randomized"):
        rip_constant_exact(A / np.sqrt(10), 15, budget=1000)


def test_rip_mc_is_lower_bound_and_saturates_on_tiny_instances():
    A = _random_fourier(2, 12, 5, 11)
    An = A / np.sqrt(12)
    for s in (1, 2, 3):
        exact = rip_constant_exact(An, s)
        mc = rip_constant_lower_mc(An, s, 400, split_stream(0, 0))
        assert mc.method == "randomized_lower_bound"
        assert mc.value <= exact.value + 1e-10
        # 400 draws over at most C(5,3)=10 supports hit everything
        assert mc.value == pytest.approx(exact.value, abs=1e-12)


def test_rip_mc_monotone_in_trials_with_shared_prefix():
    A = _random_fourier(3, 15, 9, 12)
    An = A / np.sqrt(15)
    stream = split_stream(5, 1)
    v10 = rip_constant_lower_mc(An, 3, 10, stream).value
    v50 = rip_constant_lower_mc(An, 3, 50, stream).value
    assert v50 >= v10 - 1e-15


def test_rip_invariant_under_column_permutation():
    A = _random_fourier(2, 20, 6, 13)
    An = A / np.sqrt(20)
    base = rip_constant_exact(An, 3).value
    gen = np.random.default_rng(3)
    for _ in range(4):
        perm = gen.permutation(6)
        assert rip_constant_exact(An[:, perm], 3).value == pytest.approx(base, abs=1e-12)


def test_band_membership_caps_full_rip_constant():
    # If every eigenvalue of (1/m)A*A lies in [1-t, 1+t] then delta_N <= t by
    # definition; the exact enumerator must agree to round-off.
    A = _random_fourier(3, 40, 5, 14)
    spec = gram_spectrum_via_svd(A, SIDE_COLUMNS)
    t = max(spec.lambda_max - 1.0, 1.0 - spec.lambda_min)
    est = rip_constant_exact(A / np.sqrt(40), 5)
    assert est.value <= t + 1e-10


def test_svd_route_agrees_with_eigendecomposition_route():
    A = _random_fourier(3, 12, 7, 16)
    oracles = {SIDE_COLUMNS: np.linalg.eigvalsh(A.conj().T @ A) / 12,
               SIDE_ROWS: np.linalg.eigvalsh(A @ A.conj().T) / 7}
    for side, a in oracles.items():
        b = gram_spectrum_via_svd(A, side)
        assert a.shape == b.eigenvalues.shape
        scale = max(a[-1], 1e-12)
        assert np.abs(a - b.eigenvalues).max() / scale <= 1e-8
    # the un-padded side is finite; the padded side is flagged infinite
    assert gram_spectrum_via_svd(A, SIDE_COLUMNS).cond_number < float("inf")
    assert gram_spectrum_via_svd(A, SIDE_ROWS).cond_number == float("inf")
    wide = _random_fourier(2, 4, 9, 17)
    assert gram_spectrum_via_svd(wide, SIDE_COLUMNS).cond_number == float("inf")
    assert gram_spectrum_via_svd(wide, SIDE_ROWS).cond_number < float("inf")


def test_density_single_value_is_symmetric_peak():
    curve = spectral_density([2.0], normalization="max_one")
    peak = curve.grid[np.argmax(curve.density)]
    half_step = 0.5 * (curve.grid[1] - curve.grid[0])
    assert abs(peak - 2.0) <= half_step * (1 + 1e-9)
    assert curve.density.max() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(curve.density, curve.density[::-1], atol=1e-9)


def test_density_integral_one_mode():
    gen = np.random.default_rng(0)
    curve = spectral_density(gen.normal(size=500), normalization="integral_one")
    integral = np.trapezoid(curve.density, curve.grid)
    assert integral == pytest.approx(1.0, abs=1e-3)
    assert np.all(curve.density >= 0)


def test_density_validation():
    with pytest.raises(InvalidArgumentError):
        spectral_density([])
    with pytest.raises(InvalidArgumentError):
        spectral_density([1.0], bandwidth=-1.0)
    with pytest.raises(InvalidArgumentError):
        spectral_density([1.0], normalization="sum_one")


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=2, max_value=7),
       st.integers(min_value=0, max_value=2**32))
def test_gram_eigenvalues_consistent_with_singular_values(m, n, trial):
    _, _, A = random_features(2, m, n, 1.0, 1.0, split_stream(321, trial))
    side = SIDE_COLUMNS if n <= m else SIDE_ROWS
    sv = singular_values(A)
    norm = m if side == SIDE_COLUMNS else n
    G = A.conj().T @ A if side == SIDE_COLUMNS else A @ A.conj().T
    eigs = np.sort(np.linalg.eigvalsh(G) / norm)
    assert np.all(eigs >= -1e-9)
    scale = max(eigs[-1], 1e-12)
    assert np.abs(np.sort(sv**2 / norm) - eigs).max() / scale <= 1e-8
