import numpy as np
import pytest

from rfcond.errors import InvalidArgumentError
from rfcond.features import (
    FOURIER,
    RELU,
    build_features,
    fourier_features,
    random_features,
    relu_features,
)
from rfcond.sampling import split_stream
from rfcond.spectral import SIDE_COLUMNS, SIDE_ROWS, gram_spectrum_via_svd


def test_zero_data_gives_all_ones():
    X = np.zeros((3, 4))
    W = np.ones((3, 5))
    A = fourier_features(X, W)
    assert np.allclose(A, 1.0)


def test_quarter_period_phase():
    X = np.array([[np.pi / 2]])
    W = np.array([[1.0]])
    A = fourier_features(X, W)
    assert A[0, 0] == pytest.approx(1j, abs=1e-15)


def test_unit_modulus_everywhere():
    _, _, A = random_features(4, 30, 50, 1.3, 0.7, split_stream(3, 0))
    assert np.abs(np.abs(A) - 1.0).max() <= 1e-12


def test_frobenius_energy_is_m_times_n():
    _, _, A = random_features(3, 12, 20, 1.0, 1.0, split_stream(4, 1))
    energy = np.linalg.norm(A, "fro") ** 2
    assert energy == pytest.approx(12 * 20, rel=1e-9)


def test_relu_zero_data_gives_zero_matrix():
    A = relu_features(np.zeros((2, 3)), np.ones((2, 4)))
    assert np.all(A == 0.0)


def test_relu_clips_negative_inner_products():
    X = np.array([[1.0, -1.0]])  # inner products -3 and 3 against w = -3
    W = np.array([[-3.0]])
    A = relu_features(X, W)
    assert A[0, 0] == 0.0
    assert A[1, 0] == 3.0


def test_relu_mirror_identity():
    gen = np.random.default_rng(0)
    X = gen.normal(size=(3, 6))
    W = gen.normal(size=(3, 8))
    mirrored = relu_features(X, W) + relu_features(-X, W)
    assert np.allclose(mirrored, np.abs(X.T @ W))


def test_dimension_mismatch_raises():
    with pytest.raises(InvalidArgumentError):
        fourier_features(np.zeros((3, 4)), np.zeros((2, 4)))
    with pytest.raises(InvalidArgumentError):
        relu_features(np.zeros((3, 4)), np.zeros((2, 4)))


def test_empty_inputs_raise():
    for X, W in ((np.zeros((3, 0)), np.zeros((3, 4))),
                 (np.zeros((3, 4)), np.zeros((3, 0))),
                 (np.zeros((0, 4)), np.zeros((0, 4)))):
        for kind in (FOURIER, RELU):
            with pytest.raises(InvalidArgumentError, match="at least 1x1"):
                build_features(X, W, kind)


def test_row_column_gram_symmetry_under_role_swap():
    # Swapping (m, N) and (gamma, sigma) swaps the roles of data and weights,
    # so the column Gram of one ensemble matches the row Gram of the other in
    # distribution; compare extreme-eigenvalue statistics over 200 trials.
    trials = 200
    m, n, gamma, sigma = 60, 12, 1.0, 0.6
    mins_a, maxs_a, mins_b, maxs_b = [], [], [], []
    for t in range(trials):
        _, _, A = random_features(3, m, n, gamma, sigma, split_stream(100, t))
        spec = gram_spectrum_via_svd(A, SIDE_COLUMNS)
        mins_a.append(spec.lambda_min)
        maxs_a.append(spec.lambda_max)
        _, _, B = random_features(3, n, m, sigma, gamma, split_stream(200, t))
        spec = gram_spectrum_via_svd(B, SIDE_ROWS)
        mins_b.append(spec.lambda_min)
        maxs_b.append(spec.lambda_max)
    for a, b in ((mins_a, mins_b), (maxs_a, maxs_b)):
        a, b = np.asarray(a), np.asarray(b)
        se = np.sqrt(a.var(ddof=1) / trials + b.var(ddof=1) / trials)
        assert abs(a.mean() - b.mean()) <= 3 * se
        assert abs(np.median(a) - np.median(b)) <= 3 * 1.2533 * se
