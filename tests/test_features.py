import tracemalloc

import numpy as np
import pytest

from rfcond.errors import InvalidArgumentError, NumericalFailureError
from rfcond.features import (
    FOURIER,
    RELU,
    block_ranges,
    build_features,
    fourier_features,
    relu_features,
)
from rfcond.experiments import random_features, random_inputs
from rfcond.sampling import TAG_WEIGHTS, RngStream, split_stream
from rfcond.spectral import _GRAM_ENTRIES, gram_spectrum_via_svd, singular_values


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


@pytest.mark.parametrize("build", [fourier_features, relu_features])
def test_finite_inputs_whose_phase_overflows_raise(build):
    X, W = np.full((2, 3), 1e154), np.full((2, 4), -1e154)
    with pytest.raises(NumericalFailureError, match="feature phases overflow"):
        build(X, W)
    # huge but orthogonal X and W give a finite phase (0), which is not refused
    X, W = np.array([[1e200], [0.0]]), np.array([[0.0], [1e200]])
    assert np.array_equal(build(X, W), build(np.zeros((1, 1)), np.zeros((1, 1))))


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


def _bitwise_equal(a, b):
    # array_equal plus the sign bit, so -0.0 and 0.0 count as different
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.view(np.float64)), np.signbit(b.view(np.float64))))


def _within_an_ulp_of_long_double(A, phase):
    # the features of a float64 phase against cos and sin of that same phase
    # evaluated in long double: 2^-52 is one ulp at 1 (numpy's own exp reads
    # about half of it)
    exact = phase.astype(np.longdouble)
    return (np.abs(A.real - np.cos(exact)).max() <= 2.0**-52
            and np.abs(A.imag - np.sin(exact)).max() <= 2.0**-52)


@pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5])
def test_features_match_long_double_and_maximum_bitwise(scale):
    gen = np.random.default_rng(11)
    d, n_points, n = 5, 96, 40
    Z = gen.normal(size=(d, n_points)) * scale
    W = gen.normal(size=(d, n))
    # contiguous data, the column slices evaluate_model passes, a strided view
    for X in (Z, Z[:, 8:72], Z[:, 1:64], Z[:, ::3]):
        phase = X.T @ W
        assert _within_an_ulp_of_long_double(fourier_features(X, W), phase)
        assert _bitwise_equal(relu_features(X, W), np.maximum(0.0, phase))


def test_fourier_features_equal_exp_where_the_phase_is_not_reduced():
    # Below pi/4 the reduction leaves the phase as it is, and beyond
    # 2^19 pi/2, at +-inf and at nan it is skipped: those entries equal
    # exp(i * phase) bit for bit, also inside a chunk of reduced phases.
    gen = np.random.default_rng(13)
    quarter = np.pi / 4
    unreduced = np.concatenate([
        gen.uniform(-quarter, quarter, size=500), [0.0, -0.0, 1e-300, -5e-324],
        np.nextafter([quarter, -quarter], 0.0),
        [8.3e5, -1e6, 3.5e7, -1e15, 1e300, np.inf, -np.inf, np.nan]])
    phase = gen.normal(scale=3.5, size=4096 + 300)
    at = gen.choice(phase.size, size=unreduced.size, replace=False)
    phase[at] = unreduced
    X, W = phase[None, :], np.ones((1, 1))
    with np.errstate(invalid="ignore"):
        A = fourier_features(X, W)[:, 0]
        want = np.exp(1j * phase)
    got, want = A[at].view(np.float64), want[at].view(np.float64)
    # nan is nan whatever its sign bit; every other bit must agree
    number = ~np.isnan(want)
    assert np.array_equal(np.isnan(got), ~number)
    assert _bitwise_equal(got[number], want[number])
    finite = np.isfinite(phase)
    assert _within_an_ulp_of_long_double(A[finite], phase[finite])


def test_integer_inputs_give_float_features():
    # the phase is cast to float64 before it is written over in place
    X = np.array([[1, -1]])
    W = np.array([[-3]])
    assert relu_features(X, W).tolist() == [[0.0], [3.0]]
    assert _bitwise_equal(fourier_features(X, W), fourier_features(1.0 * X, 1.0 * W))


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_feature_construction_allocates_one_matrix_beyond_the_phase():
    # Fourier: the real phase (8 bytes per entry) and one complex matrix (16);
    # exp(1j * phase) needs a second complex temporary, 32 bytes per entry.
    # ReLU: the phase, clipped in place (8).
    gen = np.random.default_rng(12)
    m, n = 64, 2048
    X = gen.normal(size=(3, m))
    W = gen.normal(size=(3, n))
    assert _peak_bytes(fourier_features, X, W) <= 26 * m * n
    assert _peak_bytes(relu_features, X, W) <= 10 * m * n


def test_spectrum_from_features_holds_a_few_blocks_whatever_n():
    # singular_values builds one block of _GRAM_ENTRIES entries (256
    # features at m = 150) at a time: its phase (8 bytes per entry), the
    # features (16) and the conjugate the Gram product copies (16), beside
    # the m x m Gram and the block's product (0.6 MB together), so its peak
    # stays under four complex blocks, not the 16 * m * N bytes of A (45 MB
    # at the density study's N = 18870, 96 MB at N = 40000).
    m = 150
    peaks = []
    for n in (18_870, 20_000, 40_000):
        X, W = random_inputs(5, m, n, 1.0, 1.0, split_stream(8, 0))
        peaks.append(_peak_bytes(
            lambda X, W: singular_values(X, W, FOURIER), X, W))
    assert max(peaks) - min(peaks) <= 0.1 * min(peaks)
    assert max(peaks) <= 4 * 16 * _GRAM_ENTRIES


def test_density_trial_holds_a_few_blocks_whatever_n():
    # One density trial at d = 50, m = 150 draws X and a GaussianColumns
    # reader of W, as the protocol does, and passes them to singular_values.
    # Beside the blocks of the test above it holds X and one 50 x 256 block
    # of W, not the 8 * d * N bytes of W (7.5 MB at N = m log^3 m = 18870,
    # 16 MB at N = 40000).
    d, m = 50, 150
    random_inputs(1, 1, 1, 1.0, 1.0, split_stream(8, 1), weight_blocks=True)[1][:, 0:1]

    def one_trial(n):
        X, W = random_inputs(d, m, n, 1.0, 1.0, split_stream(8, 0), weight_blocks=True)
        singular_values(X, W, FOURIER)

    peaks = [_peak_bytes(one_trial, n) for n in (18_870, 40_000)]
    assert max(peaks) - min(peaks) <= 0.1 * min(peaks)
    assert max(peaks) <= 4 * 16 * _GRAM_ENTRIES + 8 * d * (m + _GRAM_ENTRIES // m)


class _CountingGenerator:
    """A numpy generator that counts the calls of its methods (its draws)."""

    def __init__(self, gen):
        self._gen, self.draws = gen, 0

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr

        def draw(*args, **kwargs):
            self.draws += 1
            return attr(*args, **kwargs)
        return draw


def test_density_trial_draws_w_from_one_generator_one_call_per_block(monkeypatch):
    # One density trial at N = m log^3 m (d = 50, m = 150) draws W from one
    # generator, one call per Gram block; a replay of a row-major W would make
    # a generator per row and a call per row and block.
    made = []
    real = RngStream.generator

    def counting(stream):
        made.append((stream, _CountingGenerator(real(stream))))
        return made[-1][1]

    monkeypatch.setattr(RngStream, "generator", counting)
    d, m, n = 50, 150, 18_870
    stream = split_stream(8, 0)
    X, W = random_inputs(d, m, n, 1.0, 1.0, stream, weight_blocks=True)
    singular_values(X, W, FOURIER)
    weights = [gen for s, gen in made if s == stream.substream(TAG_WEIGHTS)]
    assert len(weights) == 1
    assert weights[0].draws == len(block_ranges(n, m, _GRAM_ENTRIES)) == 74


def test_row_column_gram_symmetry_under_role_swap():
    # Swapping (m, N) and (gamma, sigma) swaps the roles of data and weights,
    # so the column Gram of one ensemble matches the row Gram of the other in
    # distribution; compare extreme-eigenvalue statistics over 200 trials.
    trials = 200
    m, n, gamma, sigma = 60, 12, 1.0, 0.6
    mins_a, maxs_a, mins_b, maxs_b = [], [], [], []
    for t in range(trials):
        _, _, A = random_features(3, m, n, gamma, sigma, split_stream(100, t))
        spec = gram_spectrum_via_svd(A)
        mins_a.append(spec.lambda_min)
        maxs_a.append(spec.lambda_max)
        _, _, B = random_features(3, n, m, sigma, gamma, split_stream(200, t))
        spec = gram_spectrum_via_svd(B)
        mins_b.append(spec.lambda_min)
        maxs_b.append(spec.lambda_max)
    for a, b in ((mins_a, mins_b), (maxs_a, maxs_b)):
        a, b = np.asarray(a), np.asarray(b)
        se = np.sqrt(a.var(ddof=1) / trials + b.var(ddof=1) / trials)
        assert abs(a.mean() - b.mean()) <= 3 * se
        assert abs(np.median(a) - np.median(b)) <= 3 * 1.2533 * se
