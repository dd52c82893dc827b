import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfcond.errors import InvalidArgumentError
from rfcond.features import block_ranges
from rfcond.sampling import (
    NOISE_NONE,
    GaussianColumns,
    NoiseModel,
    RngStream,
    gaussian_matrix,
    noise_vector,
    split_stream,
)
from rfcond.spectral import _GRAM_ENTRIES


def test_same_stream_replays_identically():
    s = split_stream(7, 0)
    a = gaussian_matrix(3, 2, 1.0, s)
    b = gaussian_matrix(3, 2, 1.0, s)
    assert np.array_equal(a, b)


def test_distinct_trial_ids_differ():
    a = gaussian_matrix(4, 4, 1.0, split_stream(7, 0))
    b = gaussian_matrix(4, 4, 1.0, split_stream(7, 1))
    assert not np.array_equal(a, b)


def test_substream_is_deterministic_and_distinct():
    s = split_stream(11, 5)
    assert s.substream(1) == s.substream(1)
    assert s.substream(1) != s.substream(2)
    assert s.substream(1, 2) != s.substream(2, 1)


def test_stream_validates_64_bit_range():
    with pytest.raises(InvalidArgumentError):
        RngStream(-1, 0)
    with pytest.raises(InvalidArgumentError):
        RngStream(0, 1 << 64)


def test_gaussian_matrix_argument_validation():
    s = split_stream(0, 0)
    with pytest.raises(InvalidArgumentError):
        gaussian_matrix(0, 3, 1.0, s)
    with pytest.raises(InvalidArgumentError):
        gaussian_matrix(3, -1, 1.0, s)
    with pytest.raises(InvalidArgumentError):
        gaussian_matrix(3, 3, 0.0, s)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _feature_major(rows, cols, variance, stream):
    # cols x rows normals from the stream's generator, transposed: one column
    # of the rows x cols matrix after another
    return stream.generator().normal(0.0, np.sqrt(variance), size=(cols, rows)).T


@pytest.mark.parametrize("rows, cols, variance, width", [
    (1, 1, 1.0, 1),
    (3, 17, 2.5, 5),          # a last block of 2 columns
    (7, 4097, 1e-4, 1000),    # a last block of 97 columns
    (50, 9000, 0.1, 4096),
    (2, 300, 7.0, 300),       # one block
])
def test_gaussian_columns_equal_gaussian_matrix_bitwise(rows, cols, variance, width):
    # W is gaussian_matrix(cols, rows).T, read block by block or whole
    stream = split_stream(5, 2)
    ref = _feature_major(rows, cols, variance, stream)
    assert np.array_equal(_bits(ref), _bits(gaussian_matrix(cols, rows, variance, stream).T))
    W = GaussianColumns(rows, cols, variance, stream)
    full = np.asarray(W)
    assert W.shape == full.shape == (rows, cols) and W.ndim == 2
    assert np.array_equal(_bits(full), _bits(ref))
    for i in range(0, cols, width):
        j = min(i + width, cols)
        assert np.array_equal(_bits(W[:, i:j]), _bits(ref[:, i:j]))
    assert np.array_equal(_bits(np.asarray(W)), _bits(ref))


def test_gaussian_columns_in_the_density_studys_blocks():
    # d = 50, m = 150, N = m log^3 m = 18870: the Gram reads 74 blocks of 256
    # columns, the last of 182
    d, m, n = 50, 150, 18_870
    stream = split_stream(0, 3).substream(2)
    ref = _feature_major(d, n, 1.0, stream)
    W = GaussianColumns(d, n, 1.0, stream)
    blocks = block_ranges(n, m, _GRAM_ENTRIES)
    assert len(blocks) == 74 and blocks[-1] == (18_688, n)
    read = np.hstack([W[:, i:j] for i, j in blocks])
    assert np.array_equal(_bits(read), _bits(ref))
    assert np.array_equal(_bits(np.asarray(W)), _bits(ref))


def test_gaussian_columns_refuse_reads_out_of_order():
    stream = split_stream(9, 1)
    full = _feature_major(4, 40, 1.0, stream)
    W = GaussianColumns(4, 40, 1.0, stream)
    for key in (np.s_[:, 5:10], np.s_[:, 0:0], np.s_[0:2, 0:10], np.s_[:, 0:10:2], 3):
        with pytest.raises(InvalidArgumentError):
            W[key]
    assert np.array_equal(W[:, :10], full[:, :10])
    for key in (np.s_[:, 5:15], np.s_[:, 0:10], np.s_[:, 12:20], np.s_[:, 10:10]):
        with pytest.raises(InvalidArgumentError):  # overlapping, repeated, gapped, empty
            W[key]
    assert np.array_equal(W[:, 10:], full[:, 10:])
    with pytest.raises(InvalidArgumentError):
        W[:, 39:40]
    assert np.array_equal(np.asarray(W), full)


def test_gaussian_columns_argument_validation():
    s = split_stream(0, 0)
    for rows, cols, variance in ((0, 3, 1.0), (3, -1, 1.0), (3, 3, 0.0)):
        with pytest.raises(InvalidArgumentError):
            GaussianColumns(rows, cols, variance, s)


def test_sample_mean_converges_at_root_n():
    # 3-sigma tolerance at n = 1e4 and 1e6 for the standard normal mean.
    for n, stream_id in ((10_000, 1), (1_000_000, 2)):
        draws = gaussian_matrix(n, 1, 1.0, split_stream(42, stream_id)).ravel()
        assert abs(draws.mean()) <= 3.0 / np.sqrt(n)


def test_sample_mean_large_n_within_spec_tolerance():
    draws = gaussian_matrix(1_000_000, 1, 1.0, split_stream(9, 0)).ravel()
    assert abs(draws.mean()) <= 3e-3


def test_sample_variance_matches_to_one_percent():
    draws = gaussian_matrix(1_000_000, 1, 0.1, split_stream(13, 0)).ravel()
    assert abs(draws.var() - 0.1) <= 0.001


def test_streams_are_uncorrelated():
    n = 100_000
    a = gaussian_matrix(n, 1, 1.0, split_stream(7, 0)).ravel()
    b = gaussian_matrix(n, 1, 1.0, split_stream(7, 1)).ravel()
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) <= 0.01


def test_noise_model_validation():
    with pytest.raises(InvalidArgumentError):
        NoiseModel("none", 0.5)
    with pytest.raises(InvalidArgumentError):
        NoiseModel("bounded_uniform", -1.0)
    with pytest.raises(InvalidArgumentError):
        NoiseModel("triangular", 1.0)


def test_noise_none_is_zero_vector():
    e = noise_vector(17, NOISE_NONE, split_stream(0, 0))
    assert np.array_equal(e, np.zeros(17))


@given(st.floats(min_value=1e-3, max_value=10.0), st.integers(min_value=1, max_value=200),
       st.integers(min_value=0, max_value=2**32))
def test_bounded_noise_respects_hard_bound(level, m, trial):
    e = noise_vector(m, NoiseModel("bounded_uniform", level), split_stream(1234, trial))
    assert np.abs(e).max() <= level


def test_gaussian_noise_l2_bound_with_stated_probability():
    # With m >= 2 log(1/delta) draws of N(0, nu^2), the aggregate noise level
    # ||e||_2 <= 2 nu sqrt(m) holds with probability at least 1 - delta; that
    # l2 form is what the risk bounds consume through ||e||_2 <= sqrt(m) E.
    delta = 0.05
    nu = 1.0
    m = int(np.ceil(2 * np.log(1 / delta)))
    trials = 10_000
    model = NoiseModel("gaussian", nu)
    hits = 0
    for t in range(trials):
        e = noise_vector(m, model, split_stream(77, t))
        hits += np.linalg.norm(e) <= 2 * nu * np.sqrt(m)
    assert hits / trials >= 1 - delta


def test_gaussian_noise_componentwise_rate_matches_normal_law():
    # Per-component check: P(|e_j| <= 2 nu) is the two-sided normal mass
    # 2 Phi(2) - 1 ~ 0.9545; Monte Carlo should land within 3 binomial SEs.
    trials = 20_000
    draws = noise_vector(trials, NoiseModel("gaussian", 1.0), split_stream(5, 0))
    p_hat = float(np.mean(np.abs(draws) <= 2.0))
    p = 0.9544997361036416
    se = np.sqrt(p * (1 - p) / trials)
    assert abs(p_hat - p) <= 3 * se


def test_noise_bound_used_by_risk_bounds():
    assert NoiseModel("bounded_uniform", 0.3).bound == 0.3
    assert NoiseModel("gaussian", 0.3).bound == 0.6
    assert NOISE_NONE.bound == 0.0
