import tracemalloc
from collections import Counter
from itertools import combinations
from math import ceil, comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfcond import cli, spectral
from rfcond.errors import EnumerationBudgetError, InvalidArgumentError, NumericalFailureError
from rfcond.experiments import random_features, random_inputs
from rfcond.features import FOURIER, RELU, build_features
from rfcond.sampling import split_stream
from rfcond.spectral import (
    _GRAM_ENTRIES,
    _STACK,
    _SupportWalk,
    _norm_bound,
    gram_spectrum_via_svd,
    rip_constant_exact,
    rip_constant_lower_mc,
    singular_values,
    spectral_density,
)


def _random_fourier(d, m, n, seed, gamma=1.0, sigma=1.0):
    _, _, A = random_features(d, m, n, gamma, sigma, split_stream(seed, 0))
    return A


def _index_inputs(A, monkeypatch):
    """Feature inputs whose feature map is A itself: X and W hold row and
    column indices, and `spectral.build_features` returns their block of A."""
    m, n = A.shape

    def block(X, W, kind):
        return A[np.ix_(X[0].astype(int), W[0].astype(int))]

    monkeypatch.setattr(spectral, "build_features", block)
    return np.arange(m, dtype=float)[None, :], np.arange(n, dtype=float)[None, :], FOURIER


def test_single_fourier_column_has_unit_eigenvalue():
    A = _random_fourier(3, 20, 1, 1)
    spec = gram_spectrum_via_svd(A)
    assert spec.eigenvalues.shape == (1,)
    assert spec.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert spec.cond_number == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_equal_norm_columns_give_flat_spectrum():
    entries = np.sqrt(3) * np.eye(4, dtype=complex)[:, :3]
    spec = gram_spectrum_via_svd(entries)
    assert np.allclose(spec.eigenvalues, spec.eigenvalues[0])


def test_singular_values_identity_and_diagonal(monkeypatch):
    assert np.allclose(singular_values(*_index_inputs(np.eye(3), monkeypatch)), [1, 1, 1])
    assert np.allclose(singular_values(*_index_inputs(np.diag([3.0, 4.0]), monkeypatch)), [3, 4])
    assert np.allclose(gram_spectrum_via_svd(np.diag([3.0, 4.0])).eigenvalues, [9 / 2, 16 / 2])


def test_singular_values_square_against_gram_oracle(monkeypatch):
    gen = np.random.default_rng(0)
    M = gen.normal(size=(20, 5)) + 1j * gen.normal(size=(20, 5))
    sv = singular_values(*_index_inputs(M, monkeypatch))
    eigs = np.sort(np.linalg.eigvalsh(M.conj().T @ M))
    rel = np.abs(sv**2 - eigs) / eigs[-1]
    assert rel.max() <= 1e-8


def test_condition_number_examples():
    def cond(M):
        return gram_spectrum_via_svd(M).cond_number

    assert cond(np.eye(4)) == pytest.approx(1.0)
    assert cond(np.diag([1.0, 10.0])) == pytest.approx(10.0)
    assert cond(np.zeros((3, 3))) == float("inf")
    rank_def = np.outer(np.ones(4), np.ones(3))
    assert cond(rank_def) == float("inf")


def test_gram_spectrum_matches_singular_values_cross_oracle():
    X, W, A = random_features(3, 15, 8, 1.0, 1.0, split_stream(5, 0))
    eigs = np.sort(np.linalg.eigvalsh(A.conj().T @ A) / 15)
    sv = singular_values(X, W, FOURIER)
    assert np.all(eigs >= -1e-9)
    rel = np.abs(np.sort(sv**2 / 15) - eigs) / eigs[-1]
    assert rel.max() <= 1e-8


def _matrix_with_cond(m, n, cond, dtype, seed):
    """An m x n matrix whose singular values run geometrically from 1 to `cond`."""
    gen = np.random.default_rng(seed)
    k = min(m, n)

    def orthonormal(rows):
        Z = gen.normal(size=(rows, k))
        if dtype is complex:
            Z = Z + 1j * gen.normal(size=(rows, k))
        return np.linalg.qr(Z)[0]

    return (orthonormal(m) * np.geomspace(1.0, cond, k)) @ orthonormal(n).conj().T


def _counting_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls, svd


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("m, n", [(12, 40), (40, 12)])
# sigma_max / sigma_min = 990 puts lambda_min / lambda_max just above _GRAM_GATE.
@pytest.mark.parametrize("cond, rtol", [(1.0, 1e-12), (10.0, 1e-12), (990.0, 2e-10)])
def test_gram_route_agrees_with_the_svd(m, n, dtype, cond, rtol, monkeypatch):
    A = _matrix_with_cond(m, n, cond, dtype, seed=m + 7 * n)
    inputs = _index_inputs(A, monkeypatch)
    calls, svd = _counting_svd(monkeypatch)
    sv = singular_values(*inputs)
    assert calls == []  # the Gram's eigenvalues passed the gate
    oracle = np.sort(svd(A, compute_uv=False))
    assert sv.shape == oracle.shape
    assert np.all(np.abs(sv - oracle) <= rtol * oracle)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("m, n", [(12, 40), (40, 12), (25, 25)])
@pytest.mark.parametrize("cond", [1.1e3, 1e8])
def test_ill_conditioned_input_gets_the_svd_values_exactly(m, n, dtype, cond, monkeypatch):
    A = _matrix_with_cond(m, n, cond, dtype, seed=m + 5 * n)
    want = np.sort(np.linalg.svd(A, compute_uv=False))
    assert np.array_equal(singular_values(*_index_inputs(A, monkeypatch)), want)


@pytest.mark.parametrize("dtype", [float, complex])
def test_square_input_gets_the_svd_values_exactly(dtype, monkeypatch):
    A = _matrix_with_cond(25, 25, 1.0, dtype, seed=11)
    want = np.sort(np.linalg.svd(A, compute_uv=False))
    inputs = _index_inputs(A, monkeypatch)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)  # no Gram is formed or solved
    assert np.array_equal(singular_values(*inputs), want)


def test_overflowing_gram_falls_back_to_the_svd_without_warnings(monkeypatch):
    A = 1e200 * _matrix_with_cond(6, 9, 2.0, complex, seed=3)
    sv = singular_values(*_index_inputs(A, monkeypatch))  # RuntimeWarnings are errors here
    assert np.array_equal(sv, np.sort(np.linalg.svd(A, compute_uv=False)))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("m, n", [(12, 40), (40, 12), (25, 25)])
def test_built_matrix_spectrum_is_the_svd_bit_for_bit(m, n, dtype):
    # well conditioned, so a Gram would pass the gate; a built A is factored
    # by its SVD all the same
    A = _matrix_with_cond(m, n, 2.0, dtype, seed=m + 3 * n)
    want = np.sort(np.linalg.svd(A, compute_uv=False)) / np.sqrt(max(m, n))
    assert np.array_equal(gram_spectrum_via_svd(A).eigenvalues, want**2)


def _feature_inputs(d, m, n, seed):
    return random_inputs(d, m, n, 1.0, 1.0, split_stream(seed, 0))


def _recording_builds(monkeypatch):
    """The shapes of the matrices `singular_values` builds from features."""
    shapes = []

    def recording(X, W, kind):
        shapes.append((X.shape[1], W.shape[1]))
        return build_features(X, W, kind)

    monkeypatch.setattr(spectral, "build_features", recording)
    return shapes


@pytest.mark.parametrize("kind", [FOURIER, RELU])
@pytest.mark.parametrize("m, n", [(20, 300), (300, 20)])
def test_one_block_gram_from_features_is_bitwise_the_gram_of_a(kind, m, n):
    X, W = _feature_inputs(5, m, n, seed=m + n)
    A = build_features(X, W, kind)
    want = np.sqrt(np.linalg.eigvalsh(A @ A.conj().T if m < n else A.conj().T @ A))
    assert np.array_equal(singular_values(X, W, kind), want)


# 1280 features (or samples) per block when the shorter side of A is 30
_BLOCK_AT_30 = _GRAM_ENTRIES // 30


@pytest.mark.parametrize("kind", [FOURIER, RELU])
@pytest.mark.parametrize("m, n", [(30, 8 * _BLOCK_AT_30 + 500), (8 * _BLOCK_AT_30 + 500, 30)])
def test_gram_summed_over_blocks_agrees_with_the_svd(kind, m, n, monkeypatch):
    X, W = _feature_inputs(20, m, n, seed=7)
    A = build_features(X, W, kind)
    oracle = np.sort(np.linalg.svd(A, compute_uv=False))
    calls, _ = _counting_svd(monkeypatch)
    shapes = _recording_builds(monkeypatch)
    sv = singular_values(X, W, kind)
    assert calls == []  # the summed Gram passed the gate
    # nine blocks along the longer side, never A in full
    assert [max(shape) for shape in shapes] == 8 * [_BLOCK_AT_30] + [500]
    assert all(min(shape) == 30 for shape in shapes)
    assert np.all(np.abs(sv - oracle) <= 1e-13 * oracle)


@pytest.mark.parametrize("kind", [FOURIER, RELU])
@pytest.mark.parametrize("m, n", [(20, 40), (60, 10), (25, 25)])
def test_rank_deficient_or_square_features_get_the_svd_values_exactly(kind, m, n,
                                                                       monkeypatch):
    # wide and tall: W repeats its columns, so the smaller Gram is singular
    # and fails the gate; square: the Gram is never formed
    X, W = _feature_inputs(5, m, n, seed=3)
    if m != n:
        W = W[:, np.arange(n) % (min(m, n) // 2)]
    A = build_features(X, W, kind)
    want = np.sort(np.linalg.svd(A, compute_uv=False))
    assert np.array_equal(gram_spectrum_via_svd(A).eigenvalues, (want / np.sqrt(max(m, n)))**2)
    shapes = _recording_builds(monkeypatch)
    if m == n:
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
    assert np.array_equal(singular_values(X, W, kind), want)
    assert shapes[-1] == (m, n)  # the fallback builds A in full


def test_singular_values_checks_the_ambient_dimension():
    X, W = _feature_inputs(3, 4, 6, seed=0)
    with pytest.raises(InvalidArgumentError, match="ambient dimension"):
        singular_values(X, W[:2], FOURIER)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("shape", [(5, 9), (9, 5)])
def test_non_finite_input_raises_numerical_failure(bad, shape, monkeypatch):
    A = _matrix_with_cond(*shape, 2.0, complex, seed=4)
    A[2, 3] = bad
    with pytest.raises(NumericalFailureError, match="SVD failed"):
        gram_spectrum_via_svd(A)
    with pytest.raises(NumericalFailureError, match="SVD failed"):
        singular_values(*_index_inputs(A, monkeypatch))


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


@pytest.mark.parametrize("call, message", [
    (lambda An: rip_constant_exact(An, 0), r"s must be in \[1, 5\], got 0"),
    (lambda An: rip_constant_exact(An, 6), r"s must be in \[1, 5\], got 6"),
    (lambda An: rip_constant_lower_mc(An, 0, 5, split_stream(0, 0)),
     r"s must be in \[1, 5\], got 0"),
    (lambda An: rip_constant_lower_mc(An, 6, 5, split_stream(0, 0)),
     r"s must be in \[1, 5\], got 6"),
    (lambda An: rip_constant_lower_mc(An, 2, 0, split_stream(0, 0)), "trials must be >= 1"),
], ids=["exact-s-0", "exact-s-above-n", "mc-s-0", "mc-s-above-n", "mc-trials-0"])
def test_rip_refuses_s_out_of_range_and_no_trials(call, message):
    with pytest.raises(InvalidArgumentError, match=message):
        call(_random_fourier(2, 12, 5, 11) / np.sqrt(12))


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


def test_rip_mc_counts_distinct_supports():
    A = _random_fourier(2, 12, 8, 13)
    An = A / np.sqrt(12)
    # one support exists at s = N; eight at s = 1
    full = rip_constant_lower_mc(An, 8, 5, split_stream(0, 0))
    assert full.supports_evaluated == 1
    assert full.value == pytest.approx(rip_constant_exact(An, 8).value, abs=1e-12)
    assert rip_constant_lower_mc(An, 1, 25, split_stream(0, 0)).supports_evaluated <= 8


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


def _h_matrix(M):
    """H = (A*A - I + (A*A - I)*)/2, formed as the exact walk forms it."""
    H = M.conj().T @ M
    H[np.diag_indices_from(H)] -= 1.0
    return 0.5 * (H + H.conj().T)


def _column_gram(M, cols):
    """The support Gram (G + G*)/2, G = A_S* A_S - I, from the columns of S."""
    sub = M[:, cols]
    G = sub.conj().T @ sub
    G[np.diag_indices_from(G)] -= 1.0
    return 0.5 * (G + G.conj().T)


def _loop_support_deviation(M, cols, H=None):
    """The per-support reference: one Gram and one eigvalsh call per support.
    The Gram is read from H when it is given, and formed from columns if not."""
    G = _column_gram(M, cols) if H is None else H[np.ix_(cols, cols)]
    eigs = np.linalg.eigvalsh(G)
    return float(max(-eigs[0], eigs[-1]))


def _loop_rip_exact(M, s, from_h=None):
    """Full enumeration with the exact walk's Gram source: H when its tables
    get a depth (s >= 2 at the default budget), the columns when not."""
    H = _h_matrix(M) if (s > 1 if from_h is None else from_h) else None
    best = 0.0
    for cols in combinations(range(M.shape[1]), s):
        best = max(best, _loop_support_deviation(M, np.asarray(cols), H))
    return best


def _loop_rip_mc(M, s, trials, stream):
    gen = stream.generator()
    best, seen = 0.0, set()
    for _ in range(trials):
        cols = np.sort(gen.choice(M.shape[1], size=s, replace=False))
        if cols.tobytes() not in seen:
            seen.add(cols.tobytes())
            best = max(best, _loop_support_deviation(M, cols))
    return best, len(seen)


# (N, s): s = 1 and s = N; C(N, s) below, equal to, one above and a multiple of _STACK.
_STACK_CASES = [(8, 1), (8, 8), (8, 3), (10, 4), (_STACK, 1), (_STACK, _STACK - 1),
                (_STACK + 1, 1), (_STACK + 1, _STACK), (2 * _STACK, 1),
                (2 * _STACK, 2 * _STACK - 1)]


@pytest.mark.parametrize("kind", [FOURIER, RELU])
def test_rip_stacks_match_per_support_loop_bitwise(kind):
    for n, s in _STACK_CASES:
        _, _, A = random_features(3, 30, n, 1.0, 1.0, split_stream(n, s), kind)
        M = A / np.sqrt(30)
        est = rip_constant_exact(M, s)
        assert (est.value, est.supports_evaluated) == (_loop_rip_exact(M, s), comb(n, s)), (n, s)
    _, _, A = random_features(3, 30, 12, 1.0, 1.0, split_stream(5, 0), kind)
    M = A / np.sqrt(30)
    # distinct draws: at most N at s = 1, one at s = N, more than one stack at s = 4, 5
    for s, trials in [(1, 25), (4, 150), (12, 5), (5, 3 * _STACK)]:
        mc = rip_constant_lower_mc(M, s, trials, split_stream(7, s))
        ref = _loop_rip_mc(M, s, trials, split_stream(7, s))
        assert (mc.value, mc.supports_evaluated) == ref, (s, trials)
        assert s not in (4, 5) or mc.supports_evaluated > _STACK


def _recording_eigvalsh(monkeypatch):
    stacks = []
    eigvalsh = np.linalg.eigvalsh

    def recording(G):
        stacks.append(G.shape[0])
        return eigvalsh(G)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return stacks


# (N, s, seed).  Near s = N the walk reaches many small leaf blocks: evaluated one
# block at a time, (14, 11) and (18, 15) at seed 9 took 7 and 15 calls against 6
# and 13 stacks.
_CALL_CASES = [(8, 1, 21), (8, 3, 21), (_STACK, 1, 21), (_STACK + 1, 1, 21), (12, 4, 21),
               (14, 5, 21), (14, 11, 9), (18, 15, 9)]


@pytest.mark.parametrize("n, s, seed, method", [
    *(pytest.param(n, s, seed, "exact", id=f"{n}-{s}") for n, s, seed in _CALL_CASES),
    *(pytest.param(n, s, seed, "mc", id=f"{n}-{s}-mc") for n, s, seed in _CALL_CASES)])
def test_rip_enumeration_makes_one_eigvalsh_call_per_stack(n, s, seed, method, monkeypatch):
    # At most one call per stack: supports the norm bound settles are not eigensolved,
    # and the rest fill full stacks, carried across leaf blocks, so only the last
    # call can be partial.  The exact count is over all C(n, s) supports, the
    # randomized one over the distinct supports drawn.
    An = _random_fourier(2, 30, n, seed) / np.sqrt(30)
    stacks = _recording_eigvalsh(monkeypatch)
    if method == "exact":
        est = rip_constant_exact(An, s)
        assert est.supports_evaluated == comb(n, s)
    else:
        est = rip_constant_lower_mc(An, s, 3 * _STACK, split_stream(21, s))
    assert len(stacks) <= ceil(est.supports_evaluated / _STACK)
    assert max(stacks) <= _STACK and set(stacks[:-1]) <= {_STACK}
    assert sum(stacks) + est.supports_pruned == est.supports_evaluated
    assert (n, s) not in [(12, 4), (14, 5)] or est.supports_pruned > 0


def _assert_pruning_matches_loop(M, s, trials):
    """Exact and MC estimates equal the per-support loop bit for bit."""
    est = rip_constant_exact(M, s)
    assert est.value == _loop_rip_exact(M, s), s
    mc = rip_constant_lower_mc(M, s, trials, split_stream(3, s))
    assert (mc.value, mc.supports_evaluated) == _loop_rip_mc(M, s, trials, split_stream(3, s)), s
    return est, mc


def test_rip_pruning_keeps_exact_ties_bitwise():
    # duplicated and negated columns: many supports share one deviation exactly
    B = _random_fourier(2, 20, 4, 31) / np.sqrt(20)
    M = np.concatenate([B, B, -B], axis=1)
    pruned = 0
    for s in (2, 3, 4):
        est, mc = _assert_pruning_matches_loop(M, s, 3 * _STACK)
        pruned += est.supports_pruned + mc.supports_pruned
    assert pruned > 0


def test_rip_pruning_with_column_norms_from_1e_minus_3_to_1e3():
    _, _, A = random_features(3, 30, 12, 1.0, 1e3, split_stream(32, 0), RELU)
    scale = np.random.default_rng(0).permutation(np.logspace(-3, 3, 12))
    M = A * (scale / np.linalg.norm(A, axis=0))
    pruned = 0
    for s in (2, 3, 5):
        est, mc = _assert_pruning_matches_loop(M, s, 3 * _STACK)
        pruned += est.supports_pruned + mc.supports_pruned
    assert pruned > 0


def test_rip_prunes_nothing_at_round_off_level_and_at_s_equal_n():
    # s = 1 Fourier deviations are ~1e-16; the margin keeps every support
    M = _random_fourier(2, 30, 2 * _STACK + 1, 33) / np.sqrt(30)
    est, mc = _assert_pruning_matches_loop(M, 1, 4 * _STACK)
    assert est.supports_pruned == mc.supports_pruned == 0
    for kind in (FOURIER, RELU):
        _, _, A = random_features(3, 30, 9, 1.0, 1.0, split_stream(34, 0), kind)
        est, mc = _assert_pruning_matches_loop(A / np.sqrt(30), 9, 3)
        assert est.supports_pruned == mc.supports_pruned == 0


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=6),
       st.sampled_from(["dense", "rank1", "diagonal"]),
       st.integers(min_value=-12, max_value=12), st.integers(min_value=0, max_value=2**32))
def test_norm_bound_is_at_least_the_eigvalsh_deviation(s, b, shape, log_scale, seed):
    gen = np.random.default_rng(seed)
    Z = gen.normal(size=(b, s, s)) + 1j * gen.normal(size=(b, s, s))
    if shape == "rank1":
        Z = Z[:, :, :1] @ np.swapaxes(Z[:, :, :1], -1, -2).conj()
    elif shape == "diagonal":
        Z = Z * np.eye(s)
    G = 10.0**log_scale * 0.5 * (Z + np.swapaxes(Z, -1, -2).conj())
    eigs = np.linalg.eigvalsh(G)
    dev = np.maximum(-eigs[:, 0], eigs[:, -1])
    bound = _norm_bound(G)
    # equality cases (rank one: Frobenius; diagonal: row sum) differ by rounding only
    assert np.all(dev <= bound * (1 + 16 * s * np.finfo(float).eps))


def test_rip_eigensolver_failure_exits_3(tmp_path, capsys, monkeypatch):
    def failing(G):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    An = _random_fourier(2, 30, 8, 22) / np.sqrt(30)
    with pytest.raises(NumericalFailureError, match="eigendecomposition failed"):
        rip_constant_exact(An, 2)
    rc = cli.main(["rip", "--d", "2", "--m", "30", "--n-grid", "8", "--s", "3",
                   "--method", "exact", "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    assert "eigendecomposition failed" in capsys.readouterr().err
    assert not (tmp_path / "rip.json").exists()


def test_rip_non_finite_entry_raises_numerical_failure():
    An = _random_fourier(2, 30, 8, 23) / np.sqrt(30)
    An[4, 5] = np.nan
    with pytest.raises(NumericalFailureError, match="non-finite"):
        rip_constant_exact(An, 2)
    # at s = N the eigensolver itself gives up on the NaN Gram
    with pytest.raises(NumericalFailureError):
        rip_constant_lower_mc(An, 8, 3, split_stream(0, 0))


def _tied_instance(kind, n, tie, seed):
    """n columns in a seeded order; "duplicate" and "negate" repeat or negate
    some of them, so that many supports share one deviation exactly."""
    base = n if tie == "none" else (n + 1) // 2
    _, _, A = random_features(2, 20, base, 1.0, 1.0, split_stream(seed, n), kind)
    M = A / np.sqrt(20)
    if tie != "none":
        M = np.concatenate([M, M[:, : n - base] * (1.0 if tie == "duplicate" else -1.0)], axis=1)
    return M[:, np.random.default_rng(seed).permutation(n)]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([FOURIER, RELU]), st.integers(min_value=1, max_value=12),
       st.sampled_from(["none", "duplicate", "negate"]), st.integers(min_value=0, max_value=2**32))
def test_rip_walk_matches_per_support_loop_bitwise(kind, n, tie, seed):
    M = _tied_instance(kind, n, tie, seed)
    for s in range(1, n + 1):
        est = rip_constant_exact(M, s)
        assert est.value == _loop_rip_exact(M, s), s
        assert est.supports_evaluated == comb(n, s)
        assert est.supports_gathered <= comb(n, s) <= est.supports_pruned + est.supports_gathered


def _leaf_bounds(H, B, S):
    """Per-support bounds of support S: the max row sum of B's S x S block,
    and `_norm_bound` of the support Gram the leaves read from H."""
    return B[np.ix_(S, S)].sum(axis=1).max(), _norm_bound(H[np.ix_(S, S)][None])[0]


@pytest.mark.parametrize("scaled", [False, True])
def test_prefix_bound_is_at_least_every_completions_row_sum_bound(scaled):
    n, s = 9, 4
    _, _, A = random_features(3, 30, n, 1.0, 1.0, split_stream(35, 0), RELU)
    M = A / np.sqrt(30)
    if scaled:  # column norms from 1e-3 to 1e3
        M = A * (np.logspace(-3, 3, n) / np.linalg.norm(A, axis=0))
    walk = _SupportWalk(M, s, 10**6)
    assert walk.depth == s - 1
    H = _h_matrix(M)
    checked = 0
    for j in range(1, s):
        for prefix in combinations(range(n - s + j), j):
            rows = walk.B[list(prefix)].sum(axis=0)
            bound = walk.prefix_bound(np.array([prefix]), rows[None])[0]
            for rest in combinations(range(prefix[-1] + 1, n), s - j):
                row_sum, leaf = _leaf_bounds(H, walk.B, np.array(prefix + rest))
                assert max(row_sum, leaf) <= bound * (1 + 1e-12), (prefix, rest)
                checked += 1
    assert checked > comb(n, s)


def test_rip_walk_holds_one_bounded_block_per_depth(monkeypatch):
    held, blocks = Counter(), []
    descend = _SupportWalk.descend

    def recording(self, prefixes, rows):
        depth = prefixes.shape[1]
        held[depth] += 1
        blocks.append((depth, len(prefixes), held[depth]))
        try:
            descend(self, prefixes, rows)
        finally:
            held[depth] -= 1

    monkeypatch.setattr(_SupportWalk, "descend", recording)
    M = _random_fourier(2, 30, 20, 36) / np.sqrt(30)
    assert rip_constant_exact(M, 5).value == _loop_rip_exact(M, 5)
    assert max(b[1] for b in blocks) <= spectral._BLOCK
    assert max(b[2] for b in blocks) == 1
    # small blocks: several per depth, still one held at a time
    blocks.clear()
    monkeypatch.setattr(spectral, "_BLOCK", 8)
    M = _random_fourier(2, 30, 12, 37) / np.sqrt(30)
    assert rip_constant_exact(M, 5).value == _loop_rip_exact(M, 5)
    assert max(b[1] for b in blocks) <= 8 and max(b[2] for b in blocks) == 1
    assert max(Counter(b[0] for b in blocks).values()) > 1


@pytest.mark.parametrize("kind", [FOURIER, RELU])
def test_rip_walk_edge_sizes(kind):
    # N = 1, and s = N - 1 and s = N, where the walk is a chain of prefixes
    _, _, A = random_features(2, 30, 1, 1.0, 1.0, split_stream(38, 0), kind)
    est = rip_constant_exact(A / np.sqrt(30), 1)
    assert (est.value, est.supports_evaluated, est.supports_gathered) == (
        _loop_rip_exact(A / np.sqrt(30), 1), 1, 1)
    _, _, A = random_features(2, 30, 9, 1.0, 1.0, split_stream(39, 0), kind)
    M = A / np.sqrt(30)
    for s in (8, 9):
        est = rip_constant_exact(M, s)
        assert est.value == _loop_rip_exact(M, s)
        assert est.supports_evaluated == comb(9, s)
    assert est.supports_gathered == 1  # s = N: the one support is never skipped


def test_rip_walk_bounds_only_the_lengths_its_tables_fit_in_the_budget():
    # N = 12, s = 3: B and the tables hold (1 + depth) * 144 entries.  At depth 0
    # no H is formed and the leaves multiply columns.
    M = _random_fourier(2, 30, 12, 40) / np.sqrt(30)
    for budget, depth in [(comb(12, 3), 0), (300, 1), (10**6, 2)]:
        assert _SupportWalk(M, 3, budget).depth == depth
        est = rip_constant_exact(M, 3, budget)
        assert est.value == _loop_rip_exact(M, 3, from_h=depth > 0)
        assert depth or est.supports_gathered == comb(12, 3)
    assert est.supports_gathered < comb(12, 3)


@pytest.mark.parametrize("kind, d, m, norms", [
    pytest.param(FOURIER, 10, 300, None, id="fourier-delta-below-1"),
    pytest.param(FOURIER, 2, 30, None, id="fourier"),
    pytest.param(RELU, 3, 30, None, id="relu"),
    pytest.param(RELU, 3, 30, (-3, 3), id="relu-norms-1e-3-to-1e3")])
def test_rip_from_h_is_within_the_rounding_tolerance_of_columns(kind, d, m, norms):
    # Both Grams of a support are within about m*eps*||a_i||*||a_j|| per entry of
    # the exact one, so delta_s moves by at most 2*s*m*eps*max(1, max ||a_j||^2).
    n = 12
    _, _, A = random_features(d, m, n, 1.0, 1.0, split_stream(43, d), kind)
    M = A / np.sqrt(m)
    if norms is not None:
        M = A * (np.logspace(*norms, n) / np.linalg.norm(A, axis=0))
    max_sq = max(1.0, float((np.abs(M) ** 2).sum(axis=0).max()))
    for s in range(2, 6):
        est = rip_constant_exact(M, s)
        assert est.value == _loop_rip_exact(M, s, from_h=True)
        columns = _loop_rip_exact(M, s, from_h=False)
        assert abs(est.value - columns) <= 2 * s * m * np.finfo(float).eps * max_sq, s
    assert d != 10 or est.value < 1  # delta_5 < 1, the regime of the paper's RIP argument


def test_rip_walk_settles_complete_supports_by_their_row_sums_where_delta_is_below_1():
    # The CI instance of `rip --d 10 --m 300 --n-grid 30 --seed 0`.  Subtree bounds
    # stay above delta_4 to the last index, but most complete supports' own max
    # row sums of B lie below it: those are settled without reading their Grams.
    M = _random_fourier(10, 300, 30, 0) / np.sqrt(300)
    est = rip_constant_exact(M, 4)
    assert est.value == _loop_rip_exact(M, 4) < 1
    assert est.supports_gathered <= comb(30, 4) // 20


def test_rip_budget_error_comes_before_the_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("the walk was started")

    monkeypatch.setattr(spectral, "_SupportWalk", no_walk)
    A = _random_fourier(2, 10, 30, 10)
    with pytest.raises(EnumerationBudgetError):
        rip_constant_exact(A / np.sqrt(10), 15, budget=1000)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_rip_walk_never_skips_a_non_finite_column(value):
    # The bad column is first, in the middle or last; every s >= 2 reaches it.
    for col in (0, 4, 8):
        M = _random_fourier(2, 30, 9, 41) / np.sqrt(30)
        M[3, col] = value
        for s in range(2, 10):
            with pytest.raises(NumericalFailureError):
                rip_constant_exact(M, s)


def test_seed_threshold_is_a_lower_bound_without_eigensolves(monkeypatch):
    M = _random_fourier(2, 30, 16, 42) / np.sqrt(30)
    exact = [rip_constant_exact(M, s).value for s in range(2, 7)]
    stacks = _recording_eigvalsh(monkeypatch)
    seeds = [_SupportWalk(M, s, 10**6).threshold for s in range(2, 7)]
    assert stacks == []
    assert all(0 < t <= v for t, v in zip(seeds, exact))
    assert all(t >= 0.5 * v for t, v in zip(seeds, exact))


def test_band_membership_caps_full_rip_constant():
    # If every eigenvalue of (1/m)A*A lies in [1-t, 1+t] then delta_N <= t by
    # definition; the exact enumerator must agree to round-off.
    A = _random_fourier(3, 40, 5, 14)
    spec = gram_spectrum_via_svd(A)
    t = max(spec.lambda_max - 1.0, 1.0 - spec.lambda_min)
    est = rip_constant_exact(A / np.sqrt(40), 5)
    assert est.value <= t + 1e-10


def test_svd_route_agrees_with_eigendecomposition_route():
    # The spectrum is that of the smaller Gram over max(m, N): (1/m)A*A for a
    # tall or square A, (1/N)AA* for a wide one.
    for m, n, seed in ((12, 7, 16), (10, 10, 18), (4, 9, 17)):
        A = _random_fourier(3, m, n, seed)
        G = A.conj().T @ A if n <= m else A @ A.conj().T
        a = np.linalg.eigvalsh(G) / max(m, n)
        b = gram_spectrum_via_svd(A)
        assert a.shape == b.eigenvalues.shape == (min(m, n),)
        assert np.abs(a - b.eigenvalues).max() / a[-1] <= 1e-8
        assert b.lambda_min == b.eigenvalues[0] and b.lambda_max == b.eigenvalues[-1]
        assert b.cond_number == pytest.approx(np.sqrt(a[-1] / a[0]), rel=1e-6)


@pytest.mark.parametrize("m, n", [(12, 7), (7, 12), (9, 9)])
def test_given_singular_values_give_the_same_spectrum(m, n):
    # The sweep passes the singular values of its lstsq solve.
    A = _random_fourier(3, m, n, m + n)
    lstsq_sv = np.linalg.lstsq(A, np.ones(m), rcond=None)[3][::-1]
    got, want = gram_spectrum_via_svd(A, lstsq_sv), gram_spectrum_via_svd(A)
    assert np.all(np.abs(got.eigenvalues - want.eigenvalues) <= 1e-8 * want.eigenvalues)
    for attr in ("lambda_min", "lambda_max", "cond_number"):
        assert getattr(got, attr) == pytest.approx(getattr(want, attr), rel=1e-8)


@pytest.mark.parametrize("length", [6, 8, 12])
def test_wrong_number_of_singular_values_raises(length):
    A = _random_fourier(2, 12, 7, 3)
    with pytest.raises(InvalidArgumentError, match="expected 7"):
        gram_spectrum_via_svd(A, np.ones(length))


def test_density_single_value_is_symmetric_peak():
    curve = spectral_density([2.0])
    peak = curve.grid[np.argmax(curve.density)]
    half_step = 0.5 * (curve.grid[1] - curve.grid[0])
    assert abs(peak - 2.0) <= half_step * (1 + 1e-9)
    assert curve.density.max() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(curve.density, curve.density[::-1], atol=1e-9)


@pytest.mark.parametrize("n", [1, 10, 11, 41, 150, 410, 1500, 7520])
def test_density_equals_the_one_shot_kernel_sum_bitwise(n):
    # the kernel sums over row blocks of the grid equal the 512 x n formula
    v = np.random.default_rng(n).gamma(2.0, size=n)
    curve = spectral_density(v)
    h = curve.bandwidth
    grid = np.linspace(v.min() - 3 * h, v.max() + 3 * h, 512)
    z = (grid[:, None] - v[None, :]) / h
    dens = np.exp(-0.5 * z**2).sum(axis=1) / (v.size * h * np.sqrt(2 * np.pi))
    assert np.array_equal(curve.grid, grid)
    assert np.array_equal(curve.density, dens / dens.max())


def test_density_holds_one_block_of_grid_rows():
    # A one-shot kernel sum holds three 512 x n float temporaries, 12 kB a
    # value (18.4 MB at 1500 values).  Blocked, it holds one block of at most
    # _GRAM_ENTRIES entries, or of 8 grid rows when those hold more (from
    # 4800 values on), so the peak grows by at most 8 rows of 8 bytes a value.
    gen = np.random.default_rng(3)
    peaks = []
    for n in (1500, 15_000):
        v = gen.gamma(2.0, size=n)
        tracemalloc.start()
        try:
            spectral_density(v)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 2 * 8 * _GRAM_ENTRIES
    assert peaks[1] - peaks[0] <= 8 * 8 * (15_000 - 1500)


def test_density_validation():
    with pytest.raises(InvalidArgumentError):
        spectral_density([])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_density_refuses_non_finite_values(bad):
    with pytest.raises(InvalidArgumentError, match="finite"):
        spectral_density([1.0, bad, 2.0])


def test_quartiles_equal_numpys_linear_percentiles():
    gen = np.random.default_rng(30)
    for n in [*range(1, 401), 1000, 2047]:
        scaled = gen.normal(size=n) * 10.0 ** gen.uniform(-12, 12)
        tied = np.round(gen.normal(size=n) * gen.uniform(0.5, 4))
        flat = np.full(n, gen.normal())
        for v in (scaled, tied, flat):
            got = [spectral._linear_quantile(np.sort(v).tolist(), q) for q in (0.75, 0.25)]
            # == rather than bytes: where -0.0 and 0.0 both sit at a quartile,
            # np.sort and np.percentile's partition may order them differently,
            # which flips only the sign of a zero quartile (the IQR is still +-0).
            assert got == np.percentile(v, [75, 25]).tolist(), (n, v)


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=2, max_value=7),
       st.integers(min_value=0, max_value=2**32))
def test_gram_eigenvalues_consistent_with_singular_values(m, n, trial):
    X, W, A = random_features(2, m, n, 1.0, 1.0, split_stream(321, trial))
    sv = singular_values(X, W, FOURIER)
    norm = max(m, n)
    G = A.conj().T @ A if n <= m else A @ A.conj().T
    eigs = np.sort(np.linalg.eigvalsh(G) / norm)
    assert np.all(eigs >= -1e-9)
    scale = max(eigs[-1], 1e-12)
    assert np.abs(np.sort(sv**2 / norm) - eigs).max() / scale <= 1e-8
