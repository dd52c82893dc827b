"""Spectral analysis of feature Gram matrices: eigenvalues, condition numbers,
restricted isometry constants, and singular-value density estimation.

The paper bounds the conditioning of the normalized Gram on its smaller side:
(1/m)A*A when N <= m and (1/N)AA* when N > m, in both regimes the smaller
Gram over max(m, N).  Its eigenvalues are the squared singular values of A
over max(m, N), so `gram_spectrum_via_svd` takes them from one factorization
of a built A: the singular values a caller already has (the sweep's
least-squares solve), or else the thin SVD of A, which resolves singular
values down to eps * sigma_max.  `singular_values` takes the feature inputs
(X, W, kind) instead, and never holds a non-square A: it sums the smaller
Gram (AA* or A*A) over blocks of A cut along its longer side by
`features.block_ranges` with the `_GRAM_ENTRIES` budget (256 features at
m = 150), built one at a time, and runs one eigensolver on it.  Those
eigenvalues are accurate to about eps * cond^2 relative (Trefethen & Bau,
Numerical Linear Algebra, Lecture 31), so it keeps them when lambda_min >=
`_GRAM_GATE` * lambda_max, where that is at most about 2e-10, and otherwise
builds A in full for the SVD.  A square A (N = m, the interpolation
threshold, where the condition number peaks) goes straight to the SVD: its
Gram is no smaller than A, so the Gram route would save little when it
passes the gate and often fail it.  When N > m it reads W only in the
Gram's column blocks, so W may be a reader that draws them
(`sampling.GaussianColumns`).  So the density study holds A only at m = N
or when a Gram fails the gate, W also when N < m, where W is smaller than
X, and otherwise one cache-sized block; `spectral_density` sums its kernel
over row blocks of its grid by the same budget.

Restricted isometry constants are the one place that reads Grams of column
supports: delta_s is a maximum over column supports S of ||A_S* A_S - I||_2,
and each s x s support Gram is small and well conditioned near I.  The exact
enumeration forms H = (A*A - I) symmetrized and B = |H|, N x N, once per call,
and skips every subtree of supports whose row-sum bound from B cannot reach a
running threshold (`_SupportWalk`).  At the last level it settles each
complete support the same way by its own max row sum of B, one addition from
its parent's row sums, before its Gram is read.  The supports it does not
settle read their Grams from H, s^2 entries each; without H (s = 1, or a
budget too small for the walk's tables) and for the randomized bound, each
Gram is multiplied from its s x m column block.  The Grams are evaluated in
stacks of `_STACK` (`_Leaves`): each gives the upper bound min(max row sum of
|G|, ||G||_F) >= ||G||_2, a support whose bound is below the running maximum
by more than a rounding margin skips the eigensolver, and the rest are held
until they fill one batched eigensolver call.  Both skips keep that margin, so
the maximum is bit-for-bit the one a full enumeration of the same Grams finds;
the two Gram sources differ by rounding only (see `_PRUNE_MARGIN`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import EnumerationBudgetError, InvalidArgumentError, NumericalFailureError
from .features import _check_dims, block_ranges, build_features
from .sampling import RngStream

# singular_values keeps the Gram's eigenvalues when lambda_min >= _GRAM_GATE *
# lambda_max (sigma_max / sigma_min <= 1000): their relative error, about
# eps * cond^2, then stays below 2e-10.
_GRAM_GATE = 1e-6
# Entries of one block of the density study: 150 x 256 features, whose
# phase, features and conjugate (about 1.5 MB, against 6.2 MB at 150 x 1024)
# stay in L2 and keep the Gram product at full speed.  The kernel density
# holds one block of grid rows by the same budget.
_GRAM_ENTRIES = 150 * 256

DEFAULT_ENUMERATION_BUDGET = 2_000_000
_STACK = 64  # supports per batched eigvalsh call
# A support is skipped when bound + _PRUNE_MARGIN * (1 + best) < best.  The
# computed bound is within s*eps*bound of the exact min(||G||_inf, ||G||_F),
# which is >= ||G||_2, and eigvalsh returns ||G||_2 to within O(s*eps*||G||_2)
# (backward stable), so a skipped support's computed deviation stays below best
# while the margin exceeds a few s*eps*best: 1e-9 covers s up to ~10^6.  The
# "1 +" keeps every support when best is at round-off level (s = 1).  The
# exact enumeration skips a subtree, and settles a complete support by its own
# max row sum of B, by the same rule against its threshold.  Its leaves read
# their Grams from H, whose moduli are the entries of B = |H|, so the walk's
# bounds and its leaves' row sums add the same numbers in other orders: again
# within s*eps, which the margin covers.  (Leaves that multiplied columns
# would differ from B by about m*eps*||a_i||*||a_j|| per entry, and need
# s*m*eps*max ||a_j||^2 below the margin.)  H's own rounding moves the
# value, not the skips: each entry of H and of a column-product Gram is within
# about m*eps*||a_i||*||a_j|| of the exact a_i* a_j - [i = j], so by Weyl's
# inequality delta_s from H and delta_s from columns differ by at most about
# 2*s*m*eps*max(1, max ||a_j||^2).
_PRUNE_MARGIN = 1e-9
_BLOCK = 256  # support prefixes per block of the exact enumeration's walk
_POWER_STEPS = 8  # power iterations behind the walk's seed threshold


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: np.ndarray  # ascending
    lambda_min: float
    lambda_max: float
    cond_number: float       # sigma_max / sigma_min; inf where lstsq ranks A deficient


@dataclass(frozen=True)
class RipEstimate:
    """delta_s as the maximum of ||A_S* A_S - I||_2 over `supports_evaluated`
    supports S.  The Gram G = A_S* A_S - I of `supports_gathered` of them was
    read (all of them for the randomized bound): from H = (A*A - I)
    symmetrized where the exact enumeration has formed H (every s >= 2 unless
    the budget is too small for its tables), else from the s x m column block
    of S.  `supports_pruned` were settled without an eigensolve: the exact
    enumeration skipped them with a subtree whose row-sum bound from |H| lay
    below its threshold, or settled them, not gathered, because their own max
    row sum of |H|, summed from their parent's, lay below it; or, gathered,
    their own bound min(max row sum of |G|, ||G||_F) lay below the running
    maximum; in every case by more than the rounding margin
    `_PRUNE_MARGIN * (1 + threshold)`.  So they could not change
    `value`, which is bit-for-bit the maximum over every support of the Grams
    from the same source (see `_PRUNE_MARGIN` for how far the sources
    differ)."""

    s: int
    value: float
    method: str  # "exact_enumeration" | "randomized_lower_bound"
    supports_evaluated: int
    supports_pruned: int
    supports_gathered: int


@dataclass(frozen=True)
class DensityCurve:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


def rank_rcond(m: int, n: int) -> float:
    """eps * max(m, N), np.linalg.lstsq's default: the solvers and the condition
    number count a singular value of an m x N matrix <= this * sigma_max as zero."""
    return np.finfo(float).eps * max(m, n)


def gram_spectrum_via_svd(A: np.ndarray, sv: np.ndarray | None = None) -> SpectralSummary:
    """Spectrum of the smaller normalized Gram of the m x N matrix A, the one
    over max(m, N): (1/m)A*A when N <= m, (1/N)AA* when N > m.

    Its eigenvalues are the squares of the singular values of A divided by
    sqrt(max(m, N)).  The singular values are `sv`, ascending, when the caller
    has already factored A, and those of the thin SVD of A otherwise.  The
    condition number sigma_max / sigma_min is infinite when sigma_min <=
    `rank_rcond` * sigma_max, so exactly when a `solvers` fit of A is a
    pseudoinverse fit.
    """
    M = np.asarray(A)
    m, n = M.shape
    if sv is None:
        sv = _svd_values(M)
    elif len(sv) != min(m, n):
        raise InvalidArgumentError(
            f"{len(sv)} singular values given for a {m} x {n} matrix, expected {min(m, n)}")
    s = sv / np.sqrt(max(m, n))
    eigs = s**2
    cond = float(s[-1] / s[0]) if sv[0] > rank_rcond(m, n) * sv[-1] else float("inf")
    return SpectralSummary(eigenvalues=eigs, lambda_min=float(eigs[0]),
                           lambda_max=float(eigs[-1]), cond_number=cond)


def _svd_values(A: np.ndarray) -> np.ndarray:
    """Singular values of A, ascending, from its thin SVD; a failed SVD or a
    non-finite result (as on non-finite A) raises NumericalFailureError."""
    try:
        s = np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD failed: {exc}") from exc
    if not np.isfinite(s).all():  # LAPACK returns NaN for an infinite entry
        raise NumericalFailureError("SVD failed: non-finite singular values")
    return np.sort(s)


def singular_values(X: np.ndarray, W: np.ndarray, kind: str) -> np.ndarray:
    """min(m, N) singular values, ascending, of the m x N matrix
    A = build_features(X, W, kind).

    For non-square A they are the square roots of the eigenvalues of the
    smaller Gram (AA* or A*A) when those are finite and lambda_min >=
    `_GRAM_GATE` * lambda_max; each is then within about eps * cond^2 relative
    of the SVD's (at most about 2e-10 at the gate).  The Gram is summed over
    the `block_ranges` of A's longer side (features, or samples when N < m)
    with at most `_GRAM_ENTRIES` entries each, built and dropped in turn, so
    A itself is not held; with one block the sum is the single product, bit
    for bit.  Otherwise, and always for square A, A is built in full and
    they come from its thin SVD, as in `gram_spectrum_via_svd`.

    W is a d x N array, or a reader of one such as `sampling.GaussianColumns`:
    an object with `ndim` and `shape` that returns columns [i, j) as
    `W[:, i:j]`, in ascending order, and all of W as `np.asarray(W)`.  When
    N > m, W is read only in the Gram's column blocks, and whole only for
    the SVD fallback, which holds A anyway; when N <= m it is read whole.
    """
    _check_dims(X, W)
    m, n = X.shape[1], W.shape[1]
    if n <= m:
        W = np.asarray(W)
    if m != n:
        with np.errstate(all="ignore"):  # an overflowing Gram fails the gate
            G = None
            for i, j in block_ranges(max(m, n), min(m, n), _GRAM_ENTRIES):
                Xb, Wb = (X, W[:, i:j]) if m < n else (X[:, i:j], W)
                B = build_features(Xb, Wb, kind)
                P = B @ B.conj().T if m < n else B.conj().T @ B
                G = P if G is None else np.add(G, P, out=G)
            try:
                lam = np.linalg.eigvalsh(G)
            except np.linalg.LinAlgError:  # as on a non-finite Gram
                lam = np.array([np.nan])  # fails the gate
        if np.isfinite(lam).all() and lam[0] >= _GRAM_GATE * lam[-1]:
            return np.sqrt(lam)
    return _svd_values(build_features(X, np.asarray(W), kind))


def _norm_bound(G: np.ndarray) -> np.ndarray:
    """min(max row sum of |G|, ||G||_F) of each matrix in the stack G: an
    upper bound on ||G||_2."""
    a = np.abs(G)
    return np.minimum(a.sum(axis=-1).max(axis=-1), np.sqrt((a * a).sum(axis=(-2, -1))))


class _Leaves:
    """Running maximum `best` of ||G||_2 over the support Grams G of the
    supports passed to `add`, as (B, s) index arrays.  G is read from H =
    (A*A - I) symmetrized when H is given, and is otherwise (G + G*)/2 with
    G = A_S* A_S - I formed from the s x m column block of M.  The supports
    are taken in order, `_STACK` at a time; a support whose norm bound lies
    below `best` by more than the rounding margin is `pruned` without an
    eigensolve, and the Grams of the rest are held until `_STACK` of them fill
    one batched eigensolver call.  So only the last call, from `finish`, can
    be partial."""

    def __init__(self, M: np.ndarray, H: np.ndarray | None = None):
        self.M, self.H = M, H
        self.best = 0.0
        self.pruned = 0
        self.held = None  # Grams waiting for a full stack

    def grams(self, supports: np.ndarray) -> np.ndarray:
        if self.H is not None:
            return self.H[supports[:, :, None], supports[:, None, :]]
        sub = self.M.T[supports]  # (B, s, m): sub[b] = A_S^T for S = supports[b]
        G = sub.conj() @ np.swapaxes(sub, -1, -2)
        G -= np.eye(supports.shape[1])
        return 0.5 * (G + np.swapaxes(G, -1, -2).conj())

    def add(self, supports: np.ndarray) -> None:
        for lo in range(0, len(supports), _STACK):
            with np.errstate(all="ignore"):  # a non-finite Gram fails below, not with a warning
                G = self.grams(supports[lo:lo + _STACK])
                best = self.best
                keep = ~(_norm_bound(G) + _PRUNE_MARGIN * (1.0 + best) < best)  # NaN is kept
            self.pruned += len(keep) - int(keep.sum())
            self.held = G[keep] if self.held is None else np.concatenate([self.held, G[keep]])
            if len(self.held) >= _STACK:
                self._solve(self.held[:_STACK])
                self.held = self.held[_STACK:]

    def finish(self) -> float:
        if self.held is not None and len(self.held):
            self._solve(self.held)
        self.held = None
        return self.best

    def _solve(self, G: np.ndarray) -> None:
        try:
            eigs = np.linalg.eigvalsh(G)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
        dev = float(np.maximum(-eigs[:, 0], eigs[:, -1]).max())
        if not np.isfinite(dev):
            raise NumericalFailureError("support Gram has non-finite eigenvalues")
        self.best = max(self.best, dev)


def _top_sums(B: np.ndarray, depth: int) -> np.ndarray:
    """(depth, N, N) table T with T[k - 1, p, i] the sum of the k largest
    B[i, l] over l >= p; a shorter pool is padded with zeros.  np.maximum and
    np.minimum carry a NaN into every later slot, so it reaches the sums.
    (np.sort would do, but its first call adds about 0.7 MB of resident code.)"""
    n = B.shape[0]
    tables = np.empty((depth, n, n))
    top = np.zeros((depth, n))  # top[r, i]: the (r+1)-th largest B[i, l] over l >= p
    for p in range(n - 1, -1, -1):
        v = B[:, p]
        for r in range(depth):
            top[r], v = np.maximum(top[r], v), np.minimum(top[r], v)
        tables[:, p] = np.cumsum(top, axis=0)
    return tables


def _seed_threshold(H: np.ndarray, B: np.ndarray, s: int) -> float:
    """A lower bound on delta_s that needs no eigensolve.  From each start
    column a greedy support of size s adds, one at a time, the column with the
    largest row sum of B over the support so far.  For v after a few power
    iterations on H_S, |v* H_S v| / v*v <= ||H_S||_2 <= delta_s; the largest
    finite quotient is scaled by 1 - 1e-6 against rounding (0 if none)."""
    n = B.shape[0]
    support = np.arange(n)[:, None]
    chosen = np.eye(n, dtype=bool)
    rows = B.copy()
    for _ in range(s - 1):
        nxt = np.argmax(np.where(chosen, -np.inf, rows + np.diag(B)), axis=1)
        support = np.column_stack([support, nxt])
        chosen[np.arange(n), nxt] = True
        rows += B[nxt]
    HS = H[support[:, :, None], support[:, None, :]]
    v = np.ones((n, s, 1), dtype=H.dtype)
    for _ in range(_POWER_STEPS):
        v = HS @ v
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    q = np.abs((v.conj() * (HS @ v)).sum(axis=(1, 2))) / (np.abs(v) ** 2).sum(axis=(1, 2))
    q = q[np.isfinite(q)]
    return (1.0 - 1e-6) * float(q.max()) if q.size else 0.0


class _SupportWalk:
    """Depth-first walk over the supports of size s in lexicographic order,
    one block of at most `_BLOCK` prefixes per prefix length.

    A prefix S0 of length j < s leaves k = s - j indices to the pool
    P = {l > max S0}.  For every completion S, each row i of |A_S* A_S - I|
    sums to at most sum_{l in S0} B[i, l] plus the k largest B[i, l] over P,
    with B = |H| and H = (G + G*)/2, G = A*A - I; so the maximum of that over
    i in S0 | P bounds the per-support bound of every completion, and the
    subtree is skipped when it is below the running threshold by more than
    `_PRUNE_MARGIN` * (1 + threshold).  The threshold is the larger of
    `_seed_threshold` and the maximum found so far; a NaN bound never skips.
    The top-k tables cost `depth` * N^2 entries, B another N^2: lengths whose
    k exceeds `depth`, the most the budget allows, are not bounded.  A
    complete support S = S0 | {c} has the B row sums `rows` + B[c], and is
    settled by the same rule when their maximum over i in S is below the
    threshold.  The rest of each block of complete supports, all of it when
    depth is 0, goes to the `leaves`, which read its Grams from H (from the
    columns of M when depth is 0 and H is not formed) and raise the running
    maximum; the walk counts the supports it `gathered`.  The maximum counts
    only the stacks eigensolved so far, so the threshold can lag the supports
    gathered by less than one stack."""

    def __init__(self, M: np.ndarray, s: int, budget: int):
        n = M.shape[1]
        self.s, self.n = s, n
        self.depth = max(0, min(s - 1, budget // (n * n) - 1))
        self.threshold = 0.0
        self.gathered = 0
        H = None
        if self.depth:
            with np.errstate(all="ignore"):  # non-finite entries give NaN bounds, kept
                H = M.conj().T @ M
                H[np.diag_indices(n)] -= 1.0
                H = 0.5 * (H + H.conj().T)
                self.B = np.abs(H)
                self.tables = _top_sums(self.B, self.depth)
                self.threshold = _seed_threshold(H, self.B, s)
        self.leaves = _Leaves(M, H)

    def descend(self, prefixes: np.ndarray, rows: np.ndarray | None) -> None:
        """Visit every support extending a row of `prefixes`, one block of
        prefixes of length j, whose B row sums over the prefix are `rows`
        (None when no length is bounded)."""
        j = prefixes.shape[1]
        last = prefixes[:, -1] if j else np.full(len(prefixes), -1)
        counts = self.n - self.s + j - last  # children c in last+1 .. n-s+j
        ends = np.cumsum(counts)
        for lo in range(0, int(ends[-1]), _BLOCK):
            f = np.arange(lo, min(lo + _BLOCK, int(ends[-1])))
            parent = np.searchsorted(ends, f, side="right")
            child = last[parent] + 1 + f - (ends[parent] - counts[parent])
            kids = np.column_stack([prefixes[parent], child])
            kid_rows = None if rows is None else rows[parent] + self.B[child]
            threshold = max(self.threshold, self.leaves.best)
            bound = self.prefix_bound(kids, kid_rows)
            keep = ~(bound + _PRUNE_MARGIN * (1.0 + threshold) < threshold)  # NaN is kept
            kids = kids[keep]
            if not len(kids):
                continue
            if j + 1 == self.s:
                self.leaves.add(kids)
                self.gathered += len(kids)
            else:
                self.descend(kids, None if rows is None else kid_rows[keep])

    def prefix_bound(self, prefixes: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
        """Upper bound on the max row sum of |A_S* A_S - I| over every
        completion S of each prefix, and a complete support's own max row
        sum; +inf where the length is not bounded."""
        k = self.s - prefixes.shape[1]
        if rows is None or k > self.depth:
            return np.full(len(prefixes), np.inf)
        if not k:
            return np.take_along_axis(rows, prefixes, 1).max(axis=1)
        p = prefixes[:, -1] + 1
        rows_in = np.arange(self.n) >= p[:, None]  # i in P, or (below) in S0
        np.put_along_axis(rows_in, prefixes, True, axis=1)
        return np.where(rows_in, rows + self.tables[k - 1, p], -np.inf).max(axis=1)

    def run(self) -> _SupportWalk:
        self.descend(np.empty((1, 0), dtype=np.intp),
                     np.zeros((1, self.n)) if self.depth else None)
        self.leaves.finish()
        return self


def rip_constant_exact(A_normalized: np.ndarray, s: int,
                       budget: int = DEFAULT_ENUMERATION_BUDGET) -> RipEstimate:
    """Exact s-th restricted isometry constant: the maximum over every
    support, found by `_SupportWalk`, which skips subtrees of the
    lexicographic enumeration that cannot raise it and evaluates the rest
    `_STACK` supports per eigensolver call."""
    M = np.asarray(A_normalized)
    n = M.shape[1]
    if not 1 <= s <= n:
        raise InvalidArgumentError(f"s must be in [1, {n}], got {s}")
    total = comb(n, s)
    if total > budget:
        raise EnumerationBudgetError(
            f"C({n},{s}) = {total} supports exceeds budget {budget}; method auto "
            "(rip_constant_lower_mc) gives a randomized lower bound")
    walk = _SupportWalk(M, s, budget).run()
    return RipEstimate(s=s, value=walk.leaves.best, method="exact_enumeration",
                       supports_evaluated=total,
                       supports_pruned=total - walk.gathered + walk.leaves.pruned,
                       supports_gathered=walk.gathered)


def rip_constant_lower_mc(A_normalized: np.ndarray, s: int, trials: int,
                          stream: RngStream) -> RipEstimate:
    """Randomized lower bound: max deviation over `trials` uniformly sampled supports.

    Supports are drawn sequentially from one generator, so growing `trials`
    with the same stream extends the sample set (the estimate is monotone).
    A repeated support is not evaluated again; `supports_evaluated` counts
    the distinct supports drawn.
    """
    M = np.asarray(A_normalized)
    n = M.shape[1]
    if not 1 <= s <= n:
        raise InvalidArgumentError(f"s must be in [1, {n}], got {s}")
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    gen = stream.generator()
    distinct = {}  # in order of first draw
    for _ in range(trials):
        cols = np.sort(gen.choice(n, size=s, replace=False))
        distinct.setdefault(cols.tobytes(), cols)
    leaves = _Leaves(M)
    leaves.add(np.array(list(distinct.values())))
    return RipEstimate(s=s, value=leaves.finish(), method="randomized_lower_bound",
                       supports_evaluated=len(distinct), supports_pruned=leaves.pruned,
                       supports_gathered=len(distinct))


def _linear_quantile(v: list[float], q: float) -> float:
    """The q-quantile of the sorted, non-empty `v` by numpy's default "linear"
    rule (Hyndman & Fan 1996, type 7): the virtual index (n - 1) q between
    neighbours a and b, interpolated from the nearer one with the float
    operations of numpy's `_lerp`.  (np.percentile would do, but its first
    call imports numpy.ma, 12-14 ms.)"""
    index = (len(v) - 1) * q
    lo = int(index)  # the floor, since index >= 0
    t = index - lo
    a, b = v[lo], v[min(lo + 1, len(v) - 1)]
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def _silverman_bandwidth(values: np.ndarray) -> float:
    n = values.size
    std = float(np.std(values))
    v = np.sort(values).tolist()
    iqr = _linear_quantile(v, 0.75) - _linear_quantile(v, 0.25)
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    h = 0.9 * scale * n ** (-0.2)
    if h <= 0:
        # Degenerate sample (single or repeated value): any positive width
        # gives the contract's symmetric unimodal curve.
        h = max(1.0, float(np.abs(values).max())) * 0.05
    return h


def spectral_density(values) -> DensityCurve:
    """Gaussian-kernel density of finite `values` with Silverman's bandwidth h
    on a 512-point grid over [min - 3h, max + 3h], scaled to a maximum of 1.

    The kernel sums exp(-z^2 / 2), z = (grid - value) / h, are taken over
    `block_ranges` of the grid's rows with at most `_GRAM_ENTRIES` entries
    (8 rows at the least), in one reused buffer, so the memory is one block,
    not 512 x len(values).  Each row is reduced whole, by the same operations
    as the one-shot sum, so the curve is the same bit for bit."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise InvalidArgumentError("values must be non-empty")
    if not np.isfinite(v).all():
        raise InvalidArgumentError("values must be finite")
    h = _silverman_bandwidth(v)
    grid = np.linspace(v.min() - 3 * h, v.max() + 3 * h, 512)
    blocks = block_ranges(grid.size, v.size, _GRAM_ENTRIES)
    buffer = np.empty((max(j - i for i, j in blocks), v.size))
    sums = np.empty(grid.size)
    for i, j in blocks:
        z = np.subtract(grid[i:j, None], v, out=buffer[:j - i])
        z /= h
        z *= z
        z *= -0.5
        np.exp(z, out=z)
        z.sum(axis=1, out=sums[i:j])
    dens = sums / (v.size * h * np.sqrt(2 * np.pi))
    return DensityCurve(grid=grid, density=dens / dens.max(), bandwidth=h)
