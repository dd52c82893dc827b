"""Experiment harness: double-descent sweeps, singular-value density studies,
interpolation-threshold statistics, risk-bound validation, and the restricted
isometry study of one instance.  Every protocol samples its instances with
`random_inputs`.  All but the density study build A from them at once
(`random_features`); the density study takes W as a `GaussianColumns`
reader, which draws it in the column blocks its Gram reads, so it holds no
d x N array when N > m.

Every protocol is a grid of (cell, trial) jobs: a cell is one N, scaling or
pipeline, and each job is a pure function of (master seed, cell, trial).  One
pool of `workers` threads runs all of a run's jobs (`_map_cells`), and each
cell is aggregated in trial order, so output bytes are independent of the
worker count -- provided the BLAS thread pools are pinned to one thread before
numpy loads, as ``rfcond.cli`` and the test suite do.  A multithreaded BLAS
may split a reduction differently from call to call, so a library caller with
``workers > 1`` and unpinned BLAS can see results that differ in the last
bits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import EnumerationBudgetError, InvalidArgumentError, NumericalFailureError
from .features import FOURIER, RELU, build_features
from .sampling import (
    NOISE_NONE,
    TAG_DATA,
    TAG_NOISE,
    TAG_SUPPORTS,
    TAG_TARGET,
    TAG_TEST,
    TAG_WEIGHTS,
    GaussianColumns,
    NoiseModel,
    RngStream,
    gaussian_matrix,
    noise_vector,
    split_stream,
)
from .solvers import (
    FLAG_SINGULAR_GRAM,
    CoefficientVector,
    best_s_term_error,
    bpdn,
    l2_norm,
    least_squares,
    min_norm_interpolate,
    prune_top_s,
)
from .spectral import (
    DensityCurve,
    gram_spectrum_via_svd,
    rip_constant_exact,
    rip_constant_lower_mc,
    singular_values,
    spectral_density,
)
from .targets import (
    KIND_LINEAR,
    TargetFunction,
    best_phi_coeffs,
    evaluate_model,
    population_risk,
    sample_target,
)
from .theory import (
    bp_noise_parameter,
    check_bp_conditions,
    check_regime_bound,
    epsilon_bound,
    hypotheses_by_mode,
    interpolation_expectation_bounds,
    markov_min_eig_threshold,
    risk_bound_bp,
    risk_bound_ls,
    risk_bound_minnorm,
)

# Tag namespaces for deriving cell streams; chained after the trial stream so
# grid values cannot collide with purpose tags.
_TAG_GRID = 101
_TAG_SCALING = 102
_TAG_PIPELINE = 103

SCALING_LABELS = ("N=m", "N=m log m", "N=m log^3 m", "m=N log N", "m=N log^3 N")

# Training pipelines, each with the tag of its validation streams.
_PIPE_TAGS = {"least_squares": 1, "min_norm": 2, "bpdn_pruned": 3}

# How a reported risk was computed (`risk_method`).
RISK_CLOSED_FORM = "closed_form"
RISK_MONTE_CARLO = "monte_carlo"


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    m: int
    n_grid: tuple[int, ...]
    gamma: float = 1.0
    sigma: float = 1.0
    feature_kind: str = FOURIER
    noise: NoiseModel = NOISE_NONE
    # gaussian level snr * std(clean outputs), derived per trial; only with noise none
    noise_snr: float | None = None
    target_kind: str = KIND_LINEAR
    planted_s: int = 2
    bump_width: float | None = None
    trials: int = 10
    seed: int = 0
    tol: float = 1e-6
    n_test: int = 1000
    delta: float = 0.05
    eta: float = 0.5
    s: int | None = None  # pruning size of the sparse pipeline
    workers: int = 1
    scalings: tuple[str, ...] = SCALING_LABELS
    pipelines: tuple[str, ...] | None = None  # None = all regime-appropriate ones

    def __post_init__(self):
        for name in ("d", "m", "trials", "n_test", "workers", "s", "planted_s"):
            value = getattr(self, name)
            if value is not None and value < 1:  # s None: no pruning size
                raise InvalidArgumentError(f"{name} must be >= 1, got {value}")
        if len(self.n_grid) == 0:
            raise InvalidArgumentError("n_grid must be non-empty")
        if any(n < 1 for n in self.n_grid):
            raise InvalidArgumentError("n_grid entries must be positive")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise InvalidArgumentError("n_grid must be strictly ascending")
        if not 0 < self.tol < math.inf:
            raise InvalidArgumentError(f"tol must be finite and positive, got {self.tol}")
        if not all(v >= 0 and math.isfinite(v * v)
                   for v in (self.gamma, self.sigma, self.noise_snr or 0.0)):
            raise InvalidArgumentError("gamma, sigma, noise_snr must be >= 0 with finite squares")
        if self.noise_snr is not None and self.noise.kind != "none":
            raise InvalidArgumentError("noise_snr replaces the noise model; set one, not both")
        if any(v > 0 and v * v == 0 for v in (self.gamma, self.sigma)):
            raise InvalidArgumentError("a positive gamma or sigma must have a nonzero square")
        if self.feature_kind not in (FOURIER, RELU):
            raise InvalidArgumentError(f"unknown feature kind {self.feature_kind!r}")
        for name, chosen, known in (("scalings", self.scalings, SCALING_LABELS),
                                    ("pipelines", self.pipelines or (), _PIPE_TAGS)):
            if set(chosen) - set(known):
                raise InvalidArgumentError(f"unknown {name} {sorted(set(chosen) - set(known))}")
            if len(set(chosen)) != len(chosen):
                raise InvalidArgumentError(f"{name} repeat a label: {list(chosen)}")


@dataclass(frozen=True)
class SweepRow:
    N: int
    trial: int
    cond_number: float
    lambda_min: float
    lambda_max: float
    train_residual: float
    empirical_risk: float
    risk_method: str
    flags: str  # the fit's diagnostic flags joined by ";", empty when there are none


SWEEP_COLUMNS = [f.name for f in fields(SweepRow)]


@dataclass(frozen=True)
class Risk:
    """A trial's risk E|f - f#|^2: `se` is the Monte Carlo standard error,
    None for the closed form."""
    value: float
    se: float | None
    method: str


def random_inputs(d: int, m: int, n: int, gamma: float, sigma: float, stream: RngStream,
                  weight_blocks: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The instance sampler of every protocol: X ~ N(0, gamma^2 I_d) (d x m) and
    W ~ N(0, sigma^2 I_d) (d x n) from fixed substreams of `stream`, so one
    stream reproduces the whole instance.  With `weight_blocks`, W is a
    `GaussianColumns` reader of the same matrix, drawn in column blocks as
    they are read."""
    for name, scale, drawn in (("gamma", gamma, "the data X"), ("sigma", sigma, "the weights W")):
        if not scale > 0:
            raise InvalidArgumentError(f"{name} must be positive to draw {drawn}, got {scale}")
    X = gaussian_matrix(d, m, gamma**2, stream.substream(TAG_DATA))
    draw_weights = GaussianColumns if weight_blocks else gaussian_matrix
    W = draw_weights(d, n, sigma**2, stream.substream(TAG_WEIGHTS))
    return X, W


def random_features(d: int, m: int, n: int, gamma: float, sigma: float, stream: RngStream,
                    kind: str = FOURIER) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`random_inputs` X and W and the m x n feature matrix A they give."""
    X, W = random_inputs(d, m, n, gamma, sigma, stream)
    return X, W, build_features(X, W, kind)


def _require_fourier(config: ExperimentConfig, protocol: str,
                     normalization: str | None = None) -> None:
    """Refuse ReLU features where `protocol` rests on the paper's Fourier setting:
    the threshold and validation bands and bounds rest on the Gaussian kernel
    (ReLU features have the arc-cosine kernel), and the density and RIP studies
    measure A / `normalization`, as the paper does for unit-modulus columns."""
    if config.feature_kind != FOURIER:
        reason = (f"measures A / {normalization}, a normalization the paper states for "
                  "the unit-modulus columns of" if normalization else
                  "checks bounds that rest on the Gaussian kernel, the mean Gram of")
        raise InvalidArgumentError(f"{protocol} {reason} fourier features only; "
                                   f"got {config.feature_kind} features")


def _map_cells(fn, cells, config: ExperimentConfig) -> list[list]:
    """[[fn(cell, t) for t in range(config.trials)] for cell in cells], every
    job run from one pool of `config.workers` threads."""
    jobs = [(cell, t) for cell in cells for t in range(config.trials)]
    if config.workers <= 1:
        done = [fn(cell, t) for cell, t in jobs]
    else:  # Executor.map cancels the jobs not yet started when one fails
        from concurrent.futures import ThreadPoolExecutor  # its import costs ~10 ms

        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            done = list(pool.map(lambda job: fn(*job), jobs))
    return [done[i:i + config.trials] for i in range(0, len(done), config.trials)]


def _train_and_test(config: ExperimentConfig, target: TargetFunction, pipeline: str,
                    X: np.ndarray, W: np.ndarray, A: np.ndarray, stream,
                    xi: float | None = None,
                    s: int | None = None) -> tuple[CoefficientVector, Risk]:
    """(fit, risk): fit `pipeline` to the target plus noise from
    the noise substream of `stream` at X (bpdn_pruned: BPDN at level `xi`,
    pruned to `s` terms), then take its risk E|f(z) - f#(z)|^2 over
    z ~ N(0, gamma^2 I_d).  snr noise resolves to a Gaussian of level
    snr * std(clean outputs).

    The risk is `population_risk`'s closed form when nnz(c)^2 <= n_test * N,
    where it costs less than the test features would.  Otherwise (the dense
    min-norm fit at N >> n_test) it is the Monte Carlo mean of
    |f(z) - f#(z)|^2 over n_test points from the test substream, with its
    standard error; the predictions stream through the points in blocks
    (`evaluate_model`), so memory does not grow with n_test * N.  Either
    risk raises NumericalFailureError where it is not finite."""
    clean = target.evaluate(X)
    noise = config.noise
    if config.noise_snr is not None:
        level = config.noise_snr * float(np.std(clean))
        noise = NoiseModel("gaussian", level) if level > 0 else NOISE_NONE
    y = clean + noise_vector(X.shape[1], noise, stream.substream(TAG_NOISE))
    if pipeline == "least_squares":
        coeff = least_squares(A, y)
    elif pipeline == "min_norm":
        coeff = min_norm_interpolate(A, y)
    else:  # the residual of the pruned model, not of the BPDN solution
        fit = bpdn(A, y, xi, config.tol)
        c = prune_top_s(fit.values, s)
        coeff = replace(fit, values=c, residual_norm=l2_norm(A @ c - y))
    nnz = int(np.count_nonzero(coeff.values))
    if nnz * nnz <= config.n_test * W.shape[1]:
        value = population_risk(target, W, coeff.values, config.gamma, config.feature_kind)
        return coeff, Risk(value, None, RISK_CLOSED_FORM)
    Z = gaussian_matrix(config.d, config.n_test, config.gamma**2, stream.substream(TAG_TEST))
    preds = evaluate_model(W, coeff.values, Z, config.feature_kind)
    with np.errstate(over="ignore"):  # a non-finite mean raises, an overflowing sd rescales
        sq_err = np.abs(target.evaluate(Z) - preds) ** 2
        value = float(np.mean(sq_err))
        if not math.isfinite(value):
            raise NumericalFailureError(f"Monte Carlo risk {value!r} is not finite")
        sd = float(np.std(sq_err, ddof=1)) if sq_err.size > 1 else None
    if sd == math.inf:  # the squared deviations overflow: scale by the largest |f - f#|^2
        scale = float(sq_err.max())
        sd = scale * float(np.std(sq_err / scale, ddof=1))
    se = None if sd is None else sd / math.sqrt(sq_err.size)
    return coeff, Risk(value, se, RISK_MONTE_CARLO)


def _risk_bound(config: ExperimentConfig, pipeline: str, n: int, rho: float, E: float,
                s: int | None, eps: float, theta: float | None) -> float:
    """The paper's risk bound for `pipeline` at N = n and epsilon `eps`; the
    pruned sparse pipeline also needs s and the best s-term error theta."""
    if pipeline == "least_squares":
        return risk_bound_ls(n, config.m, config.delta, config.eta, eps, rho, E)
    if pipeline == "min_norm":
        return risk_bound_minnorm(config.m, config.delta, config.eta, eps, rho, E)
    return risk_bound_bp(n, config.m, s, config.delta, eps, rho, E, theta)


def _bound_conditions(config: ExperimentConfig, pipeline: str, n: int, s: int | None) -> dict:
    """The hypotheses of `pipeline`'s risk bound at N = n in both modes."""
    if pipeline == "bpdn_pruned":
        return hypotheses_by_mode(check_bp_conditions, config.m, n, s, config.d, config.gamma,
                                  config.sigma, config.delta)
    return hypotheses_by_mode(check_regime_bound, config.m, n, config.d, config.gamma,
                              config.sigma, config.delta, config.eta,
                              under=pipeline == "least_squares")


def _sweep_cell(config: ExperimentConfig, target: TargetFunction, n: int,
                trial: int) -> SweepRow:
    stream = split_stream(config.seed, trial).substream(_TAG_GRID, n)
    X, W, A = random_features(config.d, config.m, n, config.gamma, config.sigma,
                              stream, config.feature_kind)
    # A singular row Gram keeps the trial with the flagged pseudoinverse fit;
    # its infinite condition number is in the spectral summary, built from the
    # singular values of the fit's own factorization of A.
    pipeline = "least_squares" if n < config.m else "min_norm"
    coeff, risk = _train_and_test(config, target, pipeline, X, W, A, stream)
    spec = gram_spectrum_via_svd(A, coeff.singular_values)
    return SweepRow(N=n, trial=trial, cond_number=spec.cond_number,
                    lambda_min=spec.lambda_min, lambda_max=spec.lambda_max,
                    train_residual=coeff.residual_norm,
                    empirical_risk=risk.value, risk_method=risk.method,
                    flags=";".join(coeff.flags))


def _finite_argmax(values: np.ndarray) -> int:
    """Index of the largest finite value, 0 if none is: one rank-deficient trial
    makes its cell's mean condition number inf, and that says nothing of a peak."""
    return int(np.argmax(np.where(np.isfinite(values), values, -np.inf)))


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    summary: dict


def run_double_descent_sweep(config: ExperimentConfig) -> SweepResult:
    """Figure-1 protocol: each trial samples one target; for each N it builds
    features, trains (least squares below the threshold, min-norm at and above
    it), and records the smaller normalized Gram's conditioning and the risk."""
    targets = [sample_target(config.target_kind, config.d, config.sigma,
                             split_stream(config.seed, t).substream(TAG_TARGET),
                             config.feature_kind, config.planted_s, config.bump_width)
               for t in range(config.trials)]
    per_cell = _map_cells(lambda n, t: _sweep_cell(config, targets[t], n, t),
                          config.n_grid, config)
    rows = [row for cell in per_cell for row in cell]

    grid = np.asarray(config.n_grid)
    mean_cond = np.array([np.mean([r.cond_number for r in cell]) for cell in per_cell])
    mean_risk = np.array([np.mean([r.empirical_risk for r in cell]) for cell in per_cell])
    summary = {
        "n_grid": [int(n) for n in grid],
        "mean_cond_number": mean_cond.tolist(),
        "mean_empirical_risk": mean_risk.tolist(),
        "cond_argmax_n": int(grid[_finite_argmax(mean_cond)]),
        "risk_argmax_n": int(grid[_finite_argmax(mean_risk)]),
    }
    return SweepResult(rows=rows, summary=summary)


def _solve_scaling(label: str, m: int) -> int:
    """N for a scaling label at m samples: "N=m log^k m" rounds m log^k m (at
    least 2), and "m=N log^k N" inverts N log^k N = m over N in 2..m.  A label
    whose N is not above m ("N=m log...") or not below it ("m=N log...") raises
    InvalidArgumentError; all five labels need m >= 4."""
    if label == "N=m":
        return m
    over, power = label.startswith("N="), 3 if "^3" in label else 1
    if over:
        n = max(2, round(m * math.log(m) ** power))
    else:  # the first N of least error
        n = min(range(2, m + 1), key=lambda k: abs(k * math.log(k) ** power - m), default=2)
    if (n <= m) if over else (n >= m):
        raise InvalidArgumentError(f"scaling {label!r} at m = {m} gives N = {n}, "
                                   f"not {'above' if over else 'below'} m")
    return n


@dataclass(frozen=True)
class DensityStudyEntry:
    label: str
    n: int
    curve: DensityCurve
    sv_min: float
    sv_max: float


def run_spectrum_density(config: ExperimentConfig) -> list[DensityStudyEntry]:
    """Figure-2 protocol: pooled singular values of the normalized Fourier
    feature matrix A / sqrt(max(m, N)) over the trials, smoothed to a max-1
    density curve per scaling.  Each trial passes its X and its W, a
    `GaussianColumns` reader, to `singular_values`, which builds A (and
    draws W) in blocks for its Gram and in full only for the SVD fallback
    (m = N, or a Gram that fails the gate), and divides them by
    sqrt(max(m, N)), as `gram_spectrum_via_svd` does.

    Before any draw it refuses ReLU features and a selected label whose N is
    not above m ("N=m log..." labels) or not below m ("m=N log..." labels);
    all five labels need m >= 4 (`_solve_scaling`)."""
    _require_fourier(config, "the density study", "sqrt(max(m, N))")
    m = config.m
    cells = [(idx, _solve_scaling(label, m)) for idx, label in enumerate(config.scalings)]

    def one_trial(cell: tuple[int, int], t: int) -> np.ndarray:
        idx, n = cell
        stream = split_stream(config.seed, t).substream(_TAG_SCALING, idx)
        X, W = random_inputs(config.d, m, n, config.gamma, config.sigma, stream,
                             weight_blocks=True)
        return singular_values(X, W, FOURIER) / np.sqrt(max(m, n))

    entries = []
    for label, (_, n), values in zip(config.scalings, cells,
                                     _map_cells(one_trial, cells, config)):
        pooled = np.concatenate(values)
        entries.append(DensityStudyEntry(label=label, n=n, curve=spectral_density(pooled),
                                         sv_min=float(pooled.min()), sv_max=float(pooled.max())))
    return entries


def run_threshold_study(config: ExperimentConfig) -> dict:
    """Interpolation threshold statistics at m = N for each N in the grid:
    Monte Carlo means of the extreme eigenvalues of (1/N)A*A against their
    closed-form expectation bounds, plus the Markov small-eigenvalue check."""
    _require_fourier(config, "the threshold study")
    if config.trials < 2:
        raise InvalidArgumentError("the threshold study needs trials >= 2 for standard errors")
    if config.n_grid[0] < 2:  # the grid ascends
        raise InvalidArgumentError(f"the threshold study needs N >= 2, got {config.n_grid[0]}")

    def one_trial(n: int, t: int) -> tuple[float, float]:
        stream = split_stream(config.seed, t).substream(_TAG_GRID, n)
        _, _, A = random_features(config.d, n, n, config.gamma, config.sigma, stream, FOURIER)
        spec = gram_spectrum_via_svd(A)
        return spec.lambda_min, spec.lambda_max

    cells = []
    for n, stats in zip(config.n_grid, _map_cells(one_trial, config.n_grid, config)):
        lam_min, lam_max = map(np.array, zip(*stats))
        lam_min_upper, lam_max_lower = interpolation_expectation_bounds(
            n, config.gamma, config.sigma, config.d)
        se_min = float(np.std(lam_min, ddof=1) / math.sqrt(config.trials))
        se_max = float(np.std(lam_max, ddof=1) / math.sqrt(config.trials))

        markov_level = markov_min_eig_threshold(n, config.gamma, config.sigma, config.d)
        markov_cap = n ** (-0.5)
        fraction = float(np.mean(lam_min >= markov_level))
        binom_se = math.sqrt(markov_cap * (1.0 - markov_cap) / config.trials)

        cells.append({
            "N": int(n),
            "mean_lambda_min": float(lam_min.mean()),
            "se_lambda_min": se_min,
            "lambda_min_upper_bound": lam_min_upper,
            "lambda_min_ok": bool(lam_min.mean() <= lam_min_upper + 3.0 * se_min),
            "mean_lambda_max": float(lam_max.mean()),
            "se_lambda_max": se_max,
            "lambda_max_lower_bound": lam_max_lower,
            "lambda_max_ok": bool(lam_max.mean() >= lam_max_lower - 3.0 * se_max),
            "markov_level": markov_level,
            "markov_fraction": fraction,
            "markov_cap": markov_cap,
            "markov_binomial_se": binom_se,
            "markov_ok": bool(fraction <= markov_cap + 3.0 * binom_se),
        })
    return {"cells": cells}


def _validation_pipelines(config: ExperimentConfig) -> list[tuple[str, int]]:
    """The (pipeline, N) pairs to validate: least squares at N < m, min-norm
    and, given s, pruned BPDN at N > m, less those `pipelines` leaves out.
    Selecting none, or bpdn_pruned without s, raises InvalidArgumentError."""
    if config.s is None and "bpdn_pruned" in (config.pipelines or ()):
        raise InvalidArgumentError("the bpdn_pruned pipeline needs s, its pruning size")
    pipes = []
    for n in config.n_grid:
        if n < config.m:
            pipes.append(("least_squares", n))
        elif n > config.m:
            pipes.append(("min_norm", n))
            if config.s is not None:
                pipes.append(("bpdn_pruned", n))
    if config.pipelines is not None:
        pipes = [p for p in pipes if p[0] in config.pipelines]
    if not pipes:
        raise InvalidArgumentError(
            f"no pipeline to validate at m = {config.m}, N in {list(config.n_grid)}: "
            "least_squares needs N < m, min_norm and bpdn_pruned N > m")
    return pipes


def run_bound_validation(config: ExperimentConfig) -> dict:
    """Risk-bound coverage for the three training pipelines at the configured
    parameter points, after the inputs all bounds share, `rho_norm` and
    `noise_bound` E.  The hypotheses of each pipeline's bound, in both the
    strict and the permissive mode, are checked once before any trial (none
    depends on a draw); each trial builds its report row, with a bound value
    that never depends on the mode.  Each trial's risk is computed as
    `_train_and_test` decides and says how (`risk_method`); a Monte Carlo risk
    carries its standard error std(|f - f#|^2) / sqrt(n_test), the closed form
    none (`risk_se` null).
    Next to the coverage, `bound_over_risk` is the smallest bound / risk over
    the trials (inf when every risk is 0): coverage against a bound many
    orders above the risk says little about the bound."""
    _require_fourier(config, "bound validation")
    if config.n_test < 2:
        raise InvalidArgumentError(
            "bound validation needs n_test >= 2 for the risk's standard error")
    if config.noise_snr is not None:
        raise InvalidArgumentError(
            "bound validation needs a fixed noise model; snr noise is not supported")
    selected = _validation_pipelines(config)
    target = sample_target(config.target_kind, config.d, config.sigma,
                           split_stream(config.seed, 0).substream(TAG_TARGET),
                           FOURIER, config.planted_s, config.bump_width)
    if target.rho_norm is None:
        raise InvalidArgumentError(
            "bound validation needs a target with finite rho-norm (gaussian_bump)")

    E = config.noise.bound
    rho = target.rho_norm
    cells = []  # (pipeline, N, s, epsilon, xi, conditions by mode)
    for name, n in selected:
        s = min(config.s, n) if name == "bpdn_pruned" else None  # only it prunes
        eps = epsilon_bound(n, config.m, config.d, config.gamma, config.sigma, config.delta)
        cells.append((name, n, s, eps, bp_noise_parameter(eps, rho, E),
                      _bound_conditions(config, name, n, s)))

    def one_trial(cell: tuple, t: int) -> dict:
        name, n, s, eps, xi, _ = cell
        stream = split_stream(config.seed, t).substream(_TAG_PIPELINE, n, _PIPE_TAGS[name])
        X, W, A = random_features(config.d, config.m, n, config.gamma, config.sigma,
                                  stream, FOURIER)
        coeff, risk = _train_and_test(config, target, name, X, W, A, stream, xi, s)
        if FLAG_SINGULAR_GRAM in coeff.flags:
            raise NumericalFailureError(
                "row Gram AA* is numerically singular; interpolation unavailable")
        theta = (best_s_term_error(best_phi_coeffs(target, W), s, 1)
                 if name == "bpdn_pruned" else None)
        bound = _risk_bound(config, name, n, rho, E, s, eps, theta)
        return {"trial": t, "empirical_risk": risk.value, "risk_se": risk.se,
                "risk_method": risk.method, "bound_value": bound,
                "covered": bool(risk.value <= bound),
                "train_residual": coeff.residual_norm,
                "nnz": int(np.count_nonzero(coeff.values)),
                "iterations": coeff.iterations, "duality_gap": coeff.duality_gap,
                "flags": list(coeff.flags)}

    pipelines = []
    for (name, n, s, eps, _, conditions), trial_rows in zip(
            cells, _map_cells(one_trial, cells, config)):
        pipelines.append({
            "name": name, "N": int(n), "s": s, "epsilon": eps,
            "coverage": sum(r["covered"] for r in trial_rows) / config.trials,
            "bound_over_risk": min((r["bound_value"] / r["empirical_risk"]
                                    for r in trial_rows if r["empirical_risk"] > 0),
                                   default=math.inf),
            "mean_risk": float(np.mean([r["empirical_risk"] for r in trial_rows])),
            "conditions": conditions,
            "trials": trial_rows,
        })
    return {"rho_norm": rho, "noise_bound": E, "pipelines": pipelines}


def run_rip_study(config: ExperimentConfig, method: str, budget: int,
                  rip_trials: int) -> dict:
    """Restricted isometry constants delta_s, s = 1..config.s (default N), of
    one normalized Fourier instance A / sqrt(m) at the grid's single N (ReLU
    features are refused before any draw).  Each s whose C(N, s) supports
    fit in `budget` is enumerated exactly; past the budget, "exact" raises
    EnumerationBudgetError and "auto" lower-bounds delta_s from `rip_trials`
    random supports.  delta_s is nondecreasing in s, so a random lower bound is
    raised to the value reported at s - 1, itself a lower bound on delta_s;
    exact values are reported as computed."""
    _require_fourier(config, "the rip study", "sqrt(m)")
    if len(config.n_grid) != 1:
        raise InvalidArgumentError(
            f"the rip study takes a single N, got {len(config.n_grid)} values")
    if method not in ("auto", "exact"):
        raise InvalidArgumentError(f"unknown rip method {method!r}")
    if budget < 1:
        raise InvalidArgumentError(f"budget must be at least 1 support, got {budget}")
    if rip_trials < 1:
        raise InvalidArgumentError(f"rip_trials must be at least 1, got {rip_trials}")
    n = config.n_grid[0]
    s_max = config.s if config.s is not None else n
    if not 1 <= s_max <= n:
        raise InvalidArgumentError(f"s must be in [1, {n}]")
    stream = split_stream(config.seed, 0)
    _, _, A = random_features(config.d, config.m, n, config.gamma, config.sigma, stream, FOURIER)
    A_norm = A / np.sqrt(config.m)
    estimates = []
    for s in range(1, s_max + 1):
        try:
            est = rip_constant_exact(A_norm, s, budget)
        except EnumerationBudgetError:
            if method == "exact":
                raise
            est = rip_constant_lower_mc(A_norm, s, rip_trials,
                                        stream.substream(TAG_SUPPORTS, s))
            if estimates:
                est = replace(est, value=max(est.value, estimates[-1]["value"]))
        estimates.append(asdict(est))
    return {"estimates": estimates}
