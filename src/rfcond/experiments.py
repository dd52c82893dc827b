"""Experiment harness: double-descent sweeps, singular-value density studies,
interpolation-threshold statistics, risk-bound validation, and the restricted
isometry study of one instance.  Every protocol samples its instances with
`random_features`.

Trials are pure functions of (master seed, trial index); the harness may fan
them out over a thread pool and always aggregates in trial order, so output
bytes are independent of the worker count -- provided the BLAS thread pools
are pinned to one thread before numpy loads, as ``rfcond.cli`` and the test
suite do.  A multithreaded BLAS may split a reduction differently from call to
call, so a library caller with ``workers > 1`` and unpinned BLAS can see
results that differ in the last bits.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

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
    least_squares,
    min_norm_interpolate,
    prune_top_s,
)
from .spectral import (
    SIDE_COLUMNS,
    SIDE_ROWS,
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
    sample_target,
    target_to_json,
)
from .theory import (
    DEFAULT_CONSTANTS,
    BoundResult,
    TheoryConstants,
    bp_noise_parameter,
    epsilon_bound,
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


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    m: int
    n_grid: tuple[int, ...]
    gamma: float = 1.0
    sigma: float = 1.0
    feature_kind: str = FOURIER
    noise: NoiseModel = NOISE_NONE
    noise_snr: float | None = None  # gaussian level derived per trial as snr * std(clean outputs)
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
    compute_bounds: bool = False
    constants: TheoryConstants = DEFAULT_CONSTANTS
    workers: int = 1
    scalings: tuple[str, ...] = SCALING_LABELS
    pipelines: tuple[str, ...] | None = None  # None = all regime-appropriate ones

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise InvalidArgumentError("d and m must be positive")
        if len(self.n_grid) == 0:
            raise InvalidArgumentError("n_grid must be non-empty")
        if any(n < 1 for n in self.n_grid):
            raise InvalidArgumentError("n_grid entries must be positive")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise InvalidArgumentError("n_grid must be strictly ascending")
        if self.trials < 1:
            raise InvalidArgumentError("trials must be >= 1")
        if self.workers < 1:
            raise InvalidArgumentError("workers must be >= 1")
        if self.feature_kind not in (FOURIER, RELU):
            raise InvalidArgumentError(f"unknown feature kind {self.feature_kind!r}")
        unknown = set(self.scalings) - set(SCALING_LABELS)
        if unknown:
            raise InvalidArgumentError(f"unknown scaling labels {sorted(unknown)}")
        if self.pipelines is not None:
            bad = set(self.pipelines) - set(_PIPE_TAGS)
            if bad:
                raise InvalidArgumentError(f"unknown pipelines {sorted(bad)}")

    def config_dict(self) -> dict:
        # The worker count is an execution detail, not an experiment
        # parameter; leaving it out keeps report bytes worker-independent.
        return {
            "d": self.d, "m": self.m, "n_grid": list(self.n_grid),
            "gamma": self.gamma, "sigma": self.sigma,
            "feature_kind": self.feature_kind,
            "noise": {"kind": self.noise.kind, "level": self.noise.level},
            "noise_snr": self.noise_snr,
            "target_kind": self.target_kind, "planted_s": self.planted_s,
            "bump_width": self.bump_width,
            "trials": self.trials, "seed": self.seed, "tol": self.tol,
            "n_test": self.n_test, "delta": self.delta, "eta": self.eta,
            "s": self.s,
            "constants_mode": self.constants.mode,
        }


@dataclass(frozen=True)
class SweepRow:
    N: int
    m: int
    d: int
    trial: int
    cond_number: float
    lambda_min: float
    lambda_max: float
    train_residual: float
    empirical_risk: float
    bound_value: float | None


SWEEP_COLUMNS = [f.name for f in fields(SweepRow)]


def random_features(d: int, m: int, n: int, gamma: float, sigma: float, stream: RngStream,
                    kind: str = FOURIER) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The instance sampler of every protocol: X ~ N(0, gamma^2 I_d) (d x m) and
    W ~ N(0, sigma^2 I_d) (d x n) from fixed substreams of `stream`, so one
    stream reproduces the whole instance, and the m x n feature matrix A."""
    X = gaussian_matrix(d, m, gamma**2, stream.substream(TAG_DATA))
    W = gaussian_matrix(d, n, sigma**2, stream.substream(TAG_WEIGHTS))
    return X, W, build_features(X, W, kind)


def _map_trials(fn, trials: int, workers: int) -> list:
    if workers <= 1 or trials <= 1:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials)))


def _train_and_test(config: ExperimentConfig, target: TargetFunction, pipeline: str,
                    X: np.ndarray, W: np.ndarray, A: np.ndarray, stream,
                    xi: float | None = None,
                    s: int | None = None) -> tuple[CoefficientVector, float, NoiseModel]:
    """(fit, test risk, noise model): fit `pipeline` to the target plus noise
    from the noise substream of `stream` at X (bpdn_pruned: BPDN at level `xi`,
    pruned to `s` terms), then take the Monte Carlo risk mean |f(z) - f#(z)|^2
    over n_test points z ~ N(0, gamma^2 I_d) from the test substream.  snr
    noise resolves to a Gaussian of level snr * std(clean outputs)."""
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
    else:
        coeff = prune_top_s(bpdn(A, y, xi, config.tol), s)
    Z = gaussian_matrix(config.d, config.n_test, config.gamma**2, stream.substream(TAG_TEST))
    preds = evaluate_model(W, coeff, Z, config.feature_kind)
    return coeff, float(np.mean(np.abs(target.evaluate(Z) - preds) ** 2)), noise


def _risk_bound(config: ExperimentConfig, pipeline: str, n: int, rho: float, E: float,
                constants: TheoryConstants, s: int | None = None,
                eps: float | None = None, theta: float | None = None) -> BoundResult:
    """The paper's risk bound for `pipeline` at N = n; the pruned sparse
    pipeline also needs s, epsilon and the best s-term error theta."""
    if pipeline == "least_squares":
        return risk_bound_ls(n, config.m, config.d, config.gamma, config.sigma,
                             config.delta, config.eta, rho, E, constants)
    if pipeline == "min_norm":
        return risk_bound_minnorm(n, config.m, config.d, config.gamma, config.sigma,
                                  config.delta, config.eta, rho, E, constants)
    return risk_bound_bp(n, config.m, s, config.delta, eps, rho, E, theta, constants,
                         d=config.d, gamma=config.gamma, sigma=config.sigma)


def _sweep_trial(config: ExperimentConfig, trial: int) -> list[SweepRow]:
    base = split_stream(config.seed, trial)
    target = sample_target(config.target_kind, config.d, config.sigma,
                           base.substream(TAG_TARGET), config.feature_kind,
                           config.planted_s, config.bump_width)
    rows = []
    for n in config.n_grid:
        cell = base.substream(_TAG_GRID, n)
        X, W, A = random_features(config.d, config.m, n, config.gamma, config.sigma,
                                  cell, config.feature_kind)
        side = SIDE_COLUMNS if n <= config.m else SIDE_ROWS
        spec = gram_spectrum_via_svd(A, side)

        # A singular row Gram keeps the trial with the flagged pseudoinverse
        # fit; its infinite condition number is in the spectral summary.
        pipeline = "least_squares" if n < config.m else "min_norm"
        coeff, risk, noise = _train_and_test(config, target, pipeline, X, W, A, cell)

        bound = None
        if config.compute_bounds and target.rho_norm is not None and n != config.m:
            bound = _risk_bound(config, pipeline, n, target.rho_norm, noise.bound,
                                config.constants).value

        rows.append(SweepRow(N=n, m=config.m, d=config.d, trial=trial,
                             cond_number=spec.cond_number,
                             lambda_min=spec.lambda_min, lambda_max=spec.lambda_max,
                             train_residual=coeff.diagnostics.residual_norm,
                             empirical_risk=risk, bound_value=bound))
    return rows


def _rescale_unit(values: np.ndarray) -> np.ndarray:
    """Min-max rescale to [0, 1]; infinities are clipped to the finite max first."""
    v = np.asarray(values, dtype=float).copy()
    finite = np.isfinite(v)
    if not finite.any():
        return np.zeros_like(v)
    v[~finite] = v[finite].max()
    lo, hi = v.min(), v.max()
    if hi == lo:
        return np.zeros_like(v)
    return (v - lo) / (hi - lo)


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    summary: dict


def run_double_descent_sweep(config: ExperimentConfig) -> SweepResult:
    """Figure-1 protocol: for each N and trial, build features, train (least
    squares below the threshold, min-norm at and above it), and record the
    conditioning of the relevant normalized Gram plus the test risk."""
    per_trial = _map_trials(lambda t: _sweep_trial(config, t), config.trials, config.workers)
    rows = [per_trial[t][ni]
            for ni in range(len(config.n_grid))
            for t in range(config.trials)]

    grid = np.asarray(config.n_grid)
    mean_cond = np.array([
        float(np.mean([per_trial[t][ni].cond_number for t in range(config.trials)]))
        for ni in range(len(grid))
    ])
    mean_risk = np.array([
        float(np.mean([per_trial[t][ni].empirical_risk for t in range(config.trials)]))
        for ni in range(len(grid))
    ])
    cond_idx = int(np.argmax(mean_cond))
    risk_idx = int(np.argmax(mean_risk))
    summary = {
        "n_grid": [int(n) for n in grid],
        "mean_cond_number": mean_cond.tolist(),
        "mean_empirical_risk": mean_risk.tolist(),
        "cond_argmax_n": int(grid[cond_idx]),
        "risk_argmax_n": int(grid[risk_idx]),
        "cond_curve_rescaled": _rescale_unit(mean_cond).tolist(),
        "risk_curve_rescaled": _rescale_unit(mean_risk).tolist(),
    }
    return SweepResult(rows=rows, summary=summary)


def _solve_scaling(label: str, m: int) -> tuple[int, int]:
    """(m, N) for a scaling label; under-parameterized labels invert
    N log^k N = m over integers."""
    if label == "N=m":
        return m, m
    if label == "N=m log m":
        return m, max(2, round(m * math.log(m)))
    if label == "N=m log^3 m":
        return m, max(2, round(m * math.log(m) ** 3))
    power = 1 if label == "m=N log N" else 3
    best_n, best_err = 2, float("inf")
    for n in range(2, m + 1):
        err = abs(n * math.log(n) ** power - m)
        if err < best_err:
            best_n, best_err = n, err
    return m, best_n


@dataclass(frozen=True)
class DensityStudyEntry:
    label: str
    m: int
    n: int
    curve: DensityCurve
    sv_min: float
    sv_max: float


def run_spectrum_density(config: ExperimentConfig) -> list[DensityStudyEntry]:
    """Figure-2 protocol: pooled singular values of the normalized feature
    matrix over the trials, smoothed to a max-1 density curve per scaling."""
    entries = []
    for idx, label in enumerate(config.scalings):
        m, n = _solve_scaling(label, config.m)

        def one_trial(t: int, m=m, n=n, idx=idx) -> np.ndarray:
            stream = split_stream(config.seed, t).substream(_TAG_SCALING, idx)
            _, _, A = random_features(config.d, m, n, config.gamma, config.sigma, stream,
                                      config.feature_kind)
            return singular_values(A / math.sqrt(max(m, n)))

        pooled = np.concatenate(_map_trials(one_trial, config.trials, config.workers))
        curve = spectral_density(pooled)
        entries.append(DensityStudyEntry(label=label, m=m, n=n, curve=curve,
                                         sv_min=float(pooled.min()),
                                         sv_max=float(pooled.max())))
    return entries


def run_threshold_study(config: ExperimentConfig) -> dict:
    """Interpolation threshold statistics at m = N for each N in the grid:
    Monte Carlo means of the extreme eigenvalues of (1/N)A*A against their
    closed-form expectation bounds, plus the Markov small-eigenvalue check."""
    if config.trials < 2:
        raise InvalidArgumentError("the threshold study needs trials >= 2 for standard errors")
    cells = []
    for n in config.n_grid:
        def one_trial(t: int, n=n) -> tuple[float, float]:
            stream = split_stream(config.seed, t).substream(_TAG_GRID, n)
            _, _, A = random_features(config.d, n, n, config.gamma, config.sigma, stream,
                                      config.feature_kind)
            spec = gram_spectrum_via_svd(A, SIDE_COLUMNS)
            return spec.lambda_min, spec.lambda_max

        stats = _map_trials(one_trial, config.trials, config.workers)
        lam_min = np.array([s[0] for s in stats])
        lam_max = np.array([s[1] for s in stats])
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
            "trials": config.trials,
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
    return {"config": config.config_dict(), "cells": cells}


def _validation_pipelines(config: ExperimentConfig) -> list[tuple[str, int]]:
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
    return pipes


def run_bound_validation(config: ExperimentConfig) -> dict:
    """Risk-bound coverage for the three training pipelines at the configured
    parameter points.  Bound values use the configured proof constants; the
    hypothesis checks are reported for both strict and permissive modes."""
    if config.noise_snr is not None:
        raise InvalidArgumentError(
            "bound validation needs a fixed noise model; snr noise is not supported")
    target = sample_target(config.target_kind, config.d, config.sigma,
                           split_stream(config.seed, 0).substream(TAG_TARGET),
                           config.feature_kind, config.planted_s, config.bump_width)
    if target.rho_norm is None:
        raise InvalidArgumentError(
            "bound validation needs a target with finite rho-norm (gaussian_bump)")
    if config.feature_kind != FOURIER:
        raise InvalidArgumentError("bound validation is defined for fourier features")

    strict, permissive = TheoryConstants(permissive=False), TheoryConstants(permissive=True)
    E = config.noise.bound
    rho = target.rho_norm
    pipelines = []
    for name, n in _validation_pipelines(config):
        s = min(config.s, n) if config.s is not None else None
        eps = epsilon_bound(n, config.m, config.d, config.gamma, config.sigma, config.delta)
        xi = bp_noise_parameter(eps, rho, E)

        def one_trial(t: int, name=name, n=n, s=s, xi=xi) -> tuple[float, float | None]:
            stream = split_stream(config.seed, t).substream(_TAG_PIPELINE, n,
                                                            _PIPE_TAGS[name])
            X, W, A = random_features(config.d, config.m, n, config.gamma, config.sigma,
                                      stream, FOURIER)
            coeff, risk, _ = _train_and_test(config, target, name, X, W, A, stream, xi, s)
            if FLAG_SINGULAR_GRAM in coeff.diagnostics.flags:
                raise NumericalFailureError(
                    "row Gram AA* is numerically singular; interpolation unavailable")
            theta = (best_s_term_error(best_phi_coeffs(target, W), s, 1)
                     if name == "bpdn_pruned" else None)
            return risk, theta

        results = _map_trials(one_trial, config.trials, config.workers)

        def bound_for(constants, result, name=name, n=n, s=s, eps=eps):
            return _risk_bound(config, name, n, rho, E, constants, s, eps, result[1])

        trial_rows = []
        covered = 0
        for t, res in enumerate(results):
            b = bound_for(permissive, res)
            ok = res[0] <= b.value
            covered += ok
            trial_rows.append({"trial": t, "empirical_risk": res[0],
                               "bound_value": b.value, "covered": bool(ok)})
        rep_strict = bound_for(strict, results[0])
        rep_perm = bound_for(permissive, results[0])
        pipelines.append({
            "name": name, "m": config.m, "N": int(n), "s": s,
            "eta": config.eta, "delta": config.delta, "epsilon": eps,
            "noise_bound": E,
            "coverage": covered / config.trials,
            "mean_risk": float(np.mean([r[0] for r in results])),
            "conditions": {
                "strict": rep_strict.as_dict(),
                "permissive": rep_perm.as_dict(),
            },
            "trials": trial_rows,
        })
    return {
        "config": config.config_dict(),
        "target": target_to_json(target),
        "pipelines": pipelines,
    }


def run_rip_study(config: ExperimentConfig, method: str, budget: int,
                  rip_trials: int) -> dict:
    """Restricted isometry constants delta_s, s = 1..config.s (default N), of
    one normalized instance A / sqrt(m) at the grid's single N.  "exact"
    enumerates every support within `budget`; "mc" lower-bounds delta_s from
    `rip_trials` random supports; "auto" enumerates and falls back to the
    random lower bound once the budget is exceeded."""
    if len(config.n_grid) != 1:
        raise InvalidArgumentError(
            f"the rip study takes a single N, got {len(config.n_grid)} values")
    if method not in ("auto", "exact", "mc"):
        raise InvalidArgumentError(f"unknown rip method {method!r}")
    n = config.n_grid[0]
    s_max = config.s if config.s is not None else n
    if not 1 <= s_max <= n:
        raise InvalidArgumentError(f"s must be in [1, {n}]")
    stream = split_stream(config.seed, 0)
    _, _, A = random_features(config.d, config.m, n, config.gamma, config.sigma, stream,
                              config.feature_kind)
    A_norm = A / np.sqrt(config.m)
    estimates = []
    for s in range(1, s_max + 1):
        est = None
        if method != "mc":
            try:
                est = rip_constant_exact(A_norm, s, budget)
            except EnumerationBudgetError:
                if method == "exact":
                    raise
        if est is None:
            est = rip_constant_lower_mc(A_norm, s, rip_trials,
                                        stream.substream(TAG_SUPPORTS, s))
        estimates.append({"s": est.s, "value": est.value, "method": est.method,
                          "supports_evaluated": est.supports_evaluated})
    return {
        "config": {"d": config.d, "m": config.m, "N": n, "gamma": config.gamma,
                   "sigma": config.sigma, "features": config.feature_kind,
                   "seed": config.seed, "method": method,
                   "budget": budget, "rip_trials": rip_trials},
        "estimates": estimates,
    }
