"""Command line interface: rfcond sweep|spectrum|threshold|validate|theory|rip.

BLAS thread pools are pinned to one thread before numpy loads so that results
are bit-identical regardless of how many harness workers run trials.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConvergenceError,
    EnumerationBudgetError,
    InfeasibleProblemError,
    InvalidArgumentError,
    NumericalFailureError,
)
from .experiments import (
    SCALING_LABELS,
    SWEEP_COLUMNS,
    ExperimentConfig,
    run_bound_validation,
    run_double_descent_sweep,
    run_spectrum_density,
    run_threshold_study,
)
from .features import FOURIER, RELU, build_features
from .io import json_report, write_csv, write_json
from .sampling import NOISE_NONE, TAG_DATA, TAG_SUPPORTS, TAG_WEIGHTS, NoiseModel, gaussian_matrix, split_stream
from .spectral import DEFAULT_ENUMERATION_BUDGET, rip_constant_exact, rip_constant_lower_mc
from .svg import write_line_chart
from .targets import KIND_BUMP, KIND_LINEAR, KIND_PLANTED
from .theory import DEFAULT_CONSTANTS, TheoryConstants, check_regime_conditions

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_n_grid(text: str) -> tuple[int, ...]:
    """'a:b:step' (inclusive) or comma-separated values."""
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                parts.append(1)
            a, b, step = parts
            if step < 1 or b < a:
                raise ValueError
            return tuple(range(a, b + 1, step))
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InvalidArgumentError(f"cannot parse n-grid {text!r}") from None


def _parse_noise(text: str) -> tuple[NoiseModel, float | None]:
    """'none', 'bounded:E', 'gaussian:nu', or 'snr:ratio' (level derived per
    trial from the clean outputs)."""
    if text == "none":
        return NOISE_NONE, None
    try:
        kind, value = text.split(":")
        level = float(value)
    except ValueError:
        raise InvalidArgumentError(f"cannot parse noise spec {text!r}") from None
    if kind == "bounded":
        return NoiseModel("bounded_uniform", level), None
    if kind == "gaussian":
        return NoiseModel("gaussian", level), None
    if kind == "snr":
        return NOISE_NONE, level
    raise InvalidArgumentError(f"unknown noise kind {kind!r}")


def _parse_target(text: str) -> tuple[str, int, float | None]:
    """'linear', 'planted:s', or 'bump:a' -> (kind, planted_s, bump_width)."""
    if text == "linear":
        return KIND_LINEAR, 2, None
    try:
        kind, value = text.split(":")
    except ValueError:
        raise InvalidArgumentError(f"cannot parse target spec {text!r}") from None
    if kind == "planted":
        return KIND_PLANTED, int(value), None
    if kind == "bump":
        return KIND_BUMP, 2, float(value)
    raise InvalidArgumentError(f"unknown target kind {kind!r}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, default=3, help="data dimension")
    p.add_argument("--m", type=int, default=100, help="number of samples")
    p.add_argument("--n-grid", default="100", help="feature counts, a:b:step or comma list")
    p.add_argument("--gamma", type=float, default=1.0, help="data std dev")
    p.add_argument("--sigma", type=float, default=1.0, help="weight std dev")
    p.add_argument("--features", choices=[FOURIER, RELU], default=FOURIER)
    p.add_argument("--noise", default="none", help="none | bounded:E | gaussian:nu | snr:ratio")
    p.add_argument("--target", default="linear", help="linear | planted:s | bump:a")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--s", type=int, default=None, help="pruning size for sparse pipelines")
    p.add_argument("--pipelines", default=None,
                   help="comma list of least_squares,min_norm,bpdn_pruned (default: all)")
    p.add_argument("--n-test", type=int, default=1000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--permissive-constants", action="store_true",
                   help="treat the universal condition constant as 1")
    p.add_argument("--bounds", action="store_true",
                   help="attach risk-bound values to sweep rows")


def _build_config(args) -> ExperimentConfig:
    noise, snr = _parse_noise(args.noise)
    target_kind, planted_s, bump_width = _parse_target(args.target)
    constants = TheoryConstants(permissive=args.permissive_constants)
    pipelines = None
    if args.pipelines is not None:
        pipelines = tuple(p.strip() for p in args.pipelines.split(","))
    return ExperimentConfig(
        d=args.d, m=args.m, n_grid=_parse_n_grid(args.n_grid),
        gamma=args.gamma, sigma=args.sigma, feature_kind=args.features,
        noise=noise, noise_snr=snr,
        target_kind=target_kind, planted_s=planted_s, bump_width=bump_width,
        trials=args.trials, seed=args.seed, tol=args.tol,
        n_test=args.n_test, delta=args.delta, eta=args.eta, s=args.s,
        compute_bounds=args.bounds, constants=constants, workers=args.workers,
        pipelines=pipelines,
    )


def _cmd_sweep(args) -> int:
    config = _build_config(args)
    result = run_double_descent_sweep(config)
    out = Path(args.out)
    write_csv(out / "sweep.csv", SWEEP_COLUMNS, [r.as_tuple() for r in result.rows])
    write_json(out / "sweep_summary.json",
               {"config": config.config_dict(), "summary": result.summary})
    ns = [float(n) for n in result.summary["n_grid"]]
    write_line_chart(
        out / "sweep.svg",
        [("condition number (rescaled)", ns, result.summary["cond_curve_rescaled"]),
         ("empirical risk (rescaled)", ns, result.summary["risk_curve_rescaled"])],
        title="Double descent of conditioning and risk",
        x_label="number of features N", y_label="rescaled value",
    )
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    config = _build_config(args)
    if args.scalings != "all":
        labels = tuple(s.strip() for s in args.scalings.split(";"))
        config = dataclasses.replace(config, scalings=labels)
    entries = run_spectrum_density(config)
    out = Path(args.out)
    rows = [(e.label, float(g), float(v))
            for e in entries for g, v in zip(e.curve.grid, e.curve.density)]
    write_csv(out / "density.csv", ["scaling", "grid", "value"], rows)
    write_json(out / "spectrum_summary.json", {
        "config": config.config_dict(),
        "scalings": [{"label": e.label, "m": e.m, "N": e.n,
                      "sv_min": e.sv_min, "sv_max": e.sv_max,
                      "bandwidth": e.curve.bandwidth} for e in entries],
    })
    write_line_chart(
        out / "spectrum.svg",
        [(e.label, e.curve.grid.tolist(), e.curve.density.tolist()) for e in entries],
        title="Singular value densities of the normalized feature matrix",
        x_label="singular value", y_label="density (max 1)",
    )
    print(f"wrote {out / 'density.csv'}")
    return EXIT_OK


def _cmd_threshold(args) -> int:
    config = _build_config(args)
    report = run_threshold_study(config)
    out = Path(args.out)
    write_json(out / "threshold.json", report)
    print(f"wrote {out / 'threshold.json'}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = _build_config(args)
    report = run_bound_validation(config)
    out = Path(args.out)
    write_json(out / "validate.json", report)
    print(f"wrote {out / 'validate.json'}")
    return EXIT_OK


def _cmd_theory(args) -> int:
    constants = TheoryConstants(permissive=args.permissive_constants)
    n = _parse_n_grid(args.n_grid)[0]
    report = check_regime_conditions(args.m, n, args.d, args.gamma, args.sigma,
                                     args.eta, constants)
    sys.stdout.write(json_report(report.as_dict()))
    return EXIT_OK


def _cmd_rip(args) -> int:
    n = _parse_n_grid(args.n_grid)[0]
    s_max = args.s if args.s is not None else n
    if not 1 <= s_max <= n:
        raise InvalidArgumentError(f"--s must be in [1, {n}]")
    stream = split_stream(args.seed, 0)
    X = gaussian_matrix(args.d, args.m, args.gamma**2, stream.substream(TAG_DATA))
    W = gaussian_matrix(args.d, n, args.sigma**2, stream.substream(TAG_WEIGHTS))
    A = build_features(X, W, args.features)
    A_norm = A / np.sqrt(args.m)
    estimates = []
    for s in range(1, s_max + 1):
        if args.method == "mc":
            est = rip_constant_lower_mc(A_norm, s, args.rip_trials,
                                        stream.substream(TAG_SUPPORTS, s))
        else:
            try:
                est = rip_constant_exact(A_norm, s, args.budget)
            except EnumerationBudgetError:
                if args.method == "exact":
                    raise
                est = rip_constant_lower_mc(A_norm, s, args.rip_trials,
                                            stream.substream(TAG_SUPPORTS, s))
        estimates.append({"s": est.s, "value": est.value, "method": est.method,
                          "supports_evaluated": est.supports_evaluated})
    out = Path(args.out)
    write_json(out / "rip.json", {
        "config": {"d": args.d, "m": args.m, "N": n, "gamma": args.gamma,
                   "sigma": args.sigma, "features": args.features,
                   "seed": args.seed, "method": args.method,
                   "budget": args.budget, "rip_trials": args.rip_trials},
        "estimates": estimates,
    })
    print(f"wrote {out / 'rip.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfcond",
        description="Conditioning, double descent, and risk diagnostics for "
                    "random feature regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="double-descent sweep over the N grid")
    _add_common(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("spectrum", help="singular value densities under log scalings")
    _add_common(p)
    p.add_argument("--scalings", default="all",
                   help="semicolon-separated subset of: " + "; ".join(SCALING_LABELS))
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("threshold", help="interpolation threshold statistics at m=N")
    _add_common(p)
    p.set_defaults(fn=_cmd_threshold)

    p = sub.add_parser("validate", help="risk-bound coverage experiments")
    _add_common(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("theory", help="print the regime condition report as JSON")
    _add_common(p)
    p.add_argument("--report", action="store_true", default=True,
                   help="print the report to stdout (the only mode; accepted "
                        "for interface stability)")
    p.set_defaults(fn=_cmd_theory)

    p = sub.add_parser("rip", help="restricted isometry constants of one instance")
    _add_common(p)
    p.add_argument("--method", choices=["auto", "exact", "mc"], default="auto")
    p.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET)
    p.add_argument("--rip-trials", type=int, default=200)
    p.set_defaults(fn=_cmd_rip)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidArgumentError, EnumerationBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailureError, ConvergenceError, InfeasibleProblemError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
