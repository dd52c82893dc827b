"""Command line interface: rfcond sweep|spectrum|threshold|validate|theory|rip.

BLAS thread pools are pinned to one thread before numpy loads so that results
are bit-identical regardless of how many workers share a run's jobs.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .errors import InvalidArgumentError, NumericalFailureError
from .experiments import (
    SCALING_LABELS,
    SWEEP_COLUMNS,
    ExperimentConfig,
    run_bound_validation,
    run_double_descent_sweep,
    run_rip_study,
    run_spectrum_density,
    run_threshold_study,
)
from .features import FOURIER, RELU
from .io import json_report, write_csv, write_json
from .sampling import NOISE_NONE, NoiseModel
from .spectral import DEFAULT_ENUMERATION_BUDGET
from .svg import write_line_chart
from .targets import KIND_BUMP, KIND_LINEAR, KIND_PLANTED
from .theory import check_regime_conditions, failure_probability, hypotheses_by_mode

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_n_grid(text: str) -> tuple[int, ...]:
    """'a:b:step' (inclusive) or comma-separated values."""
    try:
        if ":" in text:
            a, b, step = (int(p) for p in text.split(":"))
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
    if kind == "snr":
        return NOISE_NONE, level
    if kind not in ("bounded", "gaussian"):
        raise InvalidArgumentError(f"unknown noise kind {kind!r}")
    return NoiseModel("bounded_uniform" if kind == "bounded" else kind, level), None


def _parse_target(text: str) -> tuple[str, int, float | None]:
    """'linear', 'planted:s', or 'bump:a' -> (kind, planted_s, bump_width)."""
    if text == "linear":
        return KIND_LINEAR, 2, None
    try:
        kind, value = text.split(":")
        if kind == "planted":
            return KIND_PLANTED, int(value), None
        if kind == "bump":
            return KIND_BUMP, 2, float(value)
    except ValueError:
        raise InvalidArgumentError(f"cannot parse target spec {text!r}") from None
    raise InvalidArgumentError(f"unknown target kind {kind!r}")


# Every option of every command, written once: flag -> argparse keywords.
# A command offers only the flags it reads; _build_config takes the default
# of a flag the command does not offer from this table.
_FLAGS = {
    "d": dict(type=int, default=3, help="data dimension"),
    "m": dict(type=int, default=100, help="number of samples"),
    "n-grid": dict(default="100", help="feature counts, a:b:step or comma list"),
    "gamma": dict(type=float, default=1.0, help="data std dev"),
    "sigma": dict(type=float, default=1.0, help="weight std dev"),
    "features": dict(choices=[FOURIER, RELU], default=FOURIER, help="feature map"),
    "noise": dict(default="none", help="none | bounded:E | gaussian:nu | snr:ratio"),
    "target": dict(default="linear", help="linear | planted:s | bump:a"),
    "trials": dict(type=int, default=10, help="Monte Carlo trials"),
    "seed": dict(type=int, default=0, help="master seed"),
    "tol": dict(type=float, default=1e-6, help="BPDN feasibility and duality-gap tolerance"),
    "eta": dict(type=float, default=0.5, help="eigenvalue band parameter"),
    "delta": dict(type=float, default=0.05, help="failure probability of the bounds"),
    "s": dict(type=int, default=None,
              help="sparsity: bpdn_pruned pruning size (validate), largest s (rip)"),
    "pipelines": dict(default=None,
                      help="comma list of least_squares,min_norm,bpdn_pruned (default: all)"),
    "n-test": dict(type=int, default=1000,
                   help="test points of the Monte Carlo risk, taken when nnz(c)^2 > n-test * N"),
    "workers": dict(type=int, default=1,
                    help="threads sharing the run's (cell, trial) jobs"),
    "out": dict(default="out", help="output directory"),
    "permissive-constants": dict(action="store_true", default=False,
                                 help="treat the universal condition constant as 1"),
    "scalings": dict(default="all",
                     help="semicolon-separated subset of: " + "; ".join(SCALING_LABELS)),
    "method": dict(choices=["auto", "exact"], default="auto",
                   help="past the budget: exact (refuse) or auto (random supports)"),
    "budget": dict(type=int, default=DEFAULT_ENUMERATION_BUDGET,
                   help="largest number of supports to enumerate"),
    "rip-trials": dict(type=int, default=200, help="random supports per s"),
}


def _build_config(args) -> ExperimentConfig:
    opt = {name: getattr(args, name.replace("-", "_"), spec["default"])
           for name, spec in _FLAGS.items()}
    noise, snr = _parse_noise(opt["noise"])
    target_kind, planted_s, bump_width = _parse_target(opt["target"])
    pipelines, scalings = None, SCALING_LABELS
    if opt["pipelines"] is not None:
        pipelines = tuple(p.strip() for p in opt["pipelines"].split(","))
    if opt["scalings"] != "all":
        scalings = tuple(s.strip() for s in opt["scalings"].split(";"))
    return ExperimentConfig(
        d=opt["d"], m=opt["m"], n_grid=_parse_n_grid(opt["n-grid"]),
        gamma=opt["gamma"], sigma=opt["sigma"], feature_kind=opt["features"],
        noise=noise, noise_snr=snr,
        target_kind=target_kind, planted_s=planted_s, bump_width=bump_width,
        trials=opt["trials"], seed=opt["seed"], tol=opt["tol"],
        n_test=opt["n-test"], delta=opt["delta"], eta=opt["eta"], s=opt["s"],
        workers=opt["workers"], scalings=scalings, pipelines=pipelines,
    )


def _config_block(args) -> dict:
    """The `config` block of every report: the command's offered flags, less
    --workers and --out, with their parsed values.  Read back as flags (true: a
    bare flag; false, null: left out; else --flag value), it replays the run."""
    return {name: getattr(args, name.replace("-", "_"))
            for name in _COMMANDS[args.command][2].split() if name not in ("workers", "out")}


def _write_report(args, name: str, payload: dict) -> Path:
    """Write the JSON report `name` under --out, its config block first."""
    path = Path(args.out) / name
    write_json(path, {"config": _config_block(args), **payload})
    return path


def _unit_scaled(values: list[float]) -> list[float]:
    """Min-max scale `values` to [0, 1] over their finite ones (all 0 when those
    are equal).  A non-finite value stays non-finite, so the chart leaves it out."""
    finite = [v for v in values if math.isfinite(v)]
    lo, hi = min(finite, default=0.0), max(finite, default=0.0)
    return [(v - lo) / (hi - lo or 1.0) for v in values]


def _cmd_sweep(args) -> int:
    result = run_double_descent_sweep(_build_config(args))
    out = Path(args.out)
    write_csv(out / "sweep.csv", SWEEP_COLUMNS, [dataclasses.astuple(r) for r in result.rows])
    _write_report(args, "sweep_summary.json", {"summary": result.summary})
    ns = [float(n) for n in result.summary["n_grid"]]
    write_line_chart(
        out / "sweep.svg",
        [("condition number (rescaled)", ns, _unit_scaled(result.summary["mean_cond_number"])),
         ("risk (rescaled)", ns, _unit_scaled(result.summary["mean_empirical_risk"]))],
        title="Double descent of conditioning and risk",
        x_label="number of features N", y_label="rescaled value",
    )
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    entries = run_spectrum_density(_build_config(args))
    out = Path(args.out)
    rows = [(e.label, g, v) for e in entries
            for g, v in zip(e.curve.grid.tolist(), e.curve.density.tolist())]
    write_csv(out / "density.csv", ["scaling", "grid", "value"], rows)
    _write_report(args, "spectrum_summary.json", {
        "scalings": [{"label": e.label, "N": e.n,
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


def _report_command(name: str, run):
    """Handler of a report-only command: writes `run(config, args)` as `name`."""
    def handler(args) -> int:
        print(f"wrote {_write_report(args, name, run(_build_config(args), args))}")
        return EXIT_OK
    return handler


def _cmd_theory(args) -> int:
    config = _build_config(args)
    if len(config.n_grid) != 1:
        raise InvalidArgumentError(f"theory takes a single N, got {len(config.n_grid)} values")
    m, n = config.m, config.n_grid[0]
    if m == n:
        raise InvalidArgumentError(f"the conditioning theorem states nothing at m = N = {n}; "
                                   "the threshold command studies m = N")
    conditions = hypotheses_by_mode(check_regime_conditions, m, n, config.d, config.gamma,
                                    config.sigma, config.eta)
    sys.stdout.write(json_report({"config": _config_block(args),
                                  "failure_probability": failure_probability(min(m, n), max(m, n)),
                                  "conditions": conditions}))
    return EXIT_OK


# command -> (handler, help, the flags it offers).  A report command's lambda
# looks its run_* up when called, so a wrapper set on this module applies.
_COMMANDS = {
    "sweep": (_cmd_sweep, "double-descent sweep over the N grid",
              "d m n-grid gamma sigma features noise target trials seed n-test workers out"),
    "spectrum": (_cmd_spectrum, "singular value densities under log scalings",
                 "d m gamma sigma trials seed workers out scalings"),
    "threshold": (_report_command("threshold.json", lambda c, a: run_threshold_study(c)),
                  "interpolation threshold statistics at m=N",
                  "d n-grid gamma sigma trials seed workers out"),
    "validate": (_report_command("validate.json", lambda c, a: run_bound_validation(c)),
                 "risk-bound coverage experiments",
                 "d m n-grid gamma sigma noise target trials seed n-test eta delta "
                 "permissive-constants tol s pipelines workers out"),
    "theory": (_cmd_theory, "print the conditioning theorem's hypotheses in both modes as JSON",
               "d m n-grid gamma sigma eta workers out"),
    "rip": (_report_command("rip.json", lambda c, a: run_rip_study(c, a.method, a.budget,
                                                                   a.rip_trials)),
            "restricted isometry constants of one instance",
            "d m n-grid gamma sigma seed s workers out method budget rip-trials"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfcond",
        description="Conditioning, double descent, and risk diagnostics for "
                    "random feature regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in flags.split():
            p.add_argument(f"--{name}", **_FLAGS[name])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
