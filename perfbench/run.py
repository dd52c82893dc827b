#!/usr/bin/env python3
"""Benchmark of the rfcond CLI on four paper workloads.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Each repetition runs one workload through ``rfcond.cli.main`` in a fresh
Python process (``perfbench/child.py``). Repetitions run one after another
with ``--workers 1`` and the BLAS thread pools pinned to one thread, and keep
starting until ``--seconds`` have passed (at least three of them). Every
repetition's outputs are checked. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics as medians over the repetitions with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A traced run alternates untraced and
traced repetitions, so the tracing overhead is measured in the same run.

The full report (per-repetition values, output digests, machine facts, layer
shares and the spans of the last traced repetition) is written under
``perfbench/out/``. See ``perfbench/README.md`` for why each workload is there.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "out"
REFERENCE = HERE / "reference.json"
CHILD = HERE / "child.py"
CALIBRATE = HERE / "calibrate.py"

MIN_REPS = 3
# No repetition starts after LAST_START_S and every one is stopped at
# DEADLINE_S, so a run ends within 180 s.
LAST_START_S = 120.0
DEADLINE_S = 170.0
# The CLI seed is the benchmark seed modulo REF_SEEDS: result_rel_err needs a
# recorded reference for every input the benchmark can generate.
REF_SEEDS = 8
# The host's speed swings by up to 1.5x for minutes at a time, which no
# number of repetitions averages out. So run_s and setup_s are reported at a
# fixed machine speed: a repetition's wall seconds times CAL_REF_S over the
# time calibrate.py took right after it. CAL_REF_S is calibrate.py's time on
# the 2-core machine of baseline.json when that machine ran fast, so at that
# speed the reported seconds are wall seconds. The wall seconds are in the
# report.
CAL_REF_S = 0.37
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1"}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "features.entries": "count",
    "features.max_matrix_mb": "MB",
    "spectral.factorizations": "count",
    "solvers.factorizations": "count",
    "solvers.failed": "count",
    "io.bytes": "bytes",
}

# Workload sizes. "full" is the ROADMAP size. "bench" is cut to 1-3 s per
# repetition, so that a 25 s run holds six or more repetitions and reports
# steady medians: density and validate keep their matrix shapes with 1 trial
# instead of 10; sweep keeps 10 trials, which its argmax check needs, and
# stops the N grid at 200 (cells are seeded by N, so each one is the full
# panel's cell). "tiny" is for the harness self-test.
FIG1_SIGMA = repr(math.sqrt(0.1))
_SWEEP = ["sweep", "--d", "3", "--m", "100", "--sigma", FIG1_SIGMA,
          "--target", "linear", "--noise", "snr:0.1", "--trials", "10"]
_DENSITY = ["spectrum", "--d", "50", "--m", "150"]
_VALIDATE = ["validate", "--d", "12", "--m", "16", "--n-grid", "15000",
             "--target", "bump:1.41421356", "--pipelines", "min_norm",
             "--permissive-constants"]
_RIP = ["rip", "--d", "2", "--m", "30", "--method", "exact"]
WORKLOADS = {
    "sweep": {"full": _SWEEP + ["--n-grid", "10:500:10"],
              "bench": _SWEEP + ["--n-grid", "10:200:10"],
              "tiny": ["sweep", "--d", "3", "--m", "20", "--n-grid", "4:60:4",
                       "--sigma", FIG1_SIGMA, "--target", "linear", "--noise", "snr:0.1",
                       "--trials", "2", "--n-test", "50"]},
    "density": {"full": _DENSITY + ["--trials", "10"], "bench": _DENSITY + ["--trials", "1"],
                "tiny": ["spectrum", "--d", "5", "--m", "12", "--trials", "2"]},
    "validate": {"full": _VALIDATE + ["--trials", "10"], "bench": _VALIDATE + ["--trials", "1"],
                 "tiny": _VALIDATE + ["--trials", "2", "--n-test", "50"]},
    "rip": {"full": _RIP + ["--n-grid", "20", "--s", "6"],
            "bench": _RIP + ["--n-grid", "20", "--s", "6"],
            "tiny": _RIP + ["--n-grid", "8", "--s", "3"]},
}
SCALING_LABELS = ("N=m", "N=m log m", "N=m log^3 m", "m=N log N", "m=N log^3 N")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _density_rows(out: Path) -> list[tuple[str, float]]:
    with open(out / "density.csv", encoding="utf-8", newline="") as fh:
        return [(row["scaling"], float(row["value"])) for row in csv.DictReader(fh)]


# Output checks: each returns the list of problems found in a CLI output dir.

def check_sweep(out: Path) -> list[str]:
    report = _read_json(out / "sweep_summary.json")
    m, summary = report["config"]["m"], report["summary"]
    return [f"{key} = {summary[key]}, expected m = {m}"
            for key in ("cond_argmax_n", "risk_argmax_n") if summary[key] != m]


def check_density(out: Path) -> list[str]:
    peaks: dict[str, float] = {}
    for label, value in _density_rows(out):
        peaks[label] = max(value, peaks.get(label, -math.inf))
    problems = [f"curve {label!r} peaks at {peak!r}, not 1"
                for label, peak in peaks.items() if peak != 1.0]
    if sorted(peaks) != sorted(SCALING_LABELS):
        problems.append(f"scalings {sorted(peaks)} != {sorted(SCALING_LABELS)}")
    return problems


def check_validate(out: Path) -> list[str]:
    problems = []
    for p in _read_json(out / "validate.json")["pipelines"]:
        conditions = p["conditions"]
        if not p["coverage"] >= 0.95:
            problems.append(f"{p['name']} coverage {p['coverage']} < 0.95")
        if conditions["permissive"]["satisfied"] is not True:
            problems.append(f"{p['name']} permissive conditions not satisfied")
        if conditions["strict"]["satisfied"] is not False:
            problems.append(f"{p['name']} strict conditions satisfied")
    return problems


def check_rip(out: Path) -> list[str]:
    values = [float(e["value"]) for e in _read_json(out / "rip.json")["estimates"]]
    problems = [f"value at s={s + 2} ({b!r}) below s={s + 1} ({a!r})"
                for s, (a, b) in enumerate(zip(values, values[1:])) if b < a]
    if not values[0] <= 1e-12:
        problems.append(f"s=1 value {values[0]!r} > 1e-12")
    return problems


CHECKS = {"sweep": check_sweep, "density": check_density, "validate": check_validate,
          "rip": check_rip}


# Headline numbers, compared against the recorded reference.

def headline(workload: str, out: Path) -> dict[str, list[float]]:
    if workload == "sweep":
        s = _read_json(out / "sweep_summary.json")["summary"]
        return {k: [float(v) for v in s[k]] for k in ("mean_cond_number", "mean_empirical_risk")}
    if workload == "density":
        entries = _read_json(out / "spectrum_summary.json")["scalings"]
        numbers = {"sv_min": [float(e["sv_min"]) for e in entries],
                   "sv_max": [float(e["sv_max"]) for e in entries]}
        for label, value in _density_rows(out):
            numbers.setdefault(f"curve {label}", []).append(value)
        return numbers
    if workload == "validate":
        pipelines = _read_json(out / "validate.json")["pipelines"]
        return {"mean_risk": [float(p["mean_risk"]) for p in pipelines],
                "trial_risk": [float(t["empirical_risk"]) for p in pipelines
                               for t in p["trials"]]}
    return {"rip": [float(e["value"]) for e in _read_json(out / "rip.json")["estimates"]]}


def _rel_dev(x: float, ref: float) -> float:
    if x == ref:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(ref)):
        return math.inf
    return abs(x - ref) / abs(ref) if ref != 0 else abs(x)


def rel_err(numbers: dict[str, list[float]], reference: dict[str, list[float]]) -> float:
    """Largest elementwise relative deviation; a missing or resized group is inf."""
    worst = 0.0
    for key in numbers.keys() | reference.keys():
        got, ref = numbers.get(key), reference.get(key)
        if got is None or ref is None or len(got) != len(ref):
            return math.inf
        worst = max([worst, *(_rel_dev(x, r) for x, r in zip(got, ref))])
    return worst


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def cli_argv(workload: str, scale: str, cli_seed: int, out: Path) -> list[str]:
    return WORKLOADS[workload][scale] + ["--seed", str(cli_seed), "--workers", "1",
                                         "--out", str(out)]


def run_rep(workload: str, argv: list[str], out: Path, traced: bool, run_id: str,
            timeout: float = DEADLINE_S) -> dict:
    """Run one repetition in a fresh process and check its outputs."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = out.parent / f"{out.name}.child.json"
    result_path.unlink(missing_ok=True)
    env = {**os.environ, **PINS}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(result_path), "1" if traced else "0", run_id, *argv],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "problems": [f"stopped after {timeout:.0f} s"]}
    rep: dict = {"traced": traced, "rc": proc.returncode, "problems": []}
    if proc.returncode != 0:
        rep["problems"].append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    if not result_path.exists():
        rep["problems"].append("no child result")
        return rep
    child = _read_json(result_path)
    stamps = child["stamps"]
    if "enter" in stamps and "exit" in stamps:
        rep["setup_s"] = stamps["enter"] - t_spawn
        rep["run_s"] = stamps["exit"] - stamps["enter"]
    rep["peak_rss_mb"] = child["peak_rss_kb"] / 1024.0
    rep["facts"] = child["facts"]
    rep["trace"] = child.get("trace")
    if proc.returncode == 0:
        try:
            rep["problems"] += CHECKS[workload](out)
            rep["headline"] = headline(workload, out)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            rep["problems"].append(f"unreadable output: {exc!r}")
        rep["digests"] = digests(out)
    return rep


def calibration_s(timeout: float) -> float | None:
    try:
        proc = subprocess.run([sys.executable, str(CALIBRATE)], env={**os.environ, **PINS},
                              capture_output=True, text=True, timeout=timeout)
        return float(proc.stdout) if proc.returncode == 0 else None
    except (subprocess.TimeoutExpired, ValueError):
        return None


def _spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def run_workload(workload: str, scale: str, seed: int, seconds: float, trace: bool) -> dict:
    cli_seed = seed % REF_SEEDS
    out_root = WORK / workload
    argv = cli_argv(workload, scale, cli_seed, out_root / "cli")
    reference = _read_json(REFERENCE).get(f"{workload}/{scale}/{cli_seed}")
    reps: list[dict] = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        if time.monotonic() - start > LAST_START_S:
            break
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(workload, argv, out_root / "cli", traced,
                      f"{workload}-{scale}-seed{seed}-rep{len(reps)}",
                      DEADLINE_S - (time.monotonic() - start))
        if not traced and "run_s" in rep:
            rep["cal_s"] = calibration_s(DEADLINE_S - (time.monotonic() - start))
            if rep["cal_s"] is None:
                rep["problems"].append("calibration failed")
        reps.append(rep)

    failed = sum(1 for r in reps if r["problems"])
    errs = [rel_err(r["headline"], reference) for r in reps
            if reference is not None and "headline" in r]
    timed = [r for r in reps if "run_s" in r]
    report = {
        "workload": workload, "scale": scale, "seed": seed, "cli_seed": cli_seed,
        "cli_argv": argv, "trace": trace, "seconds": seconds,
        "attempted": len(reps), "failed": failed, "failed_ratio": failed / len(reps),
        "result_rel_err": max(errs) if errs else None,
        "problems": sorted({p for r in reps for p in r["problems"]}),
        "facts": next((r["facts"] for r in reps if "facts" in r), None),
        "digests": next((r["digests"] for r in reps if "digests" in r), None),
        "digests_identical": len({json.dumps(r.get("digests")) for r in reps}) == 1,
        "reps": [{k: r.get(k) for k in ("traced", "setup_s", "run_s", "cal_s", "peak_rss_mb")}
                 for r in reps],
    }
    untraced = [r for r in timed if not r["traced"] and r.get("cal_s")]
    if untraced:
        report["end_to_end"] = {
            "run_s": _spread([r["run_s"] * CAL_REF_S / r["cal_s"] for r in untraced]),
            "setup_s": _spread([r["setup_s"] * CAL_REF_S / r["cal_s"] for r in untraced]),
            "peak_rss_mb": _spread([r["peak_rss_mb"] for r in untraced]),
        }
        report["wall"] = {name: _spread([r[name] for r in untraced])
                          for name in ("run_s", "setup_s", "cal_s")}
    traced_reps = [r for r in timed if r["traced"] and r.get("trace")]
    if traced_reps:
        report.update(layer_report(traced_reps, untraced))
    return report


def layer_report(traced: list[dict], untraced: list[dict]) -> dict:
    traces = [r["trace"] for r in traced]
    first = traces[0]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = first["layers"][layer]["calls"]
        metrics[f"{layer}.self_s"] = statistics.median(t["layers"][layer]["self_s"]
                                                       for t in traces)
    metrics["features.entries"] = first["features.entries"]
    metrics["features.max_matrix_mb"] = first["features.max_matrix_mb"]
    metrics["spectral.factorizations"] = first["layers"]["spectral"]["factorizations"]
    metrics["solvers.factorizations"] = first["layers"]["solvers"]["factorizations"]
    metrics["solvers.failed"] = first["layers"]["solvers"]["failed"]
    metrics["io.bytes"] = first["io.bytes"]
    traced_run_s = statistics.median(r["run_s"] for r in traced)
    shares = {layer: metrics[f"{layer}.self_s"] / traced_run_s for layer in LAYERS}
    shares["unattributed"] = 1.0 - sum(shares.values())

    def counts(t):
        return {layer: (c["calls"], c["failed"], c["factorizations"])
                for layer, c in t["layers"].items()}

    return {
        "per_layer": metrics,
        "layer_shares_of_traced_run_s": shares,
        "traced_run_s": traced_run_s,
        "trace_overhead_s": (traced_run_s - statistics.median(r["run_s"] for r in untraced)
                             if untraced else None),
        "counts_repeat": all(counts(t) == counts(first) for t in traces),
        "factorizations_outside_spans": first["factorizations_outside_spans"],
        "unwrapped": first["unwrapped"],
        "spans": first["spans"],
    }


def result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = {name: {"value": report["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": report["end_to_end"][name]["median"], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def summary_lines(report: dict, report_path: Path) -> list[str]:
    lines = [f"workload {report['workload']} scale {report['scale']} seed {report['seed']} "
             f"(cli --seed {report['cli_seed']}) trace {int(report['trace'])}: "
             f"{report['attempted']} repetitions, {report['failed']} failed"]
    for name, s in report.get("end_to_end", {}).items():
        lines.append(f"  {name:<14} median {s['median']:.6g} {END_TO_END_UNITS[name]}"
                     f" (min {s['min']:.6g}, max {s['max']:.6g}, n={s['n']})")
    for name, s in report.get("wall", {}).items():
        lines.append(f"  wall {name:<9} median {s['median']:.6g} s"
                     f" (min {s['min']:.6g}, max {s['max']:.6g})")
    lines.append(f"  {'failed_ratio':<14} {report['failed_ratio']:.6g}")
    err = report["result_rel_err"]
    lines.append(f"  {'result_rel_err':<14} {'no reference' if err is None else repr(err)}")
    if report["trace"] and "per_layer" in report:
        lines.append(f"  trace overhead {report['trace_overhead_s']!r} s on run_s")
        for layer, share in report["layer_shares_of_traced_run_s"].items():
            lines.append(f"  share {layer:<12} {share:7.1%}")
    lines += [f"  problem: {p}" for p in report["problems"]]
    lines.append(f"report: {report_path.relative_to(ROOT)}")
    return lines


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "full", "tiny"), default="bench",
                        help="bench (default), full (ROADMAP sizes) or tiny (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (ROOT / "src" / "rfcond" / "cli.py").is_file():
        print(f"error: no rfcond sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    report = run_workload(args.workload, args.scale, args.seed, args.seconds,
                          bool(args.trace))
    if "end_to_end" not in report or (args.trace and "per_layer" not in report):
        print("error: no repetition produced timings: " + "; ".join(report["problems"]),
              file=sys.stderr)
        return 1
    report_path = WORK / (f"report-{args.workload}-{args.scale}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print("\n".join(summary_lines(report, report_path)))
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
