"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live; the
full module finishes on a laptop in a few minutes.
"""

import itertools
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from rfcond.experiments import (
    ExperimentConfig,
    run_bound_validation,
    run_double_descent_sweep,
    run_spectrum_density,
    run_threshold_study,
)
from rfcond.features import random_features
from rfcond.sampling import NoiseModel, noise_vector, split_stream
from rfcond.solvers import (
    best_s_term_error,
    bpdn,
    least_squares,
    min_norm_interpolate,
    ridge,
)
from rfcond.spectral import (
    SIDE_COLUMNS,
    SIDE_ROWS,
    gram_spectrum_via_svd,
    rip_constant_exact,
    rip_constant_lower_mc,
)
from rfcond.targets import best_phi_coeffs, gaussian_bump_target
from rfcond.theory import K_eta, TheoryConstants, beta_overlap, eig_band, kappa_threshold, rip_bound_f

PERMISSIVE = TheoryConstants(permissive=True)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_closed_form_consistency():
    f_val = rip_bound_f(0.4, 0.02, 0.1)
    target = 4.0 / math.sqrt(41.0)
    ok_f = f_val <= target and abs(f_val - 0.6118) <= 1e-3

    lo, hi = eig_band(0.2)
    ok_k = abs(K_eta(0.2) - hi / lo) <= 1e-12

    ok_rt = True
    for eta2, s, d in ((0.025, 10, 5), (0.3, 7, 3), (0.9, 50, 12)):
        gs = kappa_threshold(eta2, s, d)
        ok_rt &= abs(s * beta_overlap(gs, 1.0, d) - eta2) <= 1e-10

    _report(1, "closed-form consistency", ok_f and ok_k and ok_rt,
            f"f={f_val:.6f}<={target:.6f} K(0.2)={K_eta(0.2):.6f} round-trip={ok_rt}")


def test_02_threshold_eigenvalue_expectations():
    ok = True
    details = []
    for d in (2, 5):
        cfg = ExperimentConfig(d=d, m=20, n_grid=(5, 10, 20), gamma=1.0, sigma=1.0,
                               trials=200, seed=7)
        report = run_threshold_study(cfg)
        for cell in report["cells"]:
            ok &= cell["lambda_min_ok"] and cell["lambda_max_ok"]
            details.append(f"d={d},N={cell['N']}:"
                           f"{'ok' if cell['lambda_min_ok'] and cell['lambda_max_ok'] else 'BAD'}")
    _report(2, "interpolation threshold expectations", ok, " ".join(details))


def test_03_concentration_trend():
    n, d = 10, 5
    gs = kappa_threshold(0.5 / 20.0, n, d)
    medians = []
    for idx, m in enumerate((100, 1000, 10_000)):
        devs = []
        for t in range(50):
            _, _, A = random_features(d, m, n, gs, 1.0,
                                      split_stream(606, t).substream(idx))
            spec = gram_spectrum_via_svd(A, SIDE_COLUMNS)
            devs.append(np.abs(spec.eigenvalues - 1.0).max())
        medians.append(float(np.median(devs)))
    band_halfwidth = 1.25 * 0.5 + 0.5**2
    ok = medians[0] > medians[1] > medians[2] and medians[2] <= band_halfwidth
    _report(3, "concentration trend in sample count", ok,
            f"medians={['%.4f' % v for v in medians]} cap={band_halfwidth}")


def test_04_double_descent_reproduction():
    # Figure-1 protocol panels: the 10%-SNR Fourier panel ties the risk peak
    # to the conditioning peak; the noiseless ReLU panel carries the 10x
    # risk drop from the threshold into the overparameterized regime.
    grid = tuple(range(10, 501, 10))
    noisy = ExperimentConfig(d=3, m=100, n_grid=grid, gamma=1.0,
                             sigma=math.sqrt(0.1), feature_kind="fourier",
                             target_kind="linear", noise_snr=0.1,
                             trials=10, seed=0, n_test=1000)
    res = run_double_descent_sweep(noisy)
    ns = np.asarray(res.summary["n_grid"])
    cond = np.asarray(res.summary["mean_cond_number"])
    risk = np.asarray(res.summary["mean_empirical_risk"])
    ci, ri = int(np.argmax(cond)), int(np.argmax(risk))
    ok_window = 80 <= ns[ci] <= 120
    ok_adjacent = abs(ci - ri) <= 1

    clean = ExperimentConfig(d=3, m=100, n_grid=grid, gamma=1.0,
                             sigma=math.sqrt(0.1), feature_kind="relu",
                             target_kind="linear", trials=10, seed=0, n_test=1000)
    res2 = run_double_descent_sweep(clean)
    risk2 = np.asarray(res2.summary["mean_empirical_risk"])
    r_at = {int(n): float(r) for n, r in zip(res2.summary["n_grid"], risk2)}
    ratio = r_at[100] / r_at[500]
    ok_ratio = ratio >= 10.0

    _report(4, "double descent reproduction", ok_window and ok_adjacent and ok_ratio,
            f"cond_argmax={ns[ci]} risk_argmax={ns[ri]} noiseless "
            f"risk(100)/risk(500)={ratio:.1f}")


def test_05_singular_value_densities():
    cfg = ExperimentConfig(d=50, m=150, n_grid=(150,), gamma=1.0, sigma=1.0,
                           trials=10, seed=0, scalings=("N=m", "N=m log^3 m"))
    entries = {e.label: e for e in run_spectrum_density(cfg)}
    log3 = entries["N=m log^3 m"]
    square = entries["N=m"]
    ok_log3 = log3.sv_min >= 0.5
    ok_square = square.sv_min / square.sv_max <= 0.1
    _report(5, "singular value densities", ok_log3 and ok_square,
            f"sv_min(log^3)={log3.sv_min:.3f} ratio(N=m)={square.sv_min / square.sv_max:.2e}")


def test_06_rip_oracle_equivalence():
    ok = True
    worst_gap = 0.0
    for instance in range(20):
        n = 4 + instance % 7  # N in 4..10
        _, _, A = random_features(3, 30, n, 1.0, 1.0, split_stream(900, instance))
        An = A / np.sqrt(30)
        values = []
        for s in range(1, n + 1):
            values.append(rip_constant_exact(An, s).value)
        op_norm = np.linalg.norm(An.conj().T @ An - np.eye(n), 2)
        gap = abs(values[-1] - op_norm)
        worst_gap = max(worst_gap, gap)
        ok &= gap <= 1e-10
        ok &= all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        s_mid = max(1, n // 2)
        mc = rip_constant_lower_mc(An, s_mid, 25, split_stream(901, instance))
        ok &= mc.value <= values[s_mid - 1] + 1e-10
    _report(6, "restricted isometry oracle equivalence", ok,
            f"max |delta_N - opnorm| = {worst_gap:.2e}")


def test_07_solver_oracles():
    gen = np.random.default_rng(42)
    ok = True
    details = []

    # pseudoinverse identities
    for shape in ((30, 12), (12, 30)):
        A = gen.normal(size=shape) + 1j * gen.normal(size=shape)
        pinv = np.linalg.pinv(A)
        ok &= np.linalg.norm(A @ pinv @ A - A, "fro") <= 1e-8 * np.linalg.norm(A, "fro")
        ok &= np.linalg.norm(pinv @ A @ pinv - pinv, "fro") <= 1e-8 * np.linalg.norm(pinv, "fro")
    details.append("pinv ok")

    # ridgeless limits
    A_tall = gen.normal(size=(40, 8)) + 1j * gen.normal(size=(40, 8))
    y_tall = gen.normal(size=40) + 1j * gen.normal(size=40)
    gap_ls = np.linalg.norm(ridge(A_tall, y_tall, 1e-10).values
                            - least_squares(A_tall, y_tall).values)
    ok &= gap_ls <= 1e-6 * np.linalg.norm(least_squares(A_tall, y_tall).values)
    _, _, A_wide = random_features(3, 8, 40, 1.0, 1.0, split_stream(77, 0))
    y_wide = gen.normal(size=8) + 1j * gen.normal(size=8)
    mn = min_norm_interpolate(A_wide, y_wide).values
    gap_mn = np.linalg.norm(ridge(A_wide, y_wide, 1e-10).values - mn)
    ok &= gap_mn <= 1e-6 * np.linalg.norm(mn)
    details.append("ridgeless ok")

    # basis pursuit: certified gap and l1 optimality against feasible vectors
    d, m, n, s = 5, 200, 20, 2
    _, _, A = random_features(d, m, n, 2.0, 1.0, split_stream(0, 0))
    c0 = np.zeros(n, dtype=complex)
    c0[3] = 1.2 + 0.5j
    c0[11] = -0.8 + 0.3j
    E = 0.05
    e = noise_vector(m, NoiseModel("bounded_uniform", E), split_stream(0, 1))
    y = A @ c0 + e
    sol = bpdn(A, y, xi=E, tolerance=1e-6)
    ok &= sol.diagnostics.duality_gap <= 1e-6
    radius = E * np.sqrt(m)
    feasible = [c0, least_squares(A, y).values]
    for v in feasible:
        assert np.linalg.norm(A @ v - y) <= radius + 1e-9
        ok &= np.abs(sol.values).sum() <= np.abs(v).sum() + 1e-6
    details.append(f"bpdn gap={sol.diagnostics.duality_gap:.1e}")

    # tail errors against exhaustive support search
    values = gen.normal(size=10) + 1j * gen.normal(size=10)
    for s_chk in range(1, 10):
        for p in (1, 2):
            brute = min(
                np.linalg.norm(np.where(np.isin(np.arange(10), sup), 0.0, values), p)
                for sup in itertools.combinations(range(10), s_chk)
            )
            ok &= abs(best_s_term_error(values, s_chk, p) - brute) <= 1e-12 * max(1.0, brute)
    details.append("tail-error ok")

    _report(7, "solver oracles", ok, " ".join(details))


def test_08_risk_bound_coverage():
    base = dict(gamma=1.0, sigma=1.0, target_kind="gaussian_bump", trials=100,
                eta=0.5, delta=0.05, constants=PERMISSIVE)
    runs = [
        ("least_squares", ExperimentConfig(d=12, m=15000, n_grid=(16,), seed=1,
                                           n_test=1000, **base)),
        ("min_norm", ExperimentConfig(d=12, m=16, n_grid=(15000,), seed=2,
                                      n_test=1000, pipelines=("min_norm",), **base)),
        ("bpdn_pruned", ExperimentConfig(d=12, m=1200, n_grid=(2400,), seed=3, s=4,
                                         n_test=1000, pipelines=("bpdn_pruned",), **base)),
    ]
    ok = True
    details = []
    for expected_name, cfg in runs:
        report = run_bound_validation(cfg)
        (pipe,) = report["pipelines"]
        assert pipe["name"] == expected_name
        covered = pipe["coverage"] >= 0.95
        perm_ok = pipe["conditions"]["permissive"]["satisfied"]
        strict_unsat = not pipe["conditions"]["strict"]["satisfied"]
        ok &= covered and perm_ok and strict_unsat
        details.append(f"{expected_name}:cov={pipe['coverage']:.2f}"
                       f",perm={perm_ok},strict_unsat={strict_unsat}")
    _report(8, "risk bound coverage", ok, " ".join(details))


def test_09_ensemble_symmetry():
    trials = 200
    gamma, sigma, d = 1.0, 0.6, 3
    mins_a, maxs_a, mins_b, maxs_b = [], [], [], []
    for t in range(trials):
        _, _, A = random_features(d, 200, 20, gamma, sigma, split_stream(500, t))
        spec = gram_spectrum_via_svd(A, SIDE_COLUMNS)
        mins_a.append(spec.lambda_min)
        maxs_a.append(spec.lambda_max)
        _, _, B = random_features(d, 20, 200, sigma, gamma, split_stream(600, t))
        spec = gram_spectrum_via_svd(B, SIDE_ROWS)
        mins_b.append(spec.lambda_min)
        maxs_b.append(spec.lambda_max)
    ok = True
    details = []
    for label, a, b in (("min", mins_a, mins_b), ("max", maxs_a, maxs_b)):
        a, b = np.asarray(a), np.asarray(b)
        se = math.sqrt(a.var(ddof=1) / trials + b.var(ddof=1) / trials)
        mean_gap = abs(a.mean() - b.mean())
        median_gap = abs(np.median(a) - np.median(b))
        ok &= mean_gap <= 3 * se
        ok &= median_gap <= 3 * 1.2533 * se
        details.append(f"lambda_{label}: mean_gap={mean_gap:.3e} (3se={3 * se:.3e})")
    _report(9, "ensemble symmetry under role swap", ok, " ".join(details))


def _run_cli(args, out_dir):
    cmd = [sys.executable, "-m", "rfcond.cli"] + args + ["--out", str(out_dir)]
    proc = subprocess.run(cmd, capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_10_cli_determinism(tmp_path):
    bump = "bump:1.4142135623730951"
    commands = {
        "sweep": ["sweep", "--d", "3", "--m", "15", "--n-grid", "5:30:5",
                  "--sigma", "0.5", "--trials", "4", "--seed", "9",
                  "--n-test", "100"],
        "spectrum": ["spectrum", "--d", "5", "--m", "20", "--trials", "4",
                     "--seed", "3"],
        "threshold": ["threshold", "--d", "2", "--n-grid", "5,8",
                      "--trials", "8", "--seed", "4"],
        "validate": ["validate", "--d", "5", "--m", "60", "--n-grid", "6,200",
                     "--target", bump, "--s", "3", "--trials", "4",
                     "--seed", "5", "--n-test", "100", "--permissive-constants"],
        "theory": ["theory", "--m", "200", "--n-grid", "20", "--d", "4",
                   "--eta", "0.4"],
        "rip": ["rip", "--d", "2", "--m", "15", "--n-grid", "10", "--s", "5",
                "--seed", "6", "--rip-trials", "40"],
    }
    ok = True
    details = []
    for name, args in commands.items():
        blobs = []
        for run, workers in (("w1", "1"), ("w8", "8")):
            out = tmp_path / name / run
            stdout = _run_cli(args + ["--workers", workers], out)
            files = sorted(p.name for p in out.glob("*")) if out.exists() else []
            payload = b"".join((out / f).read_bytes() for f in files)
            blobs.append((files, payload, stdout if name == "theory" else b""))
        same = blobs[0] == blobs[1]
        ok &= same
        details.append(f"{name}:{'ok' if same else 'DIFFERS'}")
        shutil.rmtree(tmp_path / name, ignore_errors=True)
    _report(10, "cli determinism across workers", ok, " ".join(details))
