import csv
import dataclasses
import json
import math
import re
import threading
import time

import numpy as np
import pytest

from rfcond import cli, experiments
from rfcond.errors import InvalidArgumentError, NumericalFailureError
from rfcond.experiments import (
    _TAG_GRID,
    _TAG_SCALING,
    SCALING_LABELS,
    ExperimentConfig,
    _solve_scaling,
    random_features,
    random_inputs,
    run_bound_validation,
    run_double_descent_sweep,
    run_rip_study,
    run_spectrum_density,
    run_threshold_study,
)
from rfcond.features import build_features
from rfcond.io import json_report
from rfcond.sampling import GaussianColumns, NoiseModel, split_stream
from rfcond.solvers import FLAG_SINGULAR_GRAM, FLAG_ZERO_FEASIBLE, CoefficientVector
from rfcond.spectral import _GRAM_ENTRIES, gram_spectrum_via_svd, spectral_density
from rfcond.targets import gaussian_bump_target
from rfcond.theory import check_regime_conditions, hypotheses_by_mode


def _sweep_config(**overrides):
    base = dict(d=3, m=20, n_grid=(5, 10, 20, 40), gamma=1.0, sigma=0.4,
                trials=3, seed=11, n_test=200)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        _sweep_config(n_grid=())
    with pytest.raises(InvalidArgumentError):
        _sweep_config(n_grid=(10, 10))
    with pytest.raises(InvalidArgumentError):
        _sweep_config(trials=0)
    with pytest.raises(InvalidArgumentError):
        _sweep_config(feature_kind="tanh")
    with pytest.raises(InvalidArgumentError, match="repeat a label"):
        _sweep_config(scalings=("N=m", "N=m log m", "N=m"))
    for tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidArgumentError, match="tol must be finite and positive"):
            _sweep_config(tol=tol)


def test_config_rejects_snr_noise_next_to_a_fixed_noise_model():
    # snr noise replaces the noise model, so a fixed model given with it would
    # be dropped without a word.
    with pytest.raises(InvalidArgumentError, match="noise_snr"):
        _sweep_config(noise=NoiseModel("bounded_uniform", 5.0), noise_snr=0.0)
    assert _sweep_config(noise_snr=0.0).noise.kind == "none"


def test_sweep_is_deterministic_and_worker_independent():
    # trials=1 spreads the four cells over the workers
    for trials in (3, 1):
        runs = [run_double_descent_sweep(_sweep_config(trials=trials, workers=w))
                for w in (1, 1, 4)]
        rows = [[dataclasses.astuple(r) for r in run.rows] for run in runs]
        assert rows[0] == rows[1]
        assert rows[0] == rows[2]
        assert runs[0].summary == runs[2].summary
        # rows come cell-major: every trial of one N before the next N
        assert [(r.N, r.trial) for r in runs[0].rows] == \
            [(n, t) for n in (5, 10, 20, 40) for t in range(trials)]


def test_sweep_rows_satisfy_schema_invariants():
    result = run_double_descent_sweep(_sweep_config())
    assert len(result.rows) == 4 * 3
    for row in result.rows:
        assert row.cond_number >= 1.0 or math.isinf(row.cond_number)
        assert row.empirical_risk >= 0.0
        assert row.lambda_min <= row.lambda_max
    assert list(experiments.SWEEP_COLUMNS) == [
        "N", "trial", "cond_number", "lambda_min", "lambda_max", "train_residual",
        "empirical_risk", "risk_method", "flags"]
    # min-norm interpolation holds comfortably above the threshold (no noise)
    for row in result.rows:
        if row.N >= 40:
            assert row.train_residual <= 1e-6


def test_sweep_summary_curves_are_rescaled():
    # The summary states the means once; sweep.svg rescales them where it is drawn.
    result = run_double_descent_sweep(_sweep_config())
    assert not [key for key in result.summary if key.endswith("_rescaled")]
    for key in ("mean_cond_number", "mean_empirical_risk"):
        curve = np.asarray(cli._unit_scaled(result.summary[key]))
        assert curve.min() == pytest.approx(0.0)
        assert curve.max() == pytest.approx(1.0)
    assert result.summary["cond_argmax_n"] in result.summary["n_grid"]
    # an infinite mean is scaled by the finite ones and stays infinite, so the
    # chart leaves it out instead of drawing it at the finite maximum
    scaled = cli._unit_scaled([3.0, math.inf, 1.0, 2.0])
    assert math.isinf(scaled[1])
    assert [scaled[0], *scaled[2:]] == [1.0, 0.0, 0.5]
    assert cli._unit_scaled([math.inf, 5.0, 5.0]) == [math.inf, 0.0, 0.0]


def test_sweep_with_snr_noise_and_relu_features():
    cfg = _sweep_config(noise_snr=0.1, feature_kind="relu", n_grid=(5, 30))
    result = run_double_descent_sweep(cfg)
    assert all(r.empirical_risk >= 0 for r in result.rows)


@pytest.mark.parametrize("kind", ["fourier", "relu"])
def test_sweep_spectrum_matches_gram_spectrum_of_the_same_matrix(kind):
    cfg = _sweep_config(feature_kind=kind, n_grid=(5, 19, 20, 21, 40))
    for row in run_double_descent_sweep(cfg).rows:
        cell = split_stream(cfg.seed, row.trial).substream(_TAG_GRID, row.N)
        _, _, A = random_features(cfg.d, cfg.m, row.N, cfg.gamma, cfg.sigma, cell, kind)
        spec = gram_spectrum_via_svd(A)
        for got, want in ((row.cond_number, spec.cond_number),
                          (row.lambda_min, spec.lambda_min),
                          (row.lambda_max, spec.lambda_max)):
            assert got == pytest.approx(want, rel=1e-8)


def test_sweep_factors_each_cell_once(monkeypatch):
    calls = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("svd", "lstsq", "eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    cfg = _sweep_config()
    run_double_descent_sweep(cfg)
    assert calls == ["lstsq"] * (len(cfg.n_grid) * cfg.trials)


def test_sweep_takes_the_closed_form_risk_and_builds_no_test_features(monkeypatch):
    # At sweep sizes nnz(c)^2 <= n_test * N in every cell, so no test point is
    # drawn: the only feature matrices built are the cells' training ones.
    def no_test_points(*args, **kwargs):
        raise AssertionError("evaluate_model called at sweep sizes")

    built = []

    def counting_build_features(X, W, kind):
        built.append(X.shape)
        return build_features(X, W, kind)

    monkeypatch.setattr(experiments, "evaluate_model", no_test_points)
    monkeypatch.setattr(experiments, "build_features", counting_build_features)
    cfg = _sweep_config(n_test=1000)
    rows = run_double_descent_sweep(cfg).rows
    assert len(built) == len(cfg.n_grid) * cfg.trials
    assert {r.risk_method for r in rows} == {experiments.RISK_CLOSED_FORM}


def test_sweep_falls_back_to_monte_carlo_above_the_rule():
    # n_test = 10 points cost less than the closed form once nnz(c)^2 > 10 N.
    rows = run_double_descent_sweep(_sweep_config(n_test=10)).rows
    assert {(r.N, r.risk_method) for r in rows} == {
        (5, "closed_form"), (10, "closed_form"), (20, "monte_carlo"), (40, "monte_carlo")}


def test_validate_reports_how_each_risk_was_computed():
    # Least squares at N = 6 takes the closed form and has no standard error;
    # the dense min-norm fit at N = 200 > n_test keeps the Monte Carlo risk.
    cfg = ExperimentConfig(d=5, m=60, n_grid=(6, 200), target_kind="gaussian_bump",
                           trials=2, seed=32, n_test=100)
    methods = {p["name"]: {(t["risk_method"], t["risk_se"] is None) for t in p["trials"]}
               for p in run_bound_validation(cfg)["pipelines"]}
    assert methods == {"least_squares": {("closed_form", True)},
                       "min_norm": {("monte_carlo", False)}}


def test_validate_trials_report_fit_diagnostics():
    # The golden validate point: least squares at N = 6, min-norm at N = 200 and
    # pruned BPDN, whose level makes c = 0 feasible (the zero shortcut).
    cfg = ExperimentConfig(d=5, m=60, n_grid=(6, 200), target_kind="gaussian_bump",
                           bump_width=math.sqrt(2.0), s=3, trials=2, seed=5, n_test=100)
    rows = {p["name"]: p["trials"] for p in run_bound_validation(cfg)["pipelines"]}
    fit = {name: {(t["nnz"], t["iterations"], t["duality_gap"], tuple(t["flags"]))
                  for t in trials} for name, trials in rows.items()}
    assert fit == {"least_squares": {(6, 0, None, ())},
                   "min_norm": {(200, 0, None, ())},
                   "bpdn_pruned": {(0, 0, 0.0, (FLAG_ZERO_FEASIBLE,))}}
    assert all(t["train_residual"] < 1e-10 for t in rows["min_norm"])
    assert all(t["train_residual"] > 0 for t in rows["least_squares"] + rows["bpdn_pruned"])


def test_validate_reports_s_only_on_the_pipeline_that_prunes():
    # least squares and min-norm keep every coefficient, so their s is null
    cfg = ExperimentConfig(d=5, m=60, n_grid=(6, 200), target_kind="gaussian_bump",
                           bump_width=math.sqrt(2.0), s=3, trials=1, seed=5, n_test=100)
    pipelines = run_bound_validation(cfg)["pipelines"]
    assert {p["name"]: p["s"] for p in pipelines} == \
        {"least_squares": None, "min_norm": None, "bpdn_pruned": 3}


def test_pruned_bpdn_reports_the_residual_of_the_pruned_model(monkeypatch):
    # A stand-in BPDN fit with three terms and its own residual; pruning to one
    # term changes the residual, and the fit's other diagnostics stay.
    def three_terms(A, y, xi, tolerance):
        c = np.zeros(A.shape[1], dtype=complex)
        c[:3] = [0.3, -2.0, 0.5j]
        return CoefficientVector(c, residual_norm=0.0, iterations=75, duality_gap=1e-7)

    monkeypatch.setattr(experiments, "bpdn", three_terms)
    cfg = ExperimentConfig(d=2, m=12, n_grid=(20,), target_kind="gaussian_bump",
                           bump_width=1.0)
    target = gaussian_bump_target(1.0, cfg.sigma, cfg.d)
    stream = split_stream(3, 0)
    X, W, A = random_features(2, 12, 20, 1.0, 1.0, stream)
    coeff, _ = experiments._train_and_test(cfg, target, "bpdn_pruned", X, W, A, stream,
                                           xi=0.1, s=1)
    assert np.count_nonzero(coeff.values) == 1
    expected = np.linalg.norm(A @ coeff.values - target.evaluate(X))
    assert coeff.residual_norm == pytest.approx(expected, rel=1e-12)
    assert (coeff.iterations, coeff.duality_gap) == (75, 1e-7)


def test_sweep_csv_flags_column(tmp_path, monkeypatch):
    # Rank-one features flag every fit: the least-squares cells below N = m
    # and the min-norm cells from N = m on.
    monkeypatch.setattr(experiments, "build_features",
                        lambda X, W, kind: np.ones((X.shape[1], W.shape[1]), dtype=complex))
    rc = cli.main(["sweep", "--d", "2", "--m", "6", "--n-grid", "3,6,9", "--trials", "1",
                   "--n-test", "10", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["N"], r["flags"], r["cond_number"]) for r in rows] == [
        ("3", "rank_deficient_pseudoinverse", "inf"),
        ("6", FLAG_SINGULAR_GRAM, "inf"),
        ("9", FLAG_SINGULAR_GRAM, "inf"),
    ]

    def two_flags(A, y):  # several flags are joined by ";"
        return CoefficientVector(np.zeros(A.shape[1], dtype=complex), flags=("a", "b"),
                                 singular_values=np.ones(A.shape[0]))

    monkeypatch.setattr(experiments, "min_norm_interpolate", two_flags)
    rows = run_double_descent_sweep(_sweep_config(n_grid=(20, 40))).rows
    assert {r.flags for r in rows} == {"a;b"}


def test_scaling_resolution():
    m = 150
    assert _solve_scaling("N=m", m) == 150
    assert _solve_scaling("N=m log m", m) == round(150 * math.log(150))
    assert _solve_scaling("N=m log^3 m", m) == round(150 * math.log(150) ** 3)
    n = _solve_scaling("m=N log N", m)
    assert abs(n * math.log(n) - m) <= abs((n + 1) * math.log(n + 1) - m)
    assert abs(n * math.log(n) - m) <= abs((n - 1) * math.log(n - 1) - m)
    n3 = _solve_scaling("m=N log^3 N", m)
    assert n3 < n


def test_spectrum_density_entries():
    cfg = ExperimentConfig(d=5, m=25, n_grid=(25,), trials=3, seed=5,
                           scalings=("N=m", "N=m log m"))
    entries = run_spectrum_density(cfg)
    assert [e.label for e in entries] == ["N=m", "N=m log m"]
    for e in entries:
        assert e.curve.density.max() == pytest.approx(1.0, abs=1e-9)
        assert e.sv_min >= 0
        assert e.sv_min <= e.sv_max
    # conditioning improves away from the square case
    assert entries[1].sv_min > entries[0].sv_min


def test_sweep_argmax_skips_a_cell_that_one_rank_deficient_trial_makes_infinite(
        tmp_path, monkeypatch):
    # Trial 0 at N = 40 gets rank-one features, so that cell's mean condition
    # number is inf; the peak is still the largest finite mean, and the chart
    # leaves the inf cell out of the condition curve.
    build = experiments.build_features
    calls = []

    def one_rank_one(X, W, kind):
        calls.append(W.shape[1])
        if W.shape[1] == 40 and calls.count(40) == 1:
            return np.ones((X.shape[1], W.shape[1]), dtype=complex)
        return build(X, W, kind)

    monkeypatch.setattr(experiments, "build_features", one_rank_one)
    rc = cli.main(["sweep", "--d", "3", "--m", "20", "--n-grid", "5,10,20,40",
                   "--sigma", "0.4", "--trials", "3", "--seed", "11", "--n-test", "200",
                   "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "sweep_summary.json").read_text())["summary"]
    means = summary["mean_cond_number"]
    assert means[3] == "inf" and all(isinstance(v, float) for v in means[:3])
    assert summary["cond_argmax_n"] == summary["n_grid"][int(np.argmax(means[:3]))]
    svg = (tmp_path / "sweep.svg").read_text()
    cond_points, risk_points = (len(line.split('points="')[1].split('"')[0].split())
                                for line in svg.splitlines() if "<polyline" in line)
    assert (cond_points, risk_points) == (3, 4)


def test_spectrum_density_is_worker_independent_across_gram_blocks(monkeypatch):
    # at m = 60, N = m log^3 m = 4118 sums its Gram over seven blocks of at
    # most _GRAM_ENTRIES // 60 = 640 features; trials=1 spreads the three
    # scalings over the workers
    pooled = []

    def recording(values):
        pooled.append(np.array(values))
        return spectral_density(values)

    monkeypatch.setattr(experiments, "spectral_density", recording)
    for trials in (4, 1):
        pooled.clear()
        runs = [run_spectrum_density(ExperimentConfig(
                    d=5, m=60, n_grid=(60,), trials=trials, seed=2, workers=workers,
                    scalings=("N=m", "N=m log^3 m", "m=N log N")))
                for workers in (1, 4)]
        assert runs[0][1].n > _GRAM_ENTRIES // 60
        assert all(np.array_equal(a, b) for a, b in zip(pooled[:3], pooled[3:]))
        for a, b in zip(*runs):
            assert (a.sv_min, a.sv_max, a.curve.bandwidth) == \
                (b.sv_min, b.sv_max, b.curve.bandwidth)
            assert np.array_equal(a.curve.grid, b.curve.grid)
            assert np.array_equal(a.curve.density, b.curve.density)


def test_spectrum_density_draws_the_instances_of_random_inputs(monkeypatch):
    # W is a reader drawn feature by feature in the Gram's column blocks; X is
    # random_inputs' X, and W read whole its weight_blocks W, bit for bit
    seen = []
    real = experiments.singular_values

    def recording(X, W, kind):
        seen.append((X, W))
        return real(X, W, kind)

    monkeypatch.setattr(experiments, "singular_values", recording)
    cfg = ExperimentConfig(d=5, m=60, n_grid=(60,), trials=2, seed=4, gamma=0.7, sigma=1.3,
                           scalings=("N=m", "N=m log^3 m", "m=N log N"))
    run_spectrum_density(cfg)
    jobs = [(idx, t) for idx in range(3) for t in range(2)]
    assert len(seen) == len(jobs)
    for (idx, t), (X, W) in zip(jobs, seen):
        n = _solve_scaling(cfg.scalings[idx], cfg.m)
        stream = split_stream(cfg.seed, t).substream(_TAG_SCALING, idx)
        X0, _ = random_inputs(cfg.d, cfg.m, n, cfg.gamma, cfg.sigma, stream)
        _, W0 = random_inputs(cfg.d, cfg.m, n, cfg.gamma, cfg.sigma, stream, weight_blocks=True)
        assert isinstance(W, GaussianColumns) and W.shape == W0.shape
        assert np.array_equal(X.view(np.uint64), X0.view(np.uint64))
        assert np.array_equal(np.asarray(W).view(np.uint64), np.asarray(W0).view(np.uint64))


@pytest.mark.parametrize("trials", [1, 2])
def test_map_cells_shares_one_pool_and_keeps_cell_trial_order(trials):
    # The jobs of both cells meet at the barrier only if they all run at the
    # same time; the first job sleeps longest, so they finish in reverse.
    jobs = 2 * trials
    barrier = threading.Barrier(jobs, timeout=5)

    def job(cell, t):
        barrier.wait()
        time.sleep(0.02 * (jobs - cell * trials - t))
        return cell, t

    got = experiments._map_cells(job, [0, 1], _sweep_config(trials=trials, workers=jobs))
    assert got == [[(cell, t) for t in range(trials)] for cell in (0, 1)]


def test_map_cells_cancels_the_jobs_not_started_after_a_failure():
    started = []

    def job(cell, t):
        started.append(cell)
        if cell == 0:
            raise NumericalFailureError("first job fails")
        time.sleep(0.2)

    with pytest.raises(NumericalFailureError):
        experiments._map_cells(job, range(20), _sweep_config(trials=1, workers=2))
    assert len(started) < 10


def test_threshold_study_structure_and_markov_invariant():
    cfg = ExperimentConfig(d=2, m=10, n_grid=(5, 10), trials=400, seed=21)
    report = run_threshold_study(cfg)
    assert {c["N"] for c in report["cells"]} == {5, 10}
    for cell in report["cells"]:
        assert cell["lambda_min_ok"] and cell["lambda_max_ok"]
        assert cell["markov_ok"]
        assert cell["markov_fraction"] <= cell["markov_cap"] + 3 * cell["markov_binomial_se"]


def test_threshold_study_needs_two_trials():
    with pytest.raises(InvalidArgumentError, match="trials >= 2"):
        run_threshold_study(ExperimentConfig(d=2, m=5, n_grid=(5,), trials=1))


def _counting_random_features(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return random_features(*args, **kwargs)

    monkeypatch.setattr(experiments, "random_features", counting)
    return calls


def test_threshold_study_refuses_n_below_two_before_any_trial(monkeypatch):
    calls = _counting_random_features(monkeypatch)
    with pytest.raises(InvalidArgumentError, match="needs N >= 2, got 1"):
        run_threshold_study(ExperimentConfig(d=2, m=5, n_grid=(1, 50), trials=10))
    assert calls == []


@pytest.mark.parametrize("s", [0, -2])
def test_config_refuses_s_below_one_before_any_features_are_built(s, monkeypatch):
    calls = _counting_random_features(monkeypatch)
    with pytest.raises(InvalidArgumentError, match=f"s must be >= 1, got {s}"):
        run_bound_validation(ExperimentConfig(
            d=3, m=10, n_grid=(20,), target_kind="gaussian_bump", bump_width=1.5,
            trials=1, s=s, pipelines=("bpdn_pruned",)))
    assert calls == []


def test_threshold_study_conditioning_worsens_with_n():
    cfg = ExperimentConfig(d=2, m=20, n_grid=(5, 10, 20), trials=200, seed=22)
    report = run_threshold_study(cfg)
    means = [c["mean_lambda_min"] for c in report["cells"]]
    assert means[0] > means[1] > means[2]


def test_bound_validation_structure():
    cfg = ExperimentConfig(d=6, m=200, n_grid=(8, 400), gamma=1.0, sigma=1.0,
                           target_kind="gaussian_bump", trials=5, seed=30,
                           s=3, n_test=300)
    report = run_bound_validation(cfg)
    names = [p["name"] for p in report["pipelines"]]
    assert names == ["least_squares", "min_norm", "bpdn_pruned"]
    for p in report["pipelines"]:
        assert 0.0 <= p["coverage"] <= 1.0
        assert len(p["trials"]) == 5
        assert list(p["conditions"]) == ["strict", "permissive"]
        for entry in p["conditions"].values():
            assert list(entry) == ["satisfied", "checks"]
            assert entry["satisfied"] == all(c["ok"] for c in entry["checks"])
        for t in p["trials"]:
            assert t["empirical_risk"] >= 0
            assert t["bound_value"] >= 0
    # the inputs every bound shares are stated once, not per pipeline
    assert list(report) == ["rho_norm", "noise_bound", "pipelines"]
    assert report["rho_norm"] == gaussian_bump_target(math.sqrt(2.0), 1.0, 6).rho_norm
    assert report["noise_bound"] == 0.0
    assert not any("noise_bound" in p for p in report["pipelines"])



def test_bound_over_risk_is_the_smallest_ratio_and_inf_at_zero_risk(monkeypatch):
    cfg = ExperimentConfig(d=5, m=60, n_grid=(6, 200), target_kind="gaussian_bump",
                           trials=3, seed=32, s=3, n_test=100)
    for p in run_bound_validation(cfg)["pipelines"]:
        ratios = [t["bound_value"] / t["empirical_risk"] for t in p["trials"]]
        assert p["bound_over_risk"] == min(ratios)
        assert p["coverage"] == 1.0 and p["bound_over_risk"] > 1.0
    train_and_test = experiments._train_and_test

    def exact_fit(*args, **kwargs):
        coeff, risk = train_and_test(*args, **kwargs)
        return coeff, dataclasses.replace(risk, value=0.0)

    monkeypatch.setattr(experiments, "_train_and_test", exact_fit)
    report = run_bound_validation(cfg)
    assert [p["bound_over_risk"] for p in report["pipelines"]] == [math.inf] * 3
    assert json.loads(json_report(report))["pipelines"][0]["bound_over_risk"] == "inf"

def test_bound_validation_rejects_targets_without_rho_norm():
    cfg = ExperimentConfig(d=3, m=50, n_grid=(10,), target_kind="linear", trials=2)
    with pytest.raises(InvalidArgumentError):
        run_bound_validation(cfg)


def test_bound_validation_rejects_snr_noise():
    cfg = ExperimentConfig(d=3, m=50, n_grid=(10,), target_kind="gaussian_bump",
                           noise_snr=0.1, trials=2)
    with pytest.raises(InvalidArgumentError, match="snr"):
        run_bound_validation(cfg)


@pytest.mark.parametrize("run, overrides", [
    (run_threshold_study, dict(m=10)),
    (run_bound_validation, dict(target_kind="gaussian_bump")),
    (run_spectrum_density, {}),
    (lambda cfg: run_rip_study(cfg, "auto", 10**6, 10), dict(s=3)),
], ids=["threshold", "bound-validation", "spectrum-density", "rip"])
def test_fourier_only_protocols_refuse_relu(run, overrides, monkeypatch):
    # The paper's bands and risk bounds rest on the Gaussian kernel, the mean
    # Gram of Fourier features, and it states the density and RIP studies'
    # normalizations for unit-modulus Fourier columns; refused before any draw.
    calls = []
    for name in ("random_inputs", "random_features"):
        monkeypatch.setattr(experiments, name, lambda *args, **kwargs: calls.append(args))
    cfg = ExperimentConfig(**{"d": 3, "m": 50, "n_grid": (10,), "trials": 2, **overrides},
                           feature_kind="relu")
    with pytest.raises(InvalidArgumentError, match="fourier features only; got relu"):
        run(cfg)
    assert calls == []


def test_spectrum_density_refuses_a_scaling_on_the_wrong_side_of_m(monkeypatch):
    # Every label lands on its side of m from m = 4 on; below, each m has a
    # label that does not, and it is refused before any draw.
    for m in range(4, 12):
        ns = [_solve_scaling(label, m) for label in SCALING_LABELS]
        assert ns[0] == m and min(ns[1:3]) > m and max(ns[3:]) < m
    calls = []
    monkeypatch.setattr(experiments, "random_inputs",
                        lambda *args, **kwargs: calls.append(args))
    for m, message in [(1, "'m=N log N' at m = 1 gives N = 2, not below m"),
                       (2, "'N=m log m' at m = 2 gives N = 2, not above m"),
                       (3, "'N=m log m' at m = 3 gives N = 3, not above m")]:
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            run_spectrum_density(ExperimentConfig(d=2, m=m, n_grid=(1,), trials=1))
    assert calls == []


@pytest.mark.parametrize("method, budget", [("exact", -5), ("auto", 0)])
def test_rip_study_rejects_a_budget_below_one(method, budget):
    with pytest.raises(InvalidArgumentError, match=f"budget must be at least 1 support, "
                                                   f"got {budget}"):
        run_rip_study(ExperimentConfig(d=2, m=5, n_grid=(4,)), method, budget, 10)


def test_rip_study_refuses_the_mc_method():
    # "auto" with a budget of 1 support is the random lower bound at every s < N
    with pytest.raises(InvalidArgumentError, match="unknown rip method 'mc'"):
        run_rip_study(ExperimentConfig(d=2, m=5, n_grid=(4,)), "mc", 10, 10)


@pytest.mark.parametrize("method", ["auto", "exact"])
@pytest.mark.parametrize("rip_trials", [0, -4])
def test_rip_study_rejects_rip_trials_below_one(method, rip_trials, monkeypatch):
    # refused before the instance is built, whether or not the budget would
    # have sent any s to the random lower bound
    calls = []
    monkeypatch.setattr(experiments, "random_features",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(InvalidArgumentError, match=f"rip_trials must be at least 1, "
                                                   f"got {rip_trials}"):
        run_rip_study(ExperimentConfig(d=2, m=10, n_grid=(8,), s=3), method, 10**6,
                      rip_trials)
    assert calls == []


def test_bound_validation_checks_eta_before_building_features(monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "random_features",
                        lambda *args, **kwargs: calls.append(args))
    cfg = ExperimentConfig(d=3, m=10, n_grid=(5, 20), target_kind="gaussian_bump",
                           bump_width=1.5, trials=1, eta=0.9)
    with pytest.raises(InvalidArgumentError, match="eta must lie in"):
        run_bound_validation(cfg)
    assert calls == []


@pytest.mark.parametrize("m, n_grid", [(1, (5,)), (60, (1,))], ids=["m-1", "N-1"])
def test_bound_validation_refuses_m_or_n_below_two_before_any_trial(m, n_grid,
                                                                    monkeypatch):
    # The regime hypotheses are checked before the first draw, so a point the
    # conditioning theorem leaves undefined builds no feature matrix.
    calls = _counting_random_features(monkeypatch)
    cfg = ExperimentConfig(d=3, m=m, n_grid=n_grid, target_kind="gaussian_bump",
                           bump_width=1.41, trials=3)
    with pytest.raises(InvalidArgumentError, match="m and N must be >= 2"):
        run_bound_validation(cfg)
    assert calls == []


def test_bound_validation_raises_on_singular_row_gram():
    # Data points within 1e-16 of the origin: every row of A rounds to the
    # all-ones vector, so the row Gram has numerical rank 1 < m.
    cfg = ExperimentConfig(d=3, m=4, n_grid=(10,), gamma=1e-16,
                           target_kind="gaussian_bump", trials=1, n_test=10,
                           pipelines=("min_norm",))
    with pytest.raises(NumericalFailureError, match="singular"):
        run_bound_validation(cfg)


def test_bound_validation_worker_independence():
    cfg = dict(d=4, m=60, n_grid=(6,), target_kind="gaussian_bump", trials=4,
               seed=31, n_test=100)
    a = run_bound_validation(ExperimentConfig(**cfg))
    b = run_bound_validation(ExperimentConfig(**cfg, workers=4))
    assert json.dumps(a["pipelines"], sort_keys=True) == \
        json.dumps(b["pipelines"], sort_keys=True)


def test_library_reports_are_plain_data():
    # Reports hold each record's fields as dataclasses.asdict writes them, so
    # the json module takes a whole report without rfcond.io.
    validate = run_bound_validation(ExperimentConfig(
        d=4, m=60, n_grid=(6,), target_kind="gaussian_bump", trials=2, seed=31, n_test=100))
    assert json.loads(json.dumps(validate)) == validate
    rip = run_rip_study(ExperimentConfig(d=2, m=15, n_grid=(10,), s=3, seed=6),
                        "auto", 10**6, 40)
    assert [e["s"] for e in json.loads(json.dumps(rip))["estimates"]] == [1, 2, 3]
    report = hypotheses_by_mode(check_regime_conditions, 100, 10, 3, 1.0, 1.0, 0.5)
    assert json.loads(json.dumps(report)) == report
    assert list(report["strict"]["checks"][0]) == ["name", "lhs", "rhs", "ok"]
