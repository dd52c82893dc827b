import dataclasses
import json
import math

import numpy as np
import pytest

from rfcond.errors import InvalidArgumentError, NumericalFailureError
from rfcond.experiments import (
    _TAG_GRID,
    SCALING_LABELS,
    ExperimentConfig,
    _solve_scaling,
    run_bound_validation,
    run_double_descent_sweep,
    run_spectrum_density,
    run_threshold_study,
)
from rfcond.sampling import TAG_DATA, gaussian_matrix, split_stream
from rfcond.targets import gaussian_bump_target
from rfcond.theory import TheoryConstants, risk_bound_ls, risk_bound_minnorm


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


def test_sweep_is_deterministic_and_worker_independent():
    rows_a = [dataclasses.astuple(r) for r in run_double_descent_sweep(_sweep_config()).rows]
    rows_b = [dataclasses.astuple(r) for r in run_double_descent_sweep(_sweep_config()).rows]
    rows_c = [dataclasses.astuple(r) for r in
              run_double_descent_sweep(_sweep_config(workers=4)).rows]
    assert rows_a == rows_b
    assert rows_a == rows_c


def test_sweep_rows_satisfy_schema_invariants():
    result = run_double_descent_sweep(_sweep_config())
    assert len(result.rows) == 4 * 3
    for row in result.rows:
        assert row.cond_number >= 1.0 or math.isinf(row.cond_number)
        assert row.empirical_risk >= 0.0
        assert row.lambda_min <= row.lambda_max
        assert row.m == 20 and row.d == 3
    # min-norm interpolation holds comfortably above the threshold (no noise)
    for row in result.rows:
        if row.N >= 2 * row.m:
            assert row.train_residual <= 1e-6


def test_sweep_summary_curves_are_rescaled():
    result = run_double_descent_sweep(_sweep_config())
    for key in ("cond_curve_rescaled", "risk_curve_rescaled"):
        curve = np.asarray(result.summary[key])
        assert curve.min() == pytest.approx(0.0)
        assert curve.max() == pytest.approx(1.0)
    assert result.summary["cond_argmax_n"] in result.summary["n_grid"]


def test_sweep_with_snr_noise_and_relu_features():
    cfg = _sweep_config(noise_snr=0.1, feature_kind="relu", n_grid=(5, 30))
    result = run_double_descent_sweep(cfg)
    assert all(r.empirical_risk >= 0 for r in result.rows)


def test_sweep_bound_column_filled_for_bump_target():
    cfg = _sweep_config(target_kind="gaussian_bump", compute_bounds=True,
                        n_grid=(5, 40), sigma=1.0,
                        constants=TheoryConstants(permissive=True))
    result = run_double_descent_sweep(cfg)
    for row in result.rows:
        assert row.bound_value is not None
        assert row.bound_value > 0


def test_sweep_bounds_use_resolved_snr_noise_level():
    # With snr noise the training outputs carry Gaussian noise of level
    # r * std(clean), so the bound must use E = 2 r std(clean), not 0.
    snr, permissive = 0.5, TheoryConstants(permissive=True)
    cfg = _sweep_config(target_kind="gaussian_bump", compute_bounds=True,
                        n_grid=(5, 40), sigma=1.0, noise_snr=snr,
                        constants=permissive)
    target = gaussian_bump_target(np.sqrt(2.0), 1.0, cfg.d)
    for row in run_double_descent_sweep(cfg).rows:
        cell = split_stream(cfg.seed, row.trial).substream(_TAG_GRID, row.N)
        X = gaussian_matrix(cfg.d, cfg.m, cfg.gamma**2, cell.substream(TAG_DATA))
        E = 2.0 * snr * float(np.std(target.evaluate(X)))
        assert E > 0
        bound = risk_bound_ls if row.N < cfg.m else risk_bound_minnorm
        expected = bound(row.N, cfg.m, cfg.d, cfg.gamma, cfg.sigma, cfg.delta,
                         cfg.eta, target.rho_norm, E, permissive).value
        assert row.bound_value == pytest.approx(expected, rel=1e-12)


def test_scaling_resolution():
    m = 150
    assert _solve_scaling("N=m", m) == (150, 150)
    assert _solve_scaling("N=m log m", m) == (150, round(150 * math.log(150)))
    assert _solve_scaling("N=m log^3 m", m) == (150, round(150 * math.log(150) ** 3))
    _, n = _solve_scaling("m=N log N", m)
    assert abs(n * math.log(n) - m) <= abs((n + 1) * math.log(n + 1) - m)
    assert abs(n * math.log(n) - m) <= abs((n - 1) * math.log(n - 1) - m)
    _, n3 = _solve_scaling("m=N log^3 N", m)
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


def test_threshold_study_conditioning_worsens_with_n():
    cfg = ExperimentConfig(d=2, m=20, n_grid=(5, 10, 20), trials=200, seed=22)
    report = run_threshold_study(cfg)
    means = [c["mean_lambda_min"] for c in report["cells"]]
    assert means[0] > means[1] > means[2]


def test_bound_validation_structure():
    cfg = ExperimentConfig(d=6, m=200, n_grid=(8, 400), gamma=1.0, sigma=1.0,
                           target_kind="gaussian_bump", trials=5, seed=30,
                           s=3, n_test=300,
                           constants=TheoryConstants(permissive=True))
    report = run_bound_validation(cfg)
    names = [p["name"] for p in report["pipelines"]]
    assert names == ["least_squares", "min_norm", "bpdn_pruned"]
    for p in report["pipelines"]:
        assert 0.0 <= p["coverage"] <= 1.0
        assert len(p["trials"]) == 5
        assert p["conditions"]["strict"]["mode"] == "strict"
        assert p["conditions"]["permissive"]["mode"] == "permissive"
        for t in p["trials"]:
            assert t["empirical_risk"] >= 0
            assert t["bound_value"] >= 0
    assert report["target"]["kind"] == "gaussian_bump"


def test_bound_validation_rejects_targets_without_rho_norm():
    cfg = ExperimentConfig(d=3, m=50, n_grid=(10,), target_kind="linear", trials=2)
    with pytest.raises(InvalidArgumentError):
        run_bound_validation(cfg)


def test_bound_validation_rejects_snr_noise():
    cfg = ExperimentConfig(d=3, m=50, n_grid=(10,), target_kind="gaussian_bump",
                           noise_snr=0.1, trials=2)
    with pytest.raises(InvalidArgumentError, match="snr"):
        run_bound_validation(cfg)


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
               seed=31, n_test=100, constants=TheoryConstants(permissive=True))
    a = run_bound_validation(ExperimentConfig(**cfg))
    b = run_bound_validation(ExperimentConfig(**cfg, workers=4))
    assert json.dumps(a["pipelines"], sort_keys=True) == \
        json.dumps(b["pipelines"], sort_keys=True)
