import json

import pytest

from rfcond import cli
from rfcond.errors import InvalidArgumentError
from rfcond.sampling import NOISE_NONE


def test_n_grid_parsing():
    assert cli._parse_n_grid("10:50:10") == (10, 20, 30, 40, 50)
    assert cli._parse_n_grid("5,9,12") == (5, 9, 12)
    assert cli._parse_n_grid("7") == (7,)
    assert cli._parse_n_grid("3:5") == (3, 4, 5)
    with pytest.raises(InvalidArgumentError):
        cli._parse_n_grid("10:5:1")
    with pytest.raises(InvalidArgumentError):
        cli._parse_n_grid("a:b")


def test_noise_parsing():
    model, snr = cli._parse_noise("none")
    assert model == NOISE_NONE and snr is None
    model, _ = cli._parse_noise("bounded:0.5")
    assert model.kind == "bounded_uniform" and model.level == 0.5
    model, _ = cli._parse_noise("gaussian:0.2")
    assert model.kind == "gaussian" and model.level == 0.2
    model, snr = cli._parse_noise("snr:0.1")
    assert model == NOISE_NONE and snr == 0.1
    with pytest.raises(InvalidArgumentError):
        cli._parse_noise("poisson:1.0")


def test_target_parsing():
    assert cli._parse_target("linear") == ("linear", 2, None)
    assert cli._parse_target("planted:5") == ("planted", 5, None)
    kind, _, width = cli._parse_target("bump:1.5")
    assert kind == "gaussian_bump" and width == 1.5
    with pytest.raises(InvalidArgumentError):
        cli._parse_target("cosine:1")


def test_invalid_config_exits_2(capsys):
    rc = cli.main(["sweep", "--n-grid", "50:10:5", "--out", "/tmp/unused"])
    assert rc == cli.EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_validate_snr_noise_exits_2(tmp_path, capsys):
    rc = cli.main(["validate", "--d", "3", "--m", "50", "--n-grid", "10",
                   "--target", "bump:1.4142135623730951", "--noise", "snr:0.1",
                   "--trials", "2", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "snr" in capsys.readouterr().err
    assert not (tmp_path / "validate.json").exists()


def test_theory_prints_regime_report(capsys):
    rc = cli.main(["theory", "--m", "100", "--n-grid", "10", "--d", "3",
                   "--eta", "0.5", "--permissive-constants"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "rfcond-report/1"
    assert payload["regime"] == "under"
    assert {c["name"] for c in payload["conditions"]} == {
        "sample_complexity_simplified", "sample_complexity_tight",
        "feature_uncertainty"}
    assert set(payload) == {"version", "regime", "eta", "band", "conditions",
                            "failure_probability"}


def test_rip_exact_budget_error_exits_2(tmp_path, capsys):
    rc = cli.main(["rip", "--d", "2", "--m", "10", "--n-grid", "30", "--s", "15",
                   "--method", "exact", "--budget", "100",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG


def test_rip_auto_falls_back_to_randomized(tmp_path):
    rc = cli.main(["rip", "--d", "2", "--m", "10", "--n-grid", "14", "--s", "8",
                   "--budget", "500", "--rip-trials", "50",
                   "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "rip.json").read_text())
    methods = {e["method"] for e in payload["estimates"]}
    assert "randomized_lower_bound" in methods
    assert "exact_enumeration" in methods
    values = [e["value"] for e in payload["estimates"] if e["method"] == "exact_enumeration"]
    assert values == sorted(values)


def test_sweep_outputs_are_byte_identical_across_runs_and_workers(tmp_path):
    args = ["sweep", "--d", "3", "--m", "15", "--n-grid", "5:30:5",
            "--sigma", "0.5", "--trials", "3", "--seed", "9", "--n-test", "100"]
    outs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        rc = cli.main(args + ["--workers", workers, "--out", str(out)])
        assert rc == 0
        outs.append(out)
    for fname in ("sweep.csv", "sweep_summary.json", "sweep.svg"):
        blobs = [(o / fname).read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2]


def test_spectrum_csv_schema(tmp_path):
    rc = cli.main(["spectrum", "--d", "4", "--m", "12", "--trials", "2",
                   "--seed", "3", "--scalings", "N=m; N=m log m",
                   "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "density.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "scaling,grid,value"
    assert lines[1].startswith("N=m,")
    assert (tmp_path / "spectrum.svg").exists()


def test_threshold_report_written(tmp_path):
    rc = cli.main(["threshold", "--d", "2", "--n-grid", "4,8", "--trials", "30",
                   "--seed", "4", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "threshold.json").read_text())
    assert payload["version"] == "rfcond-report/1"
    assert len(payload["cells"]) == 2


def test_validate_report_written(tmp_path):
    rc = cli.main(["validate", "--d", "5", "--m", "80", "--n-grid", "6",
                   "--target", "bump:1.4142135623730951", "--trials", "3",
                   "--seed", "5", "--n-test", "100", "--permissive-constants",
                   "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "validate.json").read_text())
    assert payload["pipelines"][0]["name"] == "least_squares"
