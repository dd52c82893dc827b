import json
from math import comb

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


def test_rip_mc_lower_bounds_the_exact_constants(tmp_path):
    base = ["rip", "--d", "2", "--m", "10", "--n-grid", "8", "--s", "4", "--seed", "3",
            "--rip-trials", "25"]
    payloads = {}
    for method in ("mc", "exact"):
        out = tmp_path / method
        assert cli.main(base + ["--method", method, "--out", str(out)]) == 0
        payloads[method] = json.loads((out / "rip.json").read_text())
    mc, exact = payloads["mc"]["estimates"], payloads["exact"]["estimates"]
    assert [e["s"] for e in mc] == [1, 2, 3, 4]
    assert {e["method"] for e in mc} == {"randomized_lower_bound"}
    assert all(e["supports_evaluated"] <= min(25, comb(8, e["s"])) for e in mc)
    assert {e["method"] for e in exact} == {"exact_enumeration"}
    for lower, full in zip(mc, exact):
        assert lower["value"] <= full["value"]


@pytest.mark.parametrize("command", ["rip", "theory"])
def test_single_n_commands_reject_a_multi_value_grid(command, tmp_path, capsys):
    rc = cli.main([command, "--d", "2", "--m", "10", "--n-grid", "6,8",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "single N" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "rip.json").exists()


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


OFFERED = {
    "sweep": "d m n-grid gamma sigma features noise target trials seed n-test eta delta "
             "permissive-constants bounds workers out",
    "spectrum": "d m gamma sigma features trials seed workers out scalings",
    "threshold": "d n-grid gamma sigma features trials seed workers out",
    "validate": "d m n-grid gamma sigma features noise target trials seed n-test eta delta "
                "permissive-constants tol s pipelines workers out",
    "theory": "d m n-grid gamma sigma eta permissive-constants workers out",
    "rip": "d m n-grid gamma sigma features seed s workers out method budget rip-trials",
}


def test_each_command_offers_exactly_the_flags_it_reads():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    offered = {name: {opt[2:] for action in p._actions for opt in action.option_strings
                      if opt.startswith("--") and opt != "--help"}
               for name, p in sub.choices.items()}
    assert offered == {name: set(flags.split()) for name, flags in OFFERED.items()}
    assert sum(len(flags) for flags in offered.values()) == 77


@pytest.mark.parametrize("argv", [
    ["theory", "--trials", "3"], ["rip", "--noise", "none"], ["spectrum", "--n-grid", "7"],
    ["threshold", "--m", "5"], ["sweep", "--tol", "1e-3"], ["validate", "--bounds"],
    ["theory", "--report"],
])
def test_unoffered_flag_exits_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--out", str(tmp_path)])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_theory_rejects_zero_workers(capsys):
    rc = cli.main(["theory", "--m", "100", "--n-grid", "10", "--workers", "0"])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().out == ""


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
