import json
import re
import subprocess
import sys
from math import comb, inf
from pathlib import Path

import numpy as np
import pytest

from rfcond import cli, errors, experiments, targets
from rfcond.errors import InvalidArgumentError, NumericalFailureError
from rfcond.sampling import NOISE_NONE


def test_n_grid_parsing():
    assert cli._parse_n_grid("10:50:10") == (10, 20, 30, 40, 50)
    assert cli._parse_n_grid("5,9,12") == (5, 9, 12)
    assert cli._parse_n_grid("7") == (7,)
    for text in ("10:5:1", "a:b", "3:5"):
        with pytest.raises(InvalidArgumentError, match="cannot parse n-grid"):
            cli._parse_n_grid(text)


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
    for text in ("planted:abc", "planted:1.5", "bump:abc", "bump:"):
        with pytest.raises(InvalidArgumentError, match="cannot parse target spec"):
            cli._parse_target(text)


def test_invalid_config_exits_2(capsys):
    for flags, message in ((["--n-grid", "50:10:5"], "error"),
                           (["--target", "planted:abc"], "cannot parse target spec 'planted:abc'")):
        rc = cli.main(["sweep", *flags, "--out", "/tmp/unused"])
        assert rc == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err


def test_validate_snr_noise_exits_2(tmp_path, capsys):
    rc = cli.main(["validate", "--d", "3", "--m", "50", "--n-grid", "10",
                   "--target", "bump:1.4142135623730951", "--noise", "snr:0.1",
                   "--trials", "2", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "snr" in capsys.readouterr().err
    assert not (tmp_path / "validate.json").exists()


def test_closed_form_risk_below_rounding_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(targets, "_target_moments",
                        lambda target, W, gamma, kind: (-1e6, np.zeros(W.shape[1])))
    rc = cli.main(["sweep", "--d", "2", "--m", "6", "--n-grid", "3", "--trials", "1",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    assert "closed-form risk" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_validate_needs_two_test_points_for_the_risk_se(tmp_path, capsys):
    rc = cli.main(["validate", "--d", "3", "--m", "50", "--n-grid", "10",
                   "--target", "bump:1.4142135623730951", "--n-test", "1",
                   "--trials", "2", "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "n_test >= 2" in capsys.readouterr().err
    assert not (tmp_path / "validate.json").exists()


@pytest.mark.parametrize("extra, reason", [
    (["--n-grid", "200", "--pipelines", "bpdn_pruned"], "bpdn_pruned pipeline needs s"),
    (["--n-grid", "200", "--pipelines", "min_norm,bpdn_pruned"],
     "bpdn_pruned pipeline needs s"),
    (["--n-grid", "60"], "min_norm and bpdn_pruned N > m"),
    (["--n-grid", "20", "--pipelines", "min_norm", "--s", "3"], "least_squares needs N < m"),
])
def test_validate_that_selects_no_pipeline_exits_2(extra, reason, tmp_path, capsys):
    rc = cli.main(["validate", "--d", "5", "--m", "60", "--target", "bump:1.4142135623730951",
                   "--trials", "1", "--out", str(tmp_path), *extra])
    assert rc == cli.EXIT_CONFIG
    assert reason in capsys.readouterr().err
    assert not (tmp_path / "validate.json").exists()


def test_theory_prints_regime_report(capsys):
    rc = cli.main(["theory", "--m", "100", "--n-grid", "10", "--d", "3", "--eta", "0.5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["version", "config", "failure_probability", "conditions"]
    assert payload["version"] == "rfcond-report/3"
    assert payload["config"] == {"d": 3, "m": 100, "n-grid": "10", "gamma": 1.0,
                                 "sigma": 1.0, "eta": 0.5}
    assert list(payload["conditions"]) == ["strict", "permissive"]
    for mode in payload["conditions"].values():
        assert list(mode) == ["satisfied", "checks"]
        assert [c["name"] for c in mode["checks"]] == [
            "sample_complexity_simplified", "sample_complexity_tight", "feature_uncertainty"]


@pytest.mark.parametrize("scale", ["--gamma", "--sigma"])
def test_theory_draws_nothing_and_accepts_a_zero_scale(scale, capsys):
    assert cli.main(["theory", "--m", "100", "--n-grid", "10", scale, "0"]) == 0
    assert json.loads(capsys.readouterr().out)["config"][scale[2:]] == 0.0


def test_theory_at_m_equal_to_n_names_the_threshold_command(capsys):
    # The conditioning theorem has no hypotheses at m = N: an empty check list
    # would read satisfied.
    assert cli.main(["theory", "--m", "20", "--n-grid", "20"]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "threshold command" in captured.err
    assert captured.out == ""


def test_rip_exact_budget_error_exits_2(tmp_path, capsys):
    rc = cli.main(["rip", "--d", "2", "--m", "10", "--n-grid", "30", "--s", "15",
                   "--method", "exact", "--budget", "100",
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    # the library's message is printed as raised: "method auto" is both the
    # run_rip_study argument and the --method value
    assert capsys.readouterr().err == (
        "error: C(30,2) = 435 supports exceeds budget 100; method auto "
        "(rip_constant_lower_mc) gives a randomized lower bound\n")
    assert not (tmp_path / "rip.json").exists()


def test_rip_method_mc_is_refused(tmp_path, capsys):
    # --method auto --budget 1 draws the same random supports
    with pytest.raises(SystemExit) as info:
        cli.main(["rip", "--d", "2", "--m", "5", "--n-grid", "4", "--method", "mc",
                  "--out", str(tmp_path)])
    assert info.value.code == cli.EXIT_CONFIG
    assert "invalid choice: 'mc'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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


# a budget of one support sends every s < N to the random supports
_RIP_MC = {"mc": ["--method", "auto", "--budget", "1"], "exact": ["--method", "exact"]}


def test_rip_mc_lower_bounds_the_exact_constants(tmp_path):
    base = ["rip", "--d", "2", "--m", "10", "--n-grid", "8", "--s", "4", "--seed", "3",
            "--rip-trials", "25"]
    payloads = {}
    for method, flags in _RIP_MC.items():
        out = tmp_path / method
        assert cli.main(base + flags + ["--out", str(out)]) == 0
        payloads[method] = json.loads((out / "rip.json").read_text())
    mc, exact = payloads["mc"]["estimates"], payloads["exact"]["estimates"]
    assert [e["s"] for e in mc] == [1, 2, 3, 4]
    assert {e["method"] for e in mc} == {"randomized_lower_bound"}
    assert all(e["supports_evaluated"] <= min(25, comb(8, e["s"])) for e in mc)
    assert {e["method"] for e in exact} == {"exact_enumeration"}
    for lower, full in zip(mc, exact):
        assert lower["value"] <= full["value"]


def test_rip_json_reports_supports_gathered(tmp_path):
    base = ["rip", "--d", "2", "--m", "30", "--n-grid", "14", "--s", "6", "--seed", "2",
            "--rip-trials", "30"]
    payloads = {}
    for method, flags in _RIP_MC.items():
        assert cli.main(base + flags + ["--out", str(tmp_path / method)]) == 0
        payloads[method] = json.loads((tmp_path / method / "rip.json").read_text())["estimates"]
    for e in payloads["exact"]:
        assert e["supports_evaluated"] == comb(14, e["s"])
        assert e["supports_gathered"] <= e["supports_evaluated"]
        assert e["supports_pruned"] >= e["supports_evaluated"] - e["supports_gathered"]
    assert any(e["supports_gathered"] < e["supports_evaluated"] for e in payloads["exact"])
    assert all(e["supports_gathered"] == e["supports_evaluated"] for e in payloads["mc"])


def test_rip_never_reports_a_lower_bound_below_the_previous_s(tmp_path):
    # Past the budget at s = 5, the random supports alone read 0.5937 and
    # 0.4778 at s = 5 and 6; delta_s is nondecreasing, so the exact delta_4
    # is a lower bound at both.
    assert cli.main(["rip", "--d", "10", "--m", "300", "--n-grid", "60", "--s", "6",
                     "--seed", "0", "--out", str(tmp_path)]) == 0
    estimates = json.loads((tmp_path / "rip.json").read_text())["estimates"]
    assert [e["method"] for e in estimates] == ["exact_enumeration"] * 4 + [
        "randomized_lower_bound"] * 2
    assert [e["value"] for e in estimates[3:]] == [0.6115720615382956] * 3


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


LAZY_IMPORT_RUNS = {
    "sweep": "sweep --d 3 --m 20 --n-grid 4:60:4 --trials 2 --n-test 50",
    "spectrum": "spectrum --d 5 --m 12 --trials 2",
    "validate": "validate --d 3 --m 16 --n-grid 40 --target bump:1.41421356"
                " --pipelines min_norm --trials 2 --n-test 50",
    "rip": "rip --d 2 --m 30 --n-grid 8 --s 3 --method exact",
}


def test_runs_import_no_numpy_submodule_lazily(tmp_path):
    # A lazy numpy import is a fixed cost of every run: np.percentile's first
    # call, for one, imports numpy.ma (12-14 ms of a density run).
    code = ("import json, sys\n"
            "import numpy.random\n"
            "import rfcond.cli\n"
            "runs, new = json.loads(sys.argv[2]), {}\n"
            "for name, argv in runs.items():\n"
            "    before = set(sys.modules)\n"
            "    rc = rfcond.cli.main(argv.split() + ['--out', sys.argv[1] + '/' + name])\n"
            "    new[name] = [rc] + sorted(m for m in set(sys.modules) - before\n"
            "                              if m.split('.')[0] == 'numpy')\n"
            "print(json.dumps(new))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), json.dumps(LAZY_IMPORT_RUNS)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {name: [0] for name in LAZY_IMPORT_RUNS}


OFFERED = {
    "sweep": "d m n-grid gamma sigma features noise target trials seed n-test workers out",
    "spectrum": "d m gamma sigma trials seed workers out scalings",
    "threshold": "d n-grid gamma sigma trials seed workers out",
    "validate": "d m n-grid gamma sigma noise target trials seed n-test eta delta "
                "permissive-constants tol s pipelines workers out",
    "theory": "d m n-grid gamma sigma eta workers out",
    "rip": "d m n-grid gamma sigma seed s workers out method budget rip-trials",
}


def _parser_flags() -> dict[str, list[str]]:
    """command -> the long flags its parser offers, in order, without --help."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return {name: [opt[2:] for action in p._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"]
            for name, p in sub.choices.items()}


def test_each_command_offers_exactly_the_flags_it_reads():
    offered = {name: set(flags) for name, flags in _parser_flags().items()}
    assert offered == {name: set(flags.split()) for name, flags in OFFERED.items()}
    assert sum(len(flags) for flags in offered.values()) == 68


def test_readme_lists_the_flags_each_command_offers():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    # "* `sweep`: `--d --m ... --out`", the flag span possibly wrapped over lines
    listed = {name: re.findall(r"--([\w-]+)", flags)
              for name, flags in re.findall(r"^\* `(\w+)`: `([^`]*)`", readme, re.MULTILINE)}
    assert listed == _parser_flags()


@pytest.mark.parametrize("argv", [
    ["theory", "--trials", "3"], ["rip", "--noise", "none"], ["spectrum", "--n-grid", "7"],
    ["threshold", "--m", "5"], ["sweep", "--tol", "1e-3"], ["validate", "--bounds"],
    ["theory", "--report"], ["sweep", "--permissive-constants"],
    ["theory", "--permissive-constants"],
    ["threshold", "--features", "relu"], ["validate", "--features", "relu"],
    ["sweep", "--bounds"], ["sweep", "--eta", "0.4"], ["sweep", "--delta", "0.1"],
    ["spectrum", "--features", "relu"], ["rip", "--features", "relu"],
])
def test_unoffered_flag_exits_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--out", str(tmp_path)])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


_SMALL_SWEEP = ["sweep", "--n-grid", "5", "--trials", "1"]
_SMALL_RIP = ["rip", "--d", "2", "--m", "5", "--n-grid", "4"]
# c = 0 is feasible here, so PDHG never runs: only the config can refuse a bad --tol
_SMALL_BPDN = ["validate", "--d", "3", "--m", "10", "--n-grid", "20", "--target", "bump:1.5",
               "--trials", "1", "--pipelines", "bpdn_pruned", "--s", "3"]
_BUMP_RHO_NORM_OVERFLOW = ["validate", "--d", "5", "--m", "10", "--n-grid", "20",
                           "--sigma", "1e154", "--target", "bump:1.5", "--trials", "1"]
# Refusals whose message names the input at fault: id -> (argv, message)
_NAMED_REFUSALS = {
    # numpy's uniform draw needs the interval's width 2E to be finite
    "bounded-1e308": (_SMALL_SWEEP + ["--noise", "bounded:1e308"],
                      "noise level 1e+308: 2 * level overflows"),
    "bounded-half-max": (_SMALL_SWEEP + ["--noise", "bounded:8.98846567431158e307"],
                         "noise level 8.98846567431158e+307: 2 * level overflows"),
    # E = 2 nu of Gaussian noise must be finite for the bounds and the risk
    "gaussian-1e308-validate": (
        ["validate", "--d", "3", "--m", "10", "--n-grid", "5", "--target", "bump:1.5",
         "--trials", "1", "--noise", "gaussian:1e308"],
        "noise level 1e+308: 2 * level overflows"),
    "gaussian-1e308-sweep": (
        ["sweep", "--d", "3", "--m", "10", "--n-grid", "5", "--trials", "1",
         "--noise", "gaussian:1e308"],
        "noise level 1e+308: 2 * level overflows"),
    # a:b is not a spelling of a:b:1
    "n-grid-without-step": (["sweep", "--n-grid", "5:30", "--trials", "1"],
                            "cannot parse n-grid '5:30'"),
    "validate-repeated-pipeline": (
        ["validate", "--d", "3", "--m", "10", "--n-grid", "40", "--target", "bump:1.5",
         "--trials", "1", "--pipelines", "min_norm,min_norm"],
        "pipelines repeat a label: ['min_norm', 'min_norm']"),
    "planted-0": (_SMALL_SWEEP + ["--target", "planted:0"],
                  "planted_s must be >= 1, got 0"),
    # every drawing command draws X and W in random_inputs (a planted target
    # draws its W0 first); theory draws nothing
    "spectrum-gamma-0": (["spectrum", "--d", "3", "--m", "10", "--trials", "1", "--gamma", "0"],
                         "gamma must be positive to draw the data X, got 0.0"),
    "spectrum-sigma-0": (["spectrum", "--d", "3", "--m", "10", "--trials", "1", "--sigma", "0"],
                         "sigma must be positive to draw the weights W, got 0.0"),
    "validate-gamma-0": (
        ["validate", "--d", "3", "--m", "10", "--n-grid", "5", "--target", "bump:1.5",
         "--trials", "1", "--gamma", "0"],
        "gamma must be positive to draw the data X, got 0.0"),
    "sweep-sigma-0": (_SMALL_SWEEP + ["--sigma", "0"],
                      "sigma must be positive to draw the weights W, got 0.0"),
    "planted-sigma-0": (_SMALL_SWEEP + ["--target", "planted:2", "--sigma", "0"],
                        "sigma must be positive to draw planted W0, got 0.0"),
}


@pytest.mark.parametrize("argv", [
    _SMALL_SWEEP + ["--sigma", "1e200"],
    ["threshold", "--d", "2", "--n-grid", "5", "--trials", "2", "--gamma", "1e160"],
    ["validate", "--d", "12", "--m", "5", "--n-grid", "3,10", "--target", "bump:1e30",
     "--trials", "1"],
    _SMALL_SWEEP + ["--noise", "bounded:inf"],
    _SMALL_SWEEP + ["--gamma", "-1"],
    ["theory", "--gamma", "nan", "--n-grid", "10"],
    _SMALL_SWEEP + ["--noise", "gaussian:nan"],
    _SMALL_SWEEP + ["--noise", "snr:nan"],
    ["sweep", "--target", "bump:1", "--sigma", "1e-200", "--n-grid", "5", "--trials", "1"],
    _SMALL_SWEEP + ["--gamma", "1e-200"],
    _BUMP_RHO_NORM_OVERFLOW,
    # ||y|| ~ 1e154 overflows a plain sum of squares in bpdn before the bound check
    ["validate", "--d", "3", "--m", "10", "--n-grid", "20", "--target", "bump:1.5",
     "--trials", "1", "--noise", "bounded:1e154", "--s", "3", "--pipelines", "bpdn_pruned"],
    _SMALL_RIP + ["--budget", "-5", "--method", "exact"],
    _SMALL_RIP + ["--budget", "0"],
    _SMALL_RIP + ["--rip-trials", "-4"],
    ["spectrum", "--d", "3", "--m", "10", "--trials", "1", "--scalings", "N=m;N=m"],
    ["validate", "--d", "3", "--m", "10", "--n-grid", "5", "--target", "bump:1.5",
     "--trials", "1", "--eta", "0.9"],
    ["threshold", "--n-grid", "1,1000", "--trials", "10"],
    ["validate", "--d", "3", "--m", "10", "--n-grid", "20", "--target", "bump:1.5",
     "--trials", "1", "--pipelines", "bpdn_pruned", "--s", "0"],
    ["spectrum", "--d", "2", "--m", "3", "--trials", "1"],
    ["theory", "--m", "100", "--n-grid", "10", "--eta", "1e-300"],
    ["theory", "--m", "100", "--n-grid", "10", "--eta", "7e-155"],
    ["validate", "--d", "3", "--m", "10", "--n-grid", "5", "--target", "bump:1.5",
     "--trials", "1", "--n-test", "2", "--eta", "1e-300"],
    *([*_SMALL_BPDN, "--tol", tol] for tol in ("nan", "inf", "0", "-1")),
    ["theory", "--m", "20", "--n-grid", "20"],
    *(argv for argv, _ in _NAMED_REFUSALS.values()),
], ids=["sigma-1e200", "gamma-1e160", "bump-1e30", "bounded-inf", "gamma-negative",
        "theory-gamma-nan", "gaussian-nan", "snr-nan", "sigma-1e-200", "gamma-1e-200",
        "bump-sigma-1e154", "bpdn-noise-1e154", "rip-budget-negative", "rip-budget-zero",
        "rip-trials-negative", "spectrum-repeated-scaling", "validate-eta-outside-band",
        "threshold-n-1", "validate-s-0", "spectrum-m-3", "theory-eta-1e-300",
        "theory-eta-7e-155", "validate-eta-1e-300", "tol-nan", "tol-inf", "tol-0",
        "tol-negative", "theory-m-equals-n", *_NAMED_REFUSALS])
def test_non_finite_or_overflowing_input_exits_2(argv, tmp_path, capfd):
    rc = cli.main(argv + ["--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    out, err = capfd.readouterr()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Warning" not in err
    assert out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", _NAMED_REFUSALS.values(), ids=list(_NAMED_REFUSALS))
def test_config_refusals_name_their_input(argv, message, tmp_path, capsys):
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {message}")


_ERROR_TYPES = [v for v in vars(errors).values()
                if isinstance(v, type) and v.__module__ == errors.__name__]


@pytest.mark.parametrize("error_type", _ERROR_TYPES, ids=lambda t: t.__name__)
def test_the_exception_type_is_the_exit_code(error_type, monkeypatch, tmp_path, capsys):
    def fail(config):
        raise error_type("the study failed")

    monkeypatch.setattr(cli, "run_threshold_study", fail)
    rc = cli.main(["threshold", "--d", "2", "--n-grid", "5", "--trials", "2",
                   "--out", str(tmp_path)])
    if issubclass(error_type, InvalidArgumentError):
        assert rc == cli.EXIT_CONFIG
        prefix = "error"
    else:
        assert issubclass(error_type, NumericalFailureError)
        assert rc == cli.EXIT_NUMERICAL
        prefix = "numerical failure"
    assert capsys.readouterr().err == f"{prefix}: the study failed\n"
    assert not any(tmp_path.iterdir())


_OVERFLOWING_RISK = ["sweep", "--d", "3", "--m", "10", "--trials", "1"]


@pytest.mark.parametrize("argv, message", [
    (_OVERFLOWING_RISK + ["--n-grid", "40", "--n-test", "2", "--noise", "gaussian:1e160"],
     "Monte Carlo risk inf is not finite"),
    (_OVERFLOWING_RISK + ["--n-grid", "40", "--noise", "gaussian:1e160"], "closed-form risk"),
    (_OVERFLOWING_RISK + ["--n-grid", "5", "--noise", "bounded:1e200"], "closed-form risk"),
], ids=["monte-carlo", "closed-form", "closed-form-bounded"])
def test_overflowing_risk_exits_3_with_one_line(argv, message, tmp_path, capfd):
    # |f - f#|^2 overflows: both risk estimators refuse the non-finite value
    # they compute, with one line and no RuntimeWarning
    rc = cli.main(argv + ["--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    out, err = capfd.readouterr()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"numerical failure: {message}")
    assert "Warning" not in out + err
    assert not any(tmp_path.iterdir())


def test_monte_carlo_risk_se_is_finite_where_squared_deviations_overflow(tmp_path):
    # a risk of order 1e279 has squared deviations of order 1e558
    assert cli.main(["validate", "--d", "3", "--m", "10", "--n-grid", "40",
                     "--target", "bump:1.5", "--trials", "1", "--n-test", "2",
                     "--noise", "gaussian:1e140", "--out", str(tmp_path)]) == 0
    trial, = json.loads((tmp_path / "validate.json").read_text())["pipelines"][0]["trials"]
    assert trial["risk_method"] == "monte_carlo"
    assert 1e278 < trial["empirical_risk"] < inf
    assert 0 < trial["risk_se"] < inf


@pytest.mark.parametrize("pipeline", ["bpdn_pruned", "min_norm"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_validate_refuses_a_bad_tol_before_any_trial(tol, pipeline, tmp_path, monkeypatch,
                                                    capsys):
    # The config refuses it, so no pipeline draws a trial first, and min_norm,
    # which never reads --tol, does not take it silently.
    calls = []
    monkeypatch.setattr(experiments, "random_features", lambda *args: calls.append(args))
    rc = cli.main(["validate", "--d", "3", "--m", "10", "--n-grid", "20", "--target", "bump:1.5",
                   "--trials", "1", "--pipelines", pipeline, "--s", "3", "--tol", tol,
                   "--out", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: tol must be finite and positive, got {float(tol)}\n")
    assert calls == []
    assert not any(tmp_path.iterdir())


def test_bump_rho_norm_overflow_names_its_inputs(tmp_path, capsys):
    # (a^2 sigma^2)^(d/2) overflows through sigma, not through a
    assert cli.main(_BUMP_RHO_NORM_OVERFLOW + ["--out", str(tmp_path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "rho-norm" in err
    assert "a = 1.5, sigma = 1e+154, d = 5" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--d", "2", "--m", "10", "--n-grid", "5,20", "--trials", "1"],
    ["spectrum", "--d", "2", "--m", "10", "--trials", "1"],
    ["threshold", "--d", "2", "--n-grid", "5,8", "--trials", "2"],
    ["rip", "--d", "2", "--m", "10", "--n-grid", "8", "--s", "2"],
], ids=["sweep", "spectrum", "threshold", "rip"])
def test_overflowing_feature_phases_exit_3_with_one_line(argv, tmp_path, capfd):
    # gamma^2 and sigma^2 are finite, so the config passes, but X^T W overflows
    rc = cli.main(argv + ["--gamma", "1e154", "--sigma", "1e154", "--out", str(tmp_path)])
    assert rc == cli.EXIT_NUMERICAL
    out, err = capfd.readouterr()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:")
    assert "feature phases overflow" in lines[0]
    assert "Warning" not in out + err and "DLASCL" not in out + err


@pytest.mark.parametrize("argv, message", [
    (["validate", "--d", "20", "--m", "10", "--n-grid", "5", "--target", "bump:1e10",
      "--trials", "1"], "rho-norm ||f||_rho = 1e+200 is too large: its square overflows"),
    (["validate", "--d", "3", "--m", "10", "--n-grid", "5", "--target", "bump:1.5",
      "--trials", "1", "--noise", "bounded:1e155"],
     "noise bound E = 1e+155 is too large: its square overflows"),
    (["validate", "--d", "3", "--m", "10", "--n-grid", "5", "--target", "bump:1e51",
      "--trials", "1"], "risk bound inf is not finite: rho-norm ||f||_rho = 1e+153"),
    (["validate", "--d", "3", "--m", "10", "--n-grid", "5", "--target", "bump:1.5",
      "--trials", "1", "--noise", "bounded:1e154"],
     "risk bound inf is not finite: rho-norm ||f||_rho = 3.375 or noise bound E = 1e+154"),
], ids=["validate-rho-norm", "validate-noise-bound",
        "validate-rho-norm-product", "validate-noise-bound-product"])
def test_bound_whose_square_overflows_exits_2(argv, message, tmp_path, capsys):
    rc = cli.main(argv + ["--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_without_bounds_runs_where_the_bound_would_overflow(tmp_path):
    rc = cli.main(["sweep", "--d", "20", "--m", "10", "--n-grid", "5", "--target",
                   "bump:1e10", "--trials", "1", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "sweep.csv").exists()


def test_bpdn_runs_pdhg_where_zero_is_infeasible(tmp_path):
    # ROADMAP item 5's point: ||y|| = 13.9 exceeds the radius xi sqrt(m) = 5.38,
    # so c = 0 is infeasible and the solver must iterate to its gap.  The
    # assertions hold for any solver that certifies the gap.
    tol = 1e-4
    rc = cli.main(["validate", "--d", "1", "--gamma", "0.5", "--sigma", "0.5", "--m", "200",
                   "--n-grid", "2400", "--target", "bump:2.8284271", "--s", "10",
                   "--pipelines", "bpdn_pruned", "--trials", "1", "--tol", str(tol),
                   "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    (pipeline,) = json.loads((tmp_path / "validate.json").read_text())["pipelines"]
    (trial,) = pipeline["trials"]
    assert trial["iterations"] > 0
    assert "zero_feasible_no_iterations" not in trial["flags"]
    assert trial["duality_gap"] <= tol
    assert trial["nnz"] == pipeline["s"] == 10
    assert trial["covered"]


def test_theory_rejects_zero_workers(capsys):
    rc = cli.main(["theory", "--m", "100", "--n-grid", "10", "--workers", "0"])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().out == ""


def test_threshold_report_written(tmp_path):
    rc = cli.main(["threshold", "--d", "2", "--n-grid", "4,8", "--trials", "30",
                   "--seed", "4", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "threshold.json").read_text())
    assert payload["version"] == "rfcond-report/3"
    assert len(payload["cells"]) == 2


def test_validate_report_written(tmp_path):
    rc = cli.main(["validate", "--d", "5", "--m", "80", "--n-grid", "6",
                   "--target", "bump:1.4142135623730951", "--trials", "3",
                   "--seed", "5", "--n-test", "100", "--permissive-constants",
                   "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "validate.json").read_text())
    assert payload["pipelines"][0]["name"] == "least_squares"
