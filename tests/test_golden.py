"""Golden outputs: SHA-256 of every file the canonical CLI commands write.

The six commands are the fixed-seed ones of acceptance criterion 10, run
in-process through ``rfcond.cli.main`` with one worker and one BLAS thread.
A refactor that is meant to keep behaviour must keep these digests.  The
digests were recorded with numpy 2.4 on OpenBLAS 0.3.31 (x86-64); another
BLAS build may round differently.  A change that alters numerics on purpose
regenerates them and states the numeric difference in CHANGES.md.
"""

import hashlib
import json

import pytest

from rfcond.cli import main

BUMP = "bump:1.4142135623730951"

COMMANDS = {
    "sweep": ["sweep", "--d", "3", "--m", "15", "--n-grid", "5:30:5",
              "--sigma", "0.5", "--trials", "4", "--seed", "9", "--n-test", "100"],
    "spectrum": ["spectrum", "--d", "5", "--m", "20", "--trials", "4", "--seed", "3"],
    "threshold": ["threshold", "--d", "2", "--n-grid", "5,8", "--trials", "8",
                  "--seed", "4"],
    "validate": ["validate", "--d", "5", "--m", "60", "--n-grid", "6,200",
                 "--target", BUMP, "--s", "3", "--trials", "4",
                 "--seed", "5", "--n-test", "100", "--permissive-constants"],
    "theory": ["theory", "--m", "200", "--n-grid", "20", "--d", "4", "--eta", "0.4"],
    "rip": ["rip", "--d", "2", "--m", "15", "--n-grid", "10", "--s", "5",
            "--seed", "6", "--rip-trials", "40"],
}

# command -> {output file name (or "stdout"): sha256}
GOLDEN = {
    "sweep": {
        "sweep.csv": "94c68d1834b70b30504b2929d4d3c0ab58e7f33868163a3679dcb41dc387d0a3",
        "sweep.svg": "ca4513dd965b23c83bf1661751e10a604daf29944ccc26b0ad1afcd4630b7d34",
        "sweep_summary.json": "915e87fd5acaf666821e7c1bd295be17d1f495d236b2335180b439f46e7b2342",
    },
    "spectrum": {
        "density.csv": "050d82be0e6a04c7928428f7d74081c1e91ebb2c4fcafe6c04e64c3dc836fba8",
        "spectrum.svg": "54bc83e721cae9959f7030de443b8f1195cf64e74d6d31a8c960f94465fc8a0f",
        "spectrum_summary.json": "6cee9cddbc016837fd977fcb583bee89eeb3ba3eab67fd24cb7fdb18dfa8c68e",
    },
    "threshold": {
        "threshold.json": "f82e1cf975d0b0369bdc4be0b53bc76999cb399932aba5ca32874b227d8357be",
    },
    "validate": {
        "validate.json": "44beb707c24bb6944516fcd2d7bc3adec9a96479f8eea9c637a2fdd1d61eec1c",
    },
    "theory": {
        "stdout": "516be2c6befbad9aeb2cd1acca6b9f8445967d1706738f9a0c65116be5965852",
    },
    "rip": {
        "rip.json": "b96b3205dbe568b415129bb2d2d2b7d39b463e7ca6e5db8d66aa23c2c076e286",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(name: str, out, capsys) -> dict[str, bytes]:
    """The bytes of every file the run of `name` wrote under `out`, and of the
    report theory prints to stdout."""
    outputs = {p.name: p.read_bytes() for p in sorted(out.glob("*"))}
    if name == "theory":
        outputs["stdout"] = capsys.readouterr().out.encode()
    return outputs


@pytest.mark.parametrize("name", list(COMMANDS))
def test_golden_output(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(COMMANDS[name] + ["--workers", "1", "--out", str(out)]) == 0
    digests = {f: _sha256(data) for f, data in _outputs(name, out, capsys).items()}
    assert digests == GOLDEN[name]


def test_theory_prints_the_regime_checks_of_the_golden_validate_run(tmp_path, capsys):
    # One reporter: at the golden least-squares point (m = 60, N = 6), theory
    # prints per mode the conditioning checks the least-squares bound ends with.
    assert main(COMMANDS["validate"] + ["--out", str(tmp_path)]) == 0
    pipelines = json.loads((tmp_path / "validate.json").read_text(encoding="utf-8"))["pipelines"]
    validate = next(p for p in pipelines if p["name"] == "least_squares")["conditions"]
    capsys.readouterr()
    assert main(["theory", "--d", "5", "--m", "60", "--n-grid", "6", "--eta", "0.5"]) == 0
    theory = json.loads(capsys.readouterr().out)["conditions"]
    assert list(theory) == list(validate) == ["strict", "permissive"]
    for mode in theory:
        assert len(theory[mode]["checks"]) == 3
        assert theory[mode]["checks"] == validate[mode]["checks"][-3:]


# command -> the JSON report that carries its config block; theory prints it
REPORTS = {"sweep": "sweep_summary.json", "spectrum": "spectrum_summary.json",
           "threshold": "threshold.json", "validate": "validate.json", "theory": "stdout",
           "rip": "rip.json"}


def _replay_argv(command: str, config: dict) -> list[str]:
    """The command line a config block stands for: true is a bare flag, false
    and null are left out, any other value is --flag value."""
    argv = [command]
    for flag, value in config.items():
        if value is True:
            argv.append(f"--{flag}")
        elif value is not False and value is not None:
            argv += [f"--{flag}", str(value)]
    return argv


@pytest.mark.parametrize("name", list(REPORTS))
def test_config_block_replays_the_run(name, tmp_path, capsys):
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(COMMANDS[name] + ["--workers", "1", "--out", str(first)]) == 0
    outputs = _outputs(name, first, capsys)
    config = json.loads(outputs[REPORTS[name]].decode("utf-8"))["config"]
    assert main(_replay_argv(name, config) + ["--workers", "1", "--out", str(replay)]) == 0
    assert _outputs(name, replay, capsys) == outputs
