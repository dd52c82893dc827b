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
        "density.csv": "d3561046fd4336b83aa014d1478f3bb49dfa43b11c69ed4dfe7c242935a3a344",
        "spectrum.svg": "3d43fcdaaf34ad29101f215fbd98c89759f04b835bafffc1cd76496997f7f73e",
        "spectrum_summary.json": "cc971f50c9a7a1ddd3977771922e31578c0346abd240602b25cb1cf2e0cf8d8f",
    },
    "threshold": {
        "threshold.json": "f82e1cf975d0b0369bdc4be0b53bc76999cb399932aba5ca32874b227d8357be",
    },
    "validate": {
        "validate.json": "59e7ae7f3b491f8ed507a8ad528be4d785fd2e8ca2de4dd11d0caf1e211f020c",
    },
    "theory": {
        "stdout": "c09e926acd4ca18c7bd1981f0b0ac50d7de45379f70c37976abe3e8938152253",
    },
    "rip": {
        "rip.json": "b96b3205dbe568b415129bb2d2d2b7d39b463e7ca6e5db8d66aa23c2c076e286",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_golden_output(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(COMMANDS[name] + ["--workers", "1", "--out", str(out)]) == 0
    digests = {p.name: _sha256(p.read_bytes()) for p in sorted(out.glob("*"))}
    if name == "theory":
        digests["stdout"] = _sha256(capsys.readouterr().out.encode())
    assert digests == GOLDEN[name]


# command -> the JSON report that carries its config block
REPORTS = {"sweep": "sweep_summary.json", "spectrum": "spectrum_summary.json",
           "threshold": "threshold.json", "validate": "validate.json", "rip": "rip.json"}


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
def test_config_block_replays_the_run(name, tmp_path):
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(COMMANDS[name] + ["--workers", "1", "--out", str(first)]) == 0
    config = json.loads((first / REPORTS[name]).read_text(encoding="utf-8"))["config"]
    assert main(_replay_argv(name, config) + ["--workers", "1", "--out", str(replay)]) == 0
    files = sorted(p.name for p in first.glob("*"))
    assert files == sorted(p.name for p in replay.glob("*"))
    for fname in files:
        assert (first / fname).read_bytes() == (replay / fname).read_bytes(), fname
