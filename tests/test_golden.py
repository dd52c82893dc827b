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
        "sweep.csv": "294a0bde1ba511e18aa7b3a50dd22582ba937e15eb3e728482a1fccdb98d5733",
        "sweep.svg": "ca4513dd965b23c83bf1661751e10a604daf29944ccc26b0ad1afcd4630b7d34",
        "sweep_summary.json": "e3d9171a777d4d001a1aef007ef3dd6706aa2e698a860ad9d44529e1dd477f1d",
    },
    "spectrum": {
        "density.csv": "65e4a8c933fdcb6608c93322196c48921691dfb5e12e9648025af1f1400c34eb",
        "spectrum.svg": "3d43fcdaaf34ad29101f215fbd98c89759f04b835bafffc1cd76496997f7f73e",
        "spectrum_summary.json": "acb532bb4bb7a6ba55a799d5a8bc314d644b19d26d57e504731db86b34f2854c",
    },
    "threshold": {
        "threshold.json": "e65fa6cf2777af4adbc9acffedb2c5e783dfc42ad53eaee236c91f2945649737",
    },
    "validate": {
        "validate.json": "d667f43944626697a21b15e3c89abf33d3f71f3e86f1763e841eb6d8b2f49345",
    },
    "theory": {
        "stdout": "7a294e1eb65e1848c877a3365c114d044f9c04c0d706a3f471e4c97b6042bb35",
    },
    "rip": {
        "rip.json": "962992b3338745f24a5105d79354c6141023a8a4b16dcc36b02b0ebe0366caed",
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
