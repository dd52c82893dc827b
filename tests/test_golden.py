"""Golden outputs: SHA-256 of every file the canonical CLI commands write.

The six commands are the fixed-seed ones of acceptance criterion 10, run
in-process through ``rfcond.cli.main`` with one worker and one BLAS thread.
A refactor that is meant to keep behaviour must keep these digests.  The
digests were recorded with numpy 2.4 on OpenBLAS 0.3.31 (x86-64); another
BLAS build may round differently.  A change that alters numerics on purpose
regenerates them and states the numeric difference in CHANGES.md.
"""

import hashlib

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
        "sweep.csv": "02073b3979fdadbe99dd2735a53fda58a5e82085674e3b36619ef89e17a73297",
        "sweep.svg": "c24516076dd3c38b792c73974cc3531592953d73c703d2496a97255684e2ce08",
        "sweep_summary.json": "12ac84bf7e93e26bf3165f3d110513ad26a4f731f653458d917bc99ecc951fb7",
    },
    "spectrum": {
        "density.csv": "f5f68bb47c8ce17898a9ecd9912952fb9819071006ad1fef310611799c76283b",
        "spectrum.svg": "3d43fcdaaf34ad29101f215fbd98c89759f04b835bafffc1cd76496997f7f73e",
        "spectrum_summary.json": "4cca3acff8f09b6be40e0842396b7a187fe0e1bd21d6be1d64cd5efef2f5bca3",
    },
    "threshold": {
        "threshold.json": "c2da85a686aaab08a4d52d60d26b815b358a22bbc09596f05b0fbef9982effb3",
    },
    "validate": {
        "validate.json": "a247a5c191d5aaf20292b88b44f251f21b88795a735ff09bed6c67ad971971e0",
    },
    "theory": {
        "stdout": "320ff288797694fe1424e91b7e0bf592bf47a4ae1630e510e7641119a8e9e756",
    },
    "rip": {
        "rip.json": "1fe4124466b87acaf6501413726e74d7f46656f55c1e5263a0748fd8ee2f0ba0",
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
