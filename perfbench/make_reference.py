#!/usr/bin/env python3
"""Record the reference headline numbers that result_rel_err compares against.

    python3 perfbench/make_reference.py

Runs every workload once per CLI seed (0..7 at the bench scale, 0 at the tiny
and full scales), requires its output checks to pass, and rewrites
perfbench/reference.json. Run it only when a change alters the numbers on
purpose, and state the old-versus-new deviation where the change is described.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = {"bench": range(run.REF_SEEDS), "tiny": range(1), "full": range(1)}


def main() -> int:
    reference = {}
    for scale, seeds in SEEDS.items():
        for workload in run.WORKLOADS:
            for cli_seed in seeds:
                out = run.WORK / workload / "cli"
                argv = run.cli_argv(workload, scale, cli_seed, out)
                rep = run.run_rep(workload, argv, out, False, f"reference-{cli_seed}")
                key = f"{workload}/{scale}/{cli_seed}"
                if rep["problems"]:
                    print(f"{key}: {rep['problems']}", file=sys.stderr)
                    return 1
                reference[key] = rep["headline"]
                print(f"{key}: run_s {rep['run_s']:.3f}", flush=True)
    run.REFERENCE.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in reference.items())
        + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
