#!/usr/bin/env python3
"""Fast self-test of the benchmark harness (about half a minute).

    python3 perfbench/selftest.py

Runs every workload at the tiny scale, untraced and traced, and checks that
the last output line names every metric of BENCHMARK.json exactly once with
its unit, that the run is correct with result_rel_err 0, that self time is
duration minus child coverage, and that a deliberately broken output check is
counted as a failure. Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import layertrace
import run


def run_main(argv: list[str]) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(argv)
    return rc, buf.getvalue().splitlines()


def check_metric_lines(spec: dict) -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{workload} trace {trace}"
            rc, lines = run_main(["--workload", workload, "--scale", "tiny", "--seconds", "0",
                                  "--trace", str(trace)])
            if rc != 0 or not lines:
                problems.append(f"{where}: exit code {rc}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {lines[-1]}")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics {got} != {expected}")
            problems += [f"{where}: {name} printed {lines[-1].count(f'{name}:')} times"
                         for name in expected if lines[-1].count(f'"{name}":') != 1]
            report = json.loads((run.WORK / f"report-{workload}-tiny-seed0-trace{trace}.json")
                                .read_text(encoding="utf-8"))
            if report["result_rel_err"] != 0.0:
                problems.append(f"{where}: result_rel_err {report['result_rel_err']}")
    return problems


def check_self_time() -> list[str]:
    tracer = layertrace.Tracer("selftest")
    # An io span of 10 s holding two disjoint children (2 s, 3 s), the second
    # holding a 1 s grandchild.
    tracer.spans = [["io", "a", 0.0, 10.0, None], ["features", "b", 1.0, 3.0, 0],
                    ["spectral", "c", 4.0, 7.0, 0], ["sampling", "d", 5.0, 6.0, 2]]
    got = tracer.self_seconds()
    want = {"io": 5.0, "features": 2.0, "spectral": 2.0, "sampling": 1.0}
    return [f"self time {layer} = {got[layer]}, expected {s}"
            for layer, s in want.items() if got[layer] != s]


def check_broken_check_counts() -> list[str]:
    original = run.CHECKS["rip"]
    run.CHECKS["rip"] = lambda out: ["deliberately broken check"]
    try:
        rc, lines = run_main(["--workload", "rip", "--scale", "tiny", "--seconds", "0",
                              "--trace", "0"])
    finally:
        run.CHECKS["rip"] = original
    result = json.loads(lines[-1])
    if rc != 0 or result["correct"] or result["failed"] != result["attempted"]:
        return [f"broken check not counted as failure: {lines[-1]}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_self_time() + check_metric_lines(spec) + check_broken_check_counts()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
