#!/usr/bin/env python3
"""Record the full-size baseline of every workload (about seven minutes).

    python3 perfbench/baseline.py

Runs each workload at its ROADMAP size (``--scale full``, seed 0): three
untraced repetitions, then a traced run of two untraced and one traced
repetition. Writes perfbench/baseline.json with the end-to-end medians,
calibrated and wall, with min and max; failed_ratio; result_rel_err; output
digests; machine facts; per-layer metrics; layer shares of the traced run_s;
and the tracing overhead.
"""

from __future__ import annotations

import json
import sys

import run

KEEP = ("cli_argv", "attempted", "failed", "failed_ratio", "result_rel_err", "problems",
        "end_to_end", "wall", "digests", "digests_identical", "facts")
KEEP_TRACED = ("per_layer", "layer_shares_of_traced_run_s", "traced_run_s",
               "trace_overhead_s", "counts_repeat", "factorizations_outside_spans",
               "unwrapped")


def main() -> int:
    baseline = {}
    for workload in run.WORKLOADS:
        plain = run.run_workload(workload, "full", 0, 0, trace=False)
        traced = run.run_workload(workload, "full", 0, 0, trace=True)
        baseline[workload] = {**{k: plain[k] for k in KEEP},
                              "traced": {k: traced.get(k) for k in KEEP_TRACED}}
        print(f"{workload}: wall run_s {plain['wall']['run_s']['median']:.3f} s, "
              f"failed {plain['failed'] + traced['failed']}", flush=True)
    path = run.HERE / "baseline.json"
    path.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0 if all(b["failed"] == 0 for b in baseline.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
