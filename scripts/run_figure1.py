#!/usr/bin/env python3
"""Double descent of the condition number and the population risk.

Runs the three sweep panels (Fourier without noise, Fourier at 10% SNR, ReLU
without noise) with d=3, m=100, data variance 1, weight variance 0.1, a random
linear target, and 10 trials per feature count over N = 10..500.

Outputs per panel: sweep.csv, sweep_summary.json, sweep.svg.
"""

import argparse
import math
import sys

from rfcond import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/figure1")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    sigma = str(math.sqrt(0.1))
    common = ["sweep", "--d", "3", "--m", "100", "--n-grid", "10:500:10",
              "--gamma", "1.0", "--sigma", sigma, "--target", "linear",
              "--trials", str(args.trials), "--seed", str(args.seed),
              "--workers", str(args.workers)]
    panels = [
        ("fourier_clean", ["--features", "fourier", "--noise", "none"]),
        ("fourier_snr10", ["--features", "fourier", "--noise", "snr:0.1"]),
        ("relu_clean", ["--features", "relu", "--noise", "none"]),
    ]
    for name, extra in panels:
        rc = cli.main(common + extra + ["--out", f"{args.out}/{name}"])
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
