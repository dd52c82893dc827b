"""Time a fixed mix of rfcond's kinds of work, to gauge the machine's speed now.

    python3 perfbench/calibrate.py

Prints the seconds taken by complex ``exp`` of matrix products, one small and
one of 64 MB (feature construction), a thin SVD (factorization), 3000 small
``eigvalsh`` calls in a Python loop (exact RIP) and a plain Python loop. It
imports nothing from rfcond, so no change to the program can move it.
``run.py`` runs it in its own process after every untraced repetition and
divides the repetition's times by it.
"""

import time

import numpy as np


def calibrate() -> float:
    rng = np.random.default_rng(0)
    X, W = rng.standard_normal((3, 500)), rng.standard_normal((3, 3000))
    X_big, W_big = rng.standard_normal((12, 1000)), rng.standard_normal((12, 4000))
    M = rng.standard_normal((150, 1500))
    G = rng.standard_normal((6, 6))
    G = G + G.T
    start = time.perf_counter()
    np.exp(1j * (X.T @ W))
    np.exp(1j * (X_big.T @ W_big)) @ np.ones(4000)
    np.linalg.svd(M, compute_uv=False)
    for _ in range(3000):
        np.linalg.eigvalsh(G)
    total = 0
    for i in range(300_000):
        total += i
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(calibrate()))
