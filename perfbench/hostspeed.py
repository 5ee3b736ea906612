"""A fixed reference kernel that samples how fast the host runs right now.

On a shared host the speed of one core drifts by 20 % and more over periods
of tens of seconds (other tenants, clock changes); it moves the solvers and
this kernel alike. The benchmark times the kernel between paired cells and
reports each solver's cost in units of the kernel's time, which cancels the
drift; set-up time is scaled the same way to seconds at NOMINAL_S per
kernel call. The kernel is the benchmark's own code and calls nothing in mlrfit,
so no change to the package can move it.

Its work resembles a fit's: residuals of an N x d design against K
coefficient columns, Gaussian log-densities, a row softmax and K weighted
least-squares solves, on fixed data. Its arrays (N = 2000) stay in cache;
a kernel sized to laplace-large's N tracked that workload's drift worse
when both were timed side by side.
"""

import time

import numpy as np

_GEN = np.random.default_rng(20210512)
_X = _GEN.standard_normal((2000, 2))
_Y = _GEN.standard_normal(2000)
_BETA = _GEN.standard_normal((2, 3))
PASSES = 24
REPEATS = 3
# About the kernel's median time on the 2.1 GHz Xeon vCPU where the benchmark
# was built. setup_s is scaled to it, so it reads as seconds on that host at
# its usual speed.
NOMINAL_S = 0.0065


def kernel() -> np.ndarray:
    beta = _BETA.copy()
    for _ in range(PASSES):
        r = _Y[:, None] - _X @ beta
        logd = -0.5 * r * r
        w = np.exp(logd - logd.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        for k in range(beta.shape[1]):
            xw = _X * w[:, k : k + 1]
            beta[:, k] = np.linalg.solve(xw.T @ _X, xw.T @ _Y)
    return beta


def sample() -> float:
    """Seconds of the fastest of REPEATS back-to-back kernel calls."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - started)
    return best
