"""Checks of fit outputs against computations made apart from mlrfit.

Nothing here calls into the package: densities, the mixture likelihood,
the component matching and the LAD optimum are all recomputed from their
definitions. Every check returns None when the output passes and a short
message when it does not.
"""

import itertools
import math
from typing import Optional

import numpy as np
import scipy.optimize
import scipy.sparse

LL_RTOL = 1e-9
MATCH_RTOL = 1e-12
ASCENT_RTOL = 1e-9
LAD_RTOL = 1e-9


def log_density(kind: str, sigma: float, r: np.ndarray) -> np.ndarray:
    """log f(r) for zero-mean Gaussian or Laplacian noise of standard deviation sigma."""
    if kind == "gaussian":
        return -0.5 * (r / sigma) ** 2 - 0.5 * math.log(2.0 * math.pi * sigma * sigma)
    b = sigma / math.sqrt(2.0)
    return -np.abs(r) / b - math.log(2.0 * b)


def mixture_log_likelihood(beta, x, y, kind: str, sigma: float) -> float:
    """sum_i log((1/K) sum_k f(y_i - <x_i, beta_k>)), max-shifted per sample."""
    k = beta.shape[1]
    logf = log_density(kind, sigma, y[:, None] - x @ beta) - math.log(k)
    peak = logf.max(axis=1)
    return float(np.sum(peak + np.log(np.exp(logf - peak[:, None]).sum(axis=1))))


def check_log_likelihood(beta, x, y, kind, sigma, reported) -> Optional[str]:
    expected = mixture_log_likelihood(beta, x, y, kind, sigma)
    if not abs(reported - expected) <= LL_RTOL * abs(expected):
        return f"final log-likelihood {reported!r} != recomputed {expected!r}"
    return None


def best_matching(estimated, truth):
    """(error, permutation) minimising sum_k ||truth_k - estimated_perm[k]|| over all K!."""
    k = truth.shape[1]
    best = None
    for perm in itertools.permutations(range(k)):
        error = sum(float(np.linalg.norm(truth[:, j] - estimated[:, perm[j]])) for j in range(k))
        if best is None or error < best[0]:
            best = (error, perm)
    return best


def check_recovery(estimated, truth, error, assignment) -> Optional[str]:
    """The reported error is the K!-minimum and the reported matching attains it."""
    best, _ = best_matching(estimated, truth)
    attained = sum(
        float(np.linalg.norm(truth[:, j] - estimated[:, assignment[j]]))
        for j in range(truth.shape[1])
    )
    scale = MATCH_RTOL * max(best, 1.0)
    if abs(error - best) > scale or abs(attained - best) > scale:
        return f"recovery error {error!r} (matching attains {attained!r}) != minimum {best!r}"
    return None


def check_ascent(log_liks) -> Optional[str]:
    """EM with exact M-steps never lowers the likelihood beyond rounding."""
    lls = np.asarray(log_liks, dtype=float)
    drops = lls[:-1] - lls[1:]
    allowed = ASCENT_RTOL * np.abs(lls[:-1])
    bad = np.nonzero(drops > allowed)[0]
    if bad.size:
        t = int(bad[0])
        return f"log-likelihood fell from {lls[t]!r} to {lls[t + 1]!r} at iteration {t + 1}"
    return None


def lad_objective(beta, x, y, w) -> float:
    return float(np.sum(w * np.abs(y - x @ beta)))


def independent_lad(x, y, w) -> np.ndarray:
    """An optimal weighted-LAD coefficient vector, found without mlrfit.

    d = 1: the weighted median of y_i / x_i under weights w_i |x_i|.
    d >= 2: the primal epigraph LP  min w.h  s.t.  h >= +-(y - X b),
    solved by interior point with crossover (the program solves the dual
    by simplex).
    """
    n, d = x.shape
    if d == 1:
        keep = (x[:, 0] != 0.0) & (w > 0.0)
        ratios = y[keep] / x[keep, 0]
        mass = w[keep] * np.abs(x[keep, 0])
        order = np.argsort(ratios)
        cumulative = np.cumsum(mass[order])
        return np.array([ratios[order][np.searchsorted(cumulative, 0.5 * cumulative[-1])]])
    eye = scipy.sparse.identity(n, format="csr")
    a_ub = scipy.sparse.vstack(
        [scipy.sparse.hstack([-x, -eye]), scipy.sparse.hstack([x, -eye])], format="csr"
    )
    res = scipy.optimize.linprog(
        np.concatenate([np.zeros(d), w]),
        A_ub=a_ub,
        b_ub=np.concatenate([-y, y]),
        bounds=[(None, None)] * d + [(0.0, None)] * n,
        method="highs-ipm",
    )
    if res.status != 0:
        raise RuntimeError(f"independent LAD solve failed: {res.message}")
    return res.x[:d]


def check_lad_optimal(x, y, w, beta) -> Optional[str]:
    """The returned coefficients are no worse than an independent optimum."""
    got = lad_objective(beta, x, y, w)
    best = lad_objective(independent_lad(x, y, w), x, y, w)
    if got > best + LAD_RTOL * max(best, np.finfo(float).tiny):
        return f"LAD objective {got!r} above independent optimum {best!r}"
    return None


def check_roundtrip(source, parsed) -> Optional[str]:
    """Parsing a written dataset gives back the generated arrays exactly."""
    pairs = (
        ("x", source.x, parsed.x),
        ("y", source.y, parsed.y),
        ("labels", source.labels, parsed.labels),
        ("true beta", source.true_params.beta, parsed.true_params.beta),
    )
    for name, a, b in pairs:
        if not np.array_equal(a, b):
            return f"dataset {name} changed in the write/read round trip"
    return None


def labelled_oracle_error(x, y, labels, truth, kind: str) -> float:
    """Mean per-component error when each component is refit on its true samples.

    OLS under Gaussian noise, LAD (the ML estimate) under Laplacian noise.
    """
    k = truth.shape[1]
    total = 0.0
    for j in range(k):
        rows = labels == j
        xj, yj = x[rows], y[rows]
        if kind == "gaussian":
            fit = np.linalg.lstsq(xj, yj, rcond=None)[0]
        else:
            fit = independent_lad(xj, yj, np.ones(yj.shape[0]))
        total += float(np.linalg.norm(fit - truth[:, j]))
    return total / k
