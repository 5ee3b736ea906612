"""Model scoring: memberships, mixture log-likelihood, recovery error, paired t-test.

Both solvers' posterior memberships come from here: from ``e_step`` at
the start, and from the pass of ``log_likelihood`` that scores an iterate
on the fitted values X b its solver formed, so no iteration forms X b
twice. Both write the log-densities over the residuals they allocate.
``recovery_error`` and ``paired_t_test`` import their scipy routines at
their first call, not at import, so scoring a fit needs numpy alone.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import noise
from .errors import DegenerateRow, DimensionMismatch, InsufficientData, ZeroVariance
from .model import Dataset, MlrParams, NoiseModel, validate_problem


def log_likelihood(
    params: MlrParams | None,
    data: Dataset,
    nm: NoiseModel,
    *,
    fits: np.ndarray | None = None,
    memberships: np.ndarray | None = None,
) -> float:
    """Uniform-mixture log-likelihood sum_i log(sum_k f(y_i - <x_i, b_k>) / K).

    Computed through log-sum-exp so far-off components cannot underflow
    a sample's whole mixture: each sample's largest log-density is taken
    out before exponentiating. The K x N log-densities make that a pass
    over K contiguous rows, written over the residuals y - X b. As in
    ``scipy.special.logsumexp``, a sample with no mass in any component
    (every log-density -inf) scores -inf, without a warning.

    ``fits``, the K x N fitted values (X b)^T of ``params``, are read
    instead of formed again; the fit loop passes those its solver formed
    for its own step, with ``params`` None. A ``fits`` array of another
    shape than K x N raises DimensionMismatch.

    ``memberships``, a K x N array, receives the posterior memberships at
    the fitted values from the same pass, bit for bit those ``e_step``
    returns for them; the returned value does not change. The residuals
    and their log-densities are computed in it too, so the pass allocates
    no K x N array of its own.
    With it a sample with no mass raises DegenerateRow, as in ``e_step``.
    """
    if fits is None:
        validate_problem(params, data)
        fits = params.beta.T @ data.x.T
    else:
        rows = fits.shape[:1] if params is None else (params.k_components,)
        if fits.shape != (*rows, data.n_samples):
            raise DimensionMismatch(f"fits must be K x N, got {fits.shape}")
    if memberships is not None and memberships.shape != fits.shape:
        raise DimensionMismatch(f"memberships must be {fits.shape}, got {memberships.shape}")
    # A residual past the largest float overflows to a log-density of -inf,
    # the density's value to working precision; a total of 0 logs to -inf.
    with np.errstate(over="ignore", divide="ignore"):
        logd = noise.log_density_in_place(nm, np.subtract(data.y, fits, out=memberships))
        peak, total = _softmax(logd, memberships)
        per_sample = np.log(total) + peak
    return float(per_sample.sum()) + data.n_samples * math.log(1.0 / logd.shape[0])


def e_step(fits: np.ndarray, y: np.ndarray, nm: NoiseModel) -> np.ndarray:
    """Posterior membership of every sample, from the K x N fitted values.

    Softmax of log f(y_i - fits[k, i]) over k, with each sample's maximum
    subtracted first so one huge residual cannot underflow all of its
    memberships. Returns K x N memberships; a sample with no mass in any
    component, a residual that overflows in every one included, raises
    DegenerateRow.
    """
    with np.errstate(over="ignore"):  # as in log_likelihood: -inf past the largest float
        logd = noise.log_density_in_place(nm, y - fits)
    w = np.empty_like(logd)
    _softmax(logd, w)
    return w


def _softmax(logd: np.ndarray, out: np.ndarray | None):
    """Column softmax of the K x N log-densities, computed in ``out`` if given.

    Each sample's largest log-density (its peak) is taken out before
    exponentiating, so one huge residual cannot underflow all of its
    mass. Returns the peaks and the per-sample totals of the shifted
    mass, whose log plus the peak is log sum_k f_k. A sample with no mass
    in any component has a non-finite peak: with ``out`` that raises
    DegenerateRow naming the first such sample; without, its peak is
    taken as 0 and its total stays 0, without a warning. The E-step and
    the likelihood both go through here, so their memberships agree bit
    for bit.
    """
    peak = logd.max(axis=0)
    degenerate = ~np.isfinite(peak)
    if degenerate.any():
        if out is not None:
            i = int(np.flatnonzero(degenerate)[0])
            raise DegenerateRow(f"sample {i} has no probability mass in any component")
        peak[degenerate] = 0.0
    mass = np.subtract(logd, peak, out=out)
    np.exp(mass, out=mass)
    total = mass.sum(axis=0)
    if out is not None:
        mass /= total
    return peak, total


@dataclass(frozen=True)
class RecoveryReport:
    """Best component matching between an estimate and the truth.

    ``assignment[k]`` is the estimated column matched to true column k
    (0-based); ``error`` is the sum over true components of the Euclidean
    distance to their matched estimates, minimal over all matchings.
    """

    error: float
    assignment: tuple

    def __post_init__(self):
        if sorted(self.assignment) != list(range(len(self.assignment))):
            raise ValueError("assignment must be a permutation")
        if self.error < 0.0:
            raise ValueError("error must be non-negative")


def recovery_error(estimated: MlrParams, truth: MlrParams) -> RecoveryReport:
    """Minimum total parameter distance over component matchings.

    Solves the K x K assignment problem on pairwise column distances
    exactly (Jonker-Volgenant via scipy, the O(K^3) Hungarian-style
    route), so K = 14 stays instant where brute force would not.
    """
    if estimated.dim != truth.dim or estimated.k_components != truth.k_components:
        raise DimensionMismatch("estimated and true parameters differ in shape")
    diff = truth.beta.T[:, None, :] - estimated.beta.T[None, :, :]
    cost = np.sqrt((diff * diff).sum(axis=2))  # cost[true k, estimated j]
    from scipy.optimize import linear_sum_assignment  # scipy loads here, not at import

    rows, cols = linear_sum_assignment(cost)
    return RecoveryReport(
        error=float(cost[rows, cols].sum()), assignment=tuple(int(j) for j in cols)
    )


class TTestResult(NamedTuple):
    t_statistic: float
    significant: bool
    critical_value: float
    n: int


def paired_t_test(diffs) -> TTestResult:
    """One-sided paired t-test of mean(diffs) > 0 at the 0.05 level.

    t = mean / (sample std / sqrt(n)) against the Student critical value
    with n - 1 degrees of freedom; beyond n = 200 the asymptotic normal
    value 1.645 is used.
    """
    diffs = np.asarray(diffs, dtype=float).reshape(-1)
    n = diffs.size
    if n < 2:
        raise InsufficientData("paired t-test needs at least two differences")
    std = float(diffs.std(ddof=1))
    if std == 0.0:
        raise ZeroVariance("paired t-test undefined for constant differences")
    t = float(diffs.mean() / (std / np.sqrt(n)))
    from scipy.special import stdtrit  # scipy loads at the first test, not at import

    critical = float(stdtrit(n - 1, 0.95)) if n <= 200 else 1.645
    return TTestResult(t, t > critical, critical, n)
