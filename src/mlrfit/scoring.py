"""Model scoring: memberships, mixture log-likelihood, recovery error, paired t-test.

Both solvers' posterior memberships come from here: from ``e_step`` at
the start, and from the pass of ``log_likelihood`` that scores an iterate
on the fitted values X b its solver formed, so no iteration forms X b
twice. Both work on the log-kernels ``noise.log_kernel_in_place`` writes
over the residuals they allocate: a kernel is never positive, so its exp
cannot overflow, and the density's constant is added once per call, not
once per entry. Only a sample whose whole mass falls below ``MASS_FLOOR``
is scored again with its largest kernel taken out first.
``recovery_error`` and ``paired_t_test`` import their scipy routines at
their first call, not at import, so scoring a fit needs numpy alone.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import noise
from .errors import DegenerateRow, DimensionMismatch, InsufficientData, ZeroVariance
from .model import Dataset, MlrParams, NoiseModel, fitted_values, validate_problem

# The smallest per-sample mass sum_k exp(kernel_k) scored without a peak
# shift: 2^-969, the smallest normal double over the unit roundoff 2^-53.
# Above it every membership of at least 2^-53 is the quotient of a normal
# exp, as accurate as numpy's exp, and a subnormal exp, off by at most
# 2^-1075, moves its membership by at most 2^-106. Below it the sample is
# scored again as in a log-sum-exp.
MASS_FLOOR = np.finfo(float).tiny / np.finfo(float).epsneg


def log_likelihood(
    params: MlrParams | None,
    data: Dataset,
    nm: NoiseModel,
    *,
    fits: np.ndarray | None = None,
    memberships: np.ndarray | None = None,
) -> float:
    """Uniform-mixture log-likelihood sum_i log(sum_k f(y_i - <x_i, b_k>) / K).

    With log f = kernel + c, the value is sum_i log(sum_k exp(kernel_ik))
    plus N (c - log K), so the constant costs one product per call. Each
    sample's kernels are exponentiated as they are, which cannot overflow;
    a sample whose mass falls below ``MASS_FLOOR`` (every component far
    off) is scored again with its largest kernel taken out first, as in a
    log-sum-exp, so far-off components cannot underflow its mixture. The
    K x N kernels make that a pass over K contiguous rows, written over
    the residuals y - X b. As in ``scipy.special.logsumexp``, a sample
    with no mass in any component (every kernel -inf) scores -inf,
    without a warning.

    ``fits``, the K x N fitted values (X b)^T of ``params``, are read
    instead of formed again; the fit loop passes those its solver formed
    for its own step, with ``params`` None. A ``fits`` array of another
    shape than K x N raises DimensionMismatch.

    ``memberships``, a K x N array, receives the posterior memberships at
    the fitted values from the same pass, bit for bit those ``e_step``
    returns for them; the returned value does not change. The residuals
    and their kernels are computed in it too, so the pass allocates no
    K x N array of its own.
    With it a sample with no mass raises DegenerateRow, as in ``e_step``.
    """
    if fits is None:
        validate_problem(params, data)
        fits = fitted_values(params.beta, data.x.T)
    else:
        rows = fits.shape[:1] if params is None else (params.k_components,)
        if fits.shape != (*rows, data.n_samples):
            raise DimensionMismatch(f"fits must be K x N, got {fits.shape}")
    if memberships is not None and memberships.shape != fits.shape:
        raise DimensionMismatch(f"memberships must be {fits.shape}, got {memberships.shape}")
    # A residual past the largest float overflows to a kernel of -inf, the
    # kernel's value to working precision; a total of 0 logs to -inf, and
    # so does a sum of finite log-likelihoods past the largest float.
    with np.errstate(over="ignore", divide="ignore"):
        kernel = noise.log_kernel_in_place(nm, np.subtract(data.y, fits, out=memberships))
        total, low, peak = _softmax(kernel, fits, data.y, nm, memberships is not None)
        logs = np.log(total, out=total)
        if low is not None:
            logs[low] += peak
        ll = float(logs.sum())
    return ll + data.n_samples * (noise.log_constant(nm) - math.log(kernel.shape[0]))


def e_step(fits: np.ndarray, y: np.ndarray, nm: NoiseModel) -> np.ndarray:
    """Posterior membership of every sample, from the K x N fitted values.

    Softmax of the log-kernels of y_i - fits[k, i] over k, in which the
    density's constant cancels; a sample whose mass falls below
    ``MASS_FLOOR`` has its maximum subtracted first, so one huge residual
    cannot underflow all of its memberships. Returns K x N memberships; a
    sample with no mass in any component, a residual that overflows in
    every one included, raises DegenerateRow.
    """
    with np.errstate(over="ignore"):  # as in log_likelihood: -inf past the largest float
        w = noise.log_kernel_in_place(nm, y - fits)
        _softmax(w, fits, y, nm, True)
    return w


def _softmax(kernel: np.ndarray, fits: np.ndarray, y: np.ndarray, nm: NoiseModel,
             normalize: bool):
    """Column softmax of the K x N log-kernels, computed over them.

    Exponentiates the kernels, sums each sample's mass and, if
    ``normalize``, divides by it. A sample whose total is below
    ``MASS_FLOOR``, or NaN, is done again from its residuals y - fits with
    its largest kernel (its peak) taken out before exponentiating, so far
    from every component its mass does not underflow. Returns the
    per-sample totals, whose log is log sum_k exp(kernel_k), except at the
    indices ``low``, where the peaks ``peak`` must be added to it (both
    None when no sample fell below the floor). A redone sample with no
    mass in any component has a non-finite peak: with ``normalize`` that
    raises DegenerateRow naming the first such sample; without, its peak
    is taken as 0 and its total stays 0, without a warning. The E-step and
    the likelihood both go through here, so their memberships agree bit
    for bit.
    """
    mass = np.exp(kernel, out=kernel)
    total = mass.sum(axis=0)
    low = peak = None
    if not total.min() >= MASS_FLOOR:  # NaN compares false: redone too
        low = np.flatnonzero(~(total >= MASS_FLOOR))
        shifted = noise.log_kernel_in_place(nm, np.subtract(y[low], fits[:, low]))
        peak = shifted.max(axis=0)
        degenerate = ~np.isfinite(peak)
        if degenerate.any():
            if normalize:
                i = int(low[np.flatnonzero(degenerate)[0]])
                raise DegenerateRow(f"sample {i} has no probability mass in any component")
            peak[degenerate] = 0.0
        shifted -= peak
        np.exp(shifted, out=shifted)
        mass[:, low] = shifted
        total[low] = shifted.sum(axis=0)
    if normalize:
        mass /= total
    return total, low, peak


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
