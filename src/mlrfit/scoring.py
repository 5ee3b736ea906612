"""Model scoring: mixture log-likelihood, recovery error, paired t-test."""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.optimize
import scipy.special

from . import noise
from .errors import DimensionMismatch, InsufficientData, ZeroVariance
from .model import Dataset, MlrParams, NoiseModel, validate_problem


def log_likelihood(params: MlrParams, data: Dataset, nm: NoiseModel) -> float:
    """Uniform-mixture log-likelihood sum_i log(sum_k f(y_i - <x_i, b_k>) / K).

    Computed through log-sum-exp so far-off components cannot underflow
    a sample's whole mixture: each sample's largest log-density is taken
    out before exponentiating. The K x N log-densities make that a pass
    over K contiguous rows. As in ``scipy.special.logsumexp``, a sample
    with no mass in any component (every log-density -inf) scores -inf,
    without a warning.
    """
    validate_problem(params, data)
    logd = noise.log_density(nm, data.y - params.beta.T @ data.x.T)
    peak = logd.max(axis=0)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        per_sample = np.log(np.exp(logd - peak).sum(axis=0)) + peak
    return float(per_sample.sum()) + data.n_samples * math.log(1.0 / params.k_components)


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
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
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
    critical = float(scipy.special.stdtrit(n - 1, 0.95)) if n <= 200 else 1.645
    return TTestResult(t, t > critical, critical, n)
