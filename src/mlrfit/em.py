"""Benchmark expectation-maximization solver for mixed linear regression.

Each iteration recomputes posterior component memberships from the
current coefficients (E-step) and then refits every component by a
weighted regression (M-step): weighted least squares under Gaussian
noise, weighted least absolute deviations under Laplacian noise.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import lad, noise, scoring
from .errors import CollapsedComponent, DegenerateRow, DimensionMismatch, SingularGram
from .model import (
    Dataset,
    MixtureWeights,
    MlrParams,
    NoiseKind,
    NoiseModel,
    SolverConfig,
    initial_params,
    validate_problem,
)

LAD_PATH_IRLS = "irls"
LAD_PATH_LP = "lp"
LAD_PATH_AUTO = "auto"
LAD_PATH_NA = "n/a"
DEFAULT_LP_CAP = 5000

IRLS_DELTA_SCALE = 1e-6


@dataclass(frozen=True)
class Responsibilities:
    """Posterior component memberships, one row per sample.

    ``w[i, k]`` is the probability that sample i came from component k;
    every row is a probability vector.
    """

    w: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if w.ndim != 2:
            raise DimensionMismatch("responsibilities must be an N x K matrix")
        if not np.isfinite(w).all():
            raise ValueError("responsibilities must be finite")
        if w.min() < 0.0 or w.max() > 1.0:
            raise ValueError("responsibilities must lie in [0, 1]")
        if np.abs(w.sum(axis=1) - 1.0).max() > 1e-10:
            raise ValueError("responsibility rows must sum to 1 within 1e-10")
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def n_samples(self) -> int:
        return self.w.shape[0]

    @property
    def k_components(self) -> int:
        return self.w.shape[1]


@dataclass(frozen=True)
class EmTrace:
    """Per-iteration log-likelihoods plus the fitted coefficients."""

    log_liks: np.ndarray
    params: MlrParams
    n_iterations: int
    wall_seconds: float
    lad_path: str = LAD_PATH_NA

    def __post_init__(self):
        lls = np.array(self.log_liks, dtype=float)
        lls.flags.writeable = False
        object.__setattr__(self, "log_liks", lls)
        if self.log_liks.shape != (self.n_iterations,):
            raise DimensionMismatch("one log-likelihood per iteration run")


def posterior_weights(fits: np.ndarray, y: np.ndarray, nm: NoiseModel) -> np.ndarray:
    """Row-normalized memberships from per-component fitted values.

    Softmax of log f(y_i - fits[i, k]) over k, with the row maximum
    subtracted first so one huge residual cannot underflow a whole row.
    """
    logd = noise.log_density(nm, y[:, None] - fits)
    peak = logd.max(axis=1, keepdims=True)
    if not np.isfinite(peak).all():
        raise DegenerateRow("a sample has no probability mass in any component")
    w = np.exp(logd - peak)
    w /= w.sum(axis=1, keepdims=True)
    return w


def e_step(params: MlrParams, data: Dataset, nm: NoiseModel) -> Responsibilities:
    """Posterior membership of every sample under the current coefficients."""
    validate_problem(params, data)
    return Responsibilities(posterior_weights(data.x @ params.beta, data.y, nm))


def refit_components(
    solve, w: Responsibilities, dim: int, previous: MlrParams | None
) -> MlrParams:
    """Column k is ``solve(w.w[:, k])``, unless component k has collapsed.

    Collapse policy, shared by both M-steps: a component that ``solve``
    rejects for having no responsibility mass (CollapsedComponent) or
    whose ridge-stabilized Gram matrix cannot be factorized (SingularGram)
    keeps its ``previous`` coefficients. Such a component adds nothing to
    the expected complete-data log-likelihood, so keeping its coefficients
    preserves EM's ascent. Without ``previous`` the error propagates.
    """
    beta = np.empty((dim, w.k_components))
    for k in range(w.k_components):
        try:
            beta[:, k] = solve(w.w[:, k])
        except (CollapsedComponent, SingularGram):
            if previous is None:
                raise
            beta[:, k] = previous.beta[:, k]
    return MlrParams(beta)


def m_step_gaussian(
    w: Responsibilities, data: Dataset, previous: MlrParams | None = None
) -> MlrParams:
    """Per-component weighted least squares, solved in closed form.

    Column k solves (sum_i w_ik x_i x_i^T) b = sum_i w_ik y_i x_i with the
    standard ridge guard. A component with no mass has a zero Gram matrix,
    whose ridge is zero too, so it fails to factorize and follows
    ``refit_components``.
    """
    x, y = data.x, data.y

    def solve(weights):
        xw = x * weights[:, None]
        return lad.solve_spd(xw.T @ x, xw.T @ y)

    return refit_components(solve, w, data.dim, previous)


def irls_delta(y: np.ndarray) -> float:
    """Smoothing width used by the IRLS route, 1e-6 * (1 + std(y))."""
    return IRLS_DELTA_SCALE * (1.0 + float(np.std(y)))


def m_step_laplacian(
    w: Responsibilities,
    data: Dataset,
    path: str = LAD_PATH_IRLS,
    previous: MlrParams | None = None,
) -> MlrParams:
    """Per-component weighted least absolute deviations.

    ``path`` picks the solver: ``irls`` smooths the objective and
    reweights (exact weighted median when d = 1), ``lp`` solves the
    linear-programming reformulation exactly each call. Collapsed
    components follow ``refit_components``.
    """
    x, y = data.x, data.y
    if path == LAD_PATH_LP:

        def route(weights):
            return lad.dual_lp(x, y, weights)[0]

    elif path == LAD_PATH_IRLS and data.dim == 1:

        def route(weights):
            return lad.solve_1d(x[:, 0], y, weights)

    elif path == LAD_PATH_IRLS:
        delta = irls_delta(y)

        def route(weights):
            return lad.irls(x, y, weights, delta)[0]

    else:
        raise ValueError(f"unknown LAD path {path!r}")

    def solve(weights):
        # with no mass every LAD coefficient is optimal; none is a fit
        if weights.sum() <= 0.0:
            raise CollapsedComponent("component has no responsibility mass")
        return route(weights)

    return refit_components(solve, w, data.dim, previous)


def resolve_lad_path(path: str, nm: NoiseModel, n_samples: int, lp_cap: int) -> str:
    """Concrete LAD route for a fit: 'lp', 'irls', or 'n/a' for Gaussian."""
    if nm.kind is NoiseKind.GAUSSIAN:
        return LAD_PATH_NA
    if path == LAD_PATH_AUTO:
        return LAD_PATH_LP if n_samples <= lp_cap else LAD_PATH_IRLS
    if path not in (LAD_PATH_IRLS, LAD_PATH_LP):
        raise ValueError(f"unknown LAD path {path!r}")
    return path


def fit_em(
    data: Dataset,
    k: int,
    nm: NoiseModel,
    cfg: SolverConfig,
    lad_path: str = LAD_PATH_IRLS,
    lad_lp_cap: int = DEFAULT_LP_CAP,
) -> EmTrace:
    """Run the fixed EM iteration budget and record the likelihood path.

    The first E-step overwrites any notion of initial memberships, so
    only the coefficient initialization (shared with the ADMM solver
    through the config) matters.
    """
    params = initial_params(cfg, data.dim, int(k))
    validate_problem(params, data)
    path = resolve_lad_path(lad_path, nm, data.n_samples, lad_lp_cap)
    mixture = MixtureWeights.uniform(params.k_components)
    log_liks = np.empty(cfg.n_iterations)
    started = time.perf_counter()
    for t in range(cfg.n_iterations):
        w = e_step(params, data, nm)
        if nm.kind is NoiseKind.GAUSSIAN:
            params = m_step_gaussian(w, data, previous=params)
        else:
            params = m_step_laplacian(w, data, path=path, previous=params)
        log_liks[t] = scoring.log_likelihood(params, data, nm, mixture)
    wall = time.perf_counter() - started
    return EmTrace(
        log_liks=log_liks,
        params=params,
        n_iterations=cfg.n_iterations,
        wall_seconds=wall,
        lad_path=path,
    )
