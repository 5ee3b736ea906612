"""Benchmark expectation-maximization solver for mixed linear regression.

Each iteration recomputes posterior component memberships from the
current fitted values X b (E-step) and then refits every component by a
weighted regression (M-step): weighted least squares under Gaussian
noise, weighted least absolute deviations under Laplacian noise. The
steps work on plain component-major arrays: the fitted values and the
memberships are K x N, one contiguous row per component, and each column
of the memberships is a probability vector. Every reduction over
components is then an elementwise pass over K rows of length N. ``fit_em``
hands the iteration to the loop in ``mlrfit.fit``, which both solvers
share.
"""

import numpy as np

from . import fit, lad, noise
from .errors import CollapsedComponent, DegenerateRow, SingularGram
from .fit import LAD_PATH_NA, FitTrace
from .model import LAD_PATH_AUTO, LAD_PATH_IRLS, LAD_PATH_LP
from .model import Dataset, MlrParams, NoiseKind, NoiseModel, SolverConfig, check_lad_route

# lad_path 'auto' runs the exact LP up to this many samples and IRLS beyond.
DEFAULT_LP_CAP = 5000

IRLS_DELTA_SCALE = 1e-6


def e_step(fits: np.ndarray, y: np.ndarray, nm: NoiseModel) -> np.ndarray:
    """Posterior membership of every sample, from the K x N fitted values.

    Softmax of log f(y_i - fits[k, i]) over k, with each sample's maximum
    subtracted first so one huge residual cannot underflow all of its
    memberships. Returns K x N memberships.
    """
    logd = noise.log_density(nm, y - fits)
    peak = logd.max(axis=0)
    if not np.isfinite(peak).all():
        i = int(np.flatnonzero(~np.isfinite(peak))[0])
        raise DegenerateRow(f"sample {i} has no probability mass in any component")
    w = np.exp(logd - peak)
    w /= w.sum(axis=0)
    return w


def refit_components(
    solve, w: np.ndarray, dim: int, previous: MlrParams | None
) -> MlrParams:
    """Column k is ``solve(w[k])``, unless component k has collapsed.

    Collapse policy, shared by both M-steps: a component that ``solve``
    rejects for having no responsibility mass (CollapsedComponent) or
    whose ridge-stabilized Gram matrix cannot be factorized (SingularGram)
    keeps its ``previous`` coefficients. Such a component adds nothing to
    the expected complete-data log-likelihood, so keeping its coefficients
    preserves EM's ascent. Without ``previous`` the error propagates.
    """
    beta = np.empty((dim, w.shape[0]))
    for k in range(w.shape[0]):
        try:
            beta[:, k] = solve(w[k])
        except (CollapsedComponent, SingularGram):
            if previous is None:
                raise
            beta[:, k] = previous.beta[:, k]
    return MlrParams(beta)


def m_step_gaussian(
    w: np.ndarray, data: Dataset, previous: MlrParams | None = None
) -> MlrParams:
    """Per-component weighted least squares, solved in closed form.

    ``w`` holds K x N memberships. Column k solves
    (sum_i w_ki x_i x_i^T) b = sum_i w_ki y_i x_i with the
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
    w: np.ndarray,
    data: Dataset,
    path: str = LAD_PATH_IRLS,
    previous: MlrParams | None = None,
) -> MlrParams:
    """Per-component weighted least absolute deviations, from K x N memberships.

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
        raise ValueError(f"m_step_laplacian runs route 'lp' or 'irls', got {path!r}")

    def solve(weights):
        # with no mass every LAD coefficient is optimal; none is a fit
        if weights.sum() <= 0.0:
            raise CollapsedComponent("component has no responsibility mass")
        return route(weights)

    return refit_components(solve, w, data.dim, previous)


def resolve_lad_path(path: str, nm: NoiseModel, n_samples: int) -> str:
    """Concrete LAD route for a fit: 'lp', 'irls', or 'n/a' for Gaussian."""
    check_lad_route(path)
    if nm.kind is NoiseKind.GAUSSIAN:
        return LAD_PATH_NA
    if path == LAD_PATH_AUTO:
        return LAD_PATH_LP if n_samples <= DEFAULT_LP_CAP else LAD_PATH_IRLS
    return path


def fit_em(
    data: Dataset, k: int, nm: NoiseModel, cfg: SolverConfig, lad_path: str = LAD_PATH_IRLS
) -> FitTrace:
    """Run the fixed EM iteration budget and record the likelihood path.

    The first E-step overwrites any notion of initial memberships, so
    only the coefficient initialization (shared with the ADMM solver
    through the config) matters.
    """
    path = resolve_lad_path(lad_path, nm, data.n_samples)
    xt, y = data.x.T, data.y

    def steps(params):
        while True:
            w = e_step(params.beta.T @ xt, y, nm)
            if nm.kind is NoiseKind.GAUSSIAN:
                params = m_step_gaussian(w, data, previous=params)
            else:
                params = m_step_laplacian(w, data, path=path, previous=params)
            yield params, None

    return fit.run(steps, data, k, nm, cfg, lad_path=path)
