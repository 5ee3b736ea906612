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
share: each M-step's coefficients go to it with their fitted values, in
one ``fit.Iterate``, and it computes every E-step through ``scoring``,
whose ``e_step`` is bound here as EM's.
"""

import time

import numpy as np

from . import fit, lad
from .errors import CollapsedComponent, NonFiniteInput, SingularGram
from .fit import LAD_PATH_NA, FitTrace
from .model import LAD_PATH_AUTO, LAD_PATH_IRLS, LAD_PATH_LP
from .model import Dataset, MlrParams, NoiseKind, NoiseModel, SolverConfig, check_lad_route
from .model import fitted_values
from .scoring import e_step  # noqa: F401  EM's E-step, run by the fit loop

# lad_path 'auto' runs the exact LP up to this many samples and IRLS beyond.
DEFAULT_LP_CAP = 5000

IRLS_DELTA_SCALE = 1e-6


def refit_components(
    solve, k: int, dim: int, previous: MlrParams | None
) -> MlrParams:
    """Column j of the d x k result is ``solve(j)``, unless component j has collapsed.

    Collapse policy, shared by both M-steps: a component that ``solve``
    rejects for having no responsibility mass (CollapsedComponent) or
    whose ridge-stabilized Gram matrix cannot be factorized (SingularGram)
    keeps its ``previous`` coefficients. Such a component adds nothing to
    the expected complete-data log-likelihood, so keeping its coefficients
    preserves EM's ascent. Without ``previous`` the error propagates.
    """
    beta = np.empty((dim, k))
    for j in range(k):
        try:
            beta[:, j] = solve(j)
        except (CollapsedComponent, SingularGram):
            if previous is None:
                raise
            beta[:, j] = previous.beta[:, j]
    return MlrParams(beta)


def gaussian_moments(data: Dataset) -> np.ndarray:
    """The (d^2 + d) x N moments Q of the Gaussian M-step, formed once per fit.

    Row a d + b holds x_ia x_ib and row d^2 + a holds y_i x_ia, so for K x N
    weights w the product Q @ w.T holds every X^T W_k X, row-major in its
    first d^2 rows, and every X^T W_k y in its last d. Q is formed under one
    error state: a product past the largest float, or a row whose sum of
    absolute values is, raises NonFiniteInput whatever the weights, with no
    RuntimeWarning. That sum bounds Q @ w.T for weights in [0, 1].
    """
    xt = data.x.T
    d, n = xt.shape
    q = np.empty((d * d + d, n))
    try:
        with np.errstate(over="raise", invalid="raise"):
            np.multiply(xt[:, None, :], xt, out=q[: d * d].reshape(d, d, n))
            np.multiply(data.y, xt, out=q[d * d :])
            np.abs(q).sum(axis=1)  # raises if some row's sum overflows
    except FloatingPointError as exc:
        raise NonFiniteInput(f"Gaussian M-step moments overflowed: {exc}") from None
    return q


# The product of moments and weights runs under this error state, as the
# kernel's does: weights above 1 can overflow it where Q is finite.
@np.errstate(over="raise", invalid="raise")
def m_step_gaussian(
    w: np.ndarray,
    data: Dataset,
    previous: MlrParams | None = None,
    *,
    moments: np.ndarray | None = None,
) -> MlrParams:
    """Per-component weighted least squares, solved in closed form.

    ``w`` holds K x N memberships. Column k solves
    (sum_i w_ki x_i x_i^T) b = sum_i w_ki y_i x_i with the standard ridge
    guard. Every Gram matrix and right-hand side comes from one matmul,
    ``moments @ w.T``, with ``moments`` the fit's ``gaussian_moments(data)``,
    which ``fit_em`` forms once per fit and which is formed here when not
    given; an overflow in the product raises NonFiniteInput. One stacked
    LU solve then gives all K columns. A component with no mass has a zero
    Gram matrix, whose ridge is zero too, so it fails to factorize; only
    then are the K systems of the same product solved one at a time,
    through ``refit_components``.
    """
    q = gaussian_moments(data) if moments is None else moments
    d = data.dim
    try:
        sums = q @ w.T
        gram = lad._ridge_gram(sums[: d * d].T.reshape(-1, d, d))
    except FloatingPointError as exc:
        raise NonFiniteInput(f"weighted least-squares system overflowed: {exc}") from None
    rhs = sums[d * d :].T
    try:
        return MlrParams(lad._solve_gram(gram, rhs))
    except SingularGram:
        pass

    def solve(j):
        return lad._solve_gram(gram[j : j + 1], rhs[j : j + 1])[:, 0]

    return refit_components(solve, w.shape[0], d, previous)


def irls_delta(y: np.ndarray) -> float:
    """Smoothing width used by the IRLS route, 1e-6 * (1 + std(y)).

    Raises NonFiniteInput, with no RuntimeWarning, when the spread of the
    finite ``y`` overflows (|y_i| above about 1e154 squares past the
    largest float).
    """
    try:
        with np.errstate(over="raise"):
            spread = float(np.std(y))
    except FloatingPointError as exc:
        raise NonFiniteInput(f"the spread of y overflowed: {exc}") from None
    return IRLS_DELTA_SCALE * (1.0 + spread)


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

    def solve(j):
        # with no mass every LAD coefficient is optimal; none is a fit
        if w[j].sum() <= 0.0:
            raise CollapsedComponent("component has no responsibility mass")
        return route(w[j])

    return refit_components(solve, w.shape[0], data.dim, previous)


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

    The fit loop's start E-step overwrites any notion of initial
    memberships, so only the coefficient initialization (shared with the
    ADMM solver through the config) matters. Where the route is ``lp`` at
    d >= 2, scipy's LP module, ``lad.dual_lp``'s fallback, is loaded before
    the loop's clock starts, so the first such fit of a process does not
    time scipy's import. Under Gaussian noise the fit forms the M-step's
    moments Q (``gaussian_moments``) once, after the clock starts and
    before the start E-step, so ``wall_seconds`` counts them and data whose
    Q overflows ends the fit in NonFiniteInput before any iteration; each
    M-step is then one matmul with Q and one stacked solve.
    """
    path = resolve_lad_path(lad_path, nm, data.n_samples)
    if path == LAD_PATH_LP and data.dim > 1:  # at d = 1 dual_lp solves no LP
        import scipy.optimize  # noqa: F401
    started = time.perf_counter()  # the fit's wall time counts the moments
    xt = data.x.T
    moments = gaussian_moments(data) if nm.kind is NoiseKind.GAUSSIAN else None

    def steps(params, fits, w):
        del fits  # EM needs only the memberships, so the start's K x N fits can go
        while True:
            if moments is not None:
                params = m_step_gaussian(w, data, previous=params, moments=moments)
            else:
                params = m_step_laplacian(w, data, path=path, previous=params)
            # the fitted values, for the fit loop's likelihood and E-step
            w = yield fit.Iterate(params.beta, fitted_values(params.beta, xt))

    return fit.run(steps, data, k, nm, cfg, lad_path=path, started=started)
