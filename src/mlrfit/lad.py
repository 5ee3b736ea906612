"""Weighted least-absolute-deviations solvers.

Routes with different exactness/speed trade-offs:

* ``weighted_median`` / ``solve_1d``: exact for one-dimensional problems.
* ``irls``: iteratively reweighted least squares on the smoothed
  objective sum_i w_i sqrt(r_i^2 + delta^2); production route for d >= 2.
* ``dual_lp``: exact LP solve through the bounded dual (HiGHS dual
  simplex); fast enough to run once per component per iteration at
  benchmark scale.

``dual_lp`` hands its LP straight to scipy's bundled HiGHS bindings
(``scipy.optimize._highspy._core``, scipy >= 1.15) instead of going
through ``scipy.optimize.linprog``. The solver, its options and the LP
are the same, and the results bit-identical; what goes is linprog's
Python wrapper, which validated the options and built bound marginals in a
loop over all N columns on every call and cost about twice the solve
itself. The route is picked once, at import: on an older scipy, where
that private module does not exist, ``dual_lp`` is the ``linprog`` call
``_dual_lp_linprog``.
"""

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import IterationLimit, SingularGram, SolverStall

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError:  # scipy < 1.15 reaches HiGHS only through linprog
    _highs = None

RIDGE_SCALE = 1e-10
# EM hands IRLS nearly degenerate subproblems (responsibilities collapse to
# machine-zero on many rows) whose linear convergence rate can approach 1;
# measured tails run to a few thousand reweighting passes before the
# per-step decrease flattens below the tolerance.
IRLS_MAX_ITERATIONS = 20000
IRLS_TOLERANCE = 1e-10


def ridge_gram(gram: np.ndarray) -> np.ndarray:
    """Gram matrix plus the stabilizing ridge RIDGE_SCALE * trace / d."""
    d = gram.shape[0]
    return gram + (RIDGE_SCALE * np.trace(gram) / d) * np.eye(d)


def _ridge_cholesky(gram: np.ndarray):
    """Cholesky factor of ``ridge_gram(gram)``; SingularGram if it has none."""
    # Private, so perfbench's tracer adds no span to every IRLS pass.
    try:
        return scipy.linalg.cho_factor(ridge_gram(gram))
    except scipy.linalg.LinAlgError as exc:
        raise SingularGram(f"Gram matrix not positive definite: {exc}") from exc


def solve_spd(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the ridge-stabilized system via Cholesky."""
    return scipy.linalg.cho_solve(_ridge_cholesky(gram), rhs)


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """Lower weighted median: smallest v with cumulative weight >= half.

    Ties on the half-mass boundary resolve to the lower candidate, which
    keeps the result deterministic.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("weighted median needs positive total weight")
    order = np.argsort(values, kind="stable")
    cumulative = np.cumsum(weights[order])
    idx = int(np.searchsorted(cumulative, 0.5 * total))
    return float(values[order][idx])


def solve_1d(x: np.ndarray, y: np.ndarray, weights: np.ndarray) -> float:
    """Exact weighted LAD for a single coefficient.

    min_b sum w_i |y_i - b x_i| equals the weighted median of the ratios
    y_i / x_i under weights w_i |x_i|; samples with x_i = 0 contribute a
    constant and drop out.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    keep = (x != 0.0) & (np.asarray(weights, dtype=float) > 0.0)
    if not keep.any():
        return 0.0
    return weighted_median(y[keep] / x[keep], weights[keep] * np.abs(x[keep]))


def irls(x: np.ndarray, y: np.ndarray, weights: np.ndarray, delta: float):
    """Minimize sum_i w_i sqrt((y_i - <b, x_i>)^2 + delta^2) by IRLS.

    Starts from the weighted least-squares solution and stops once the
    relative objective decrease falls below IRLS_TOLERANCE. Raises
    SolverStall if IRLS_MAX_ITERATIONS passes run out while still making
    larger steps.

    Returns (coefficients, iterations_used).
    """

    def smoothed_residuals(beta):
        r = y - x @ beta
        return np.sqrt(r * r + delta * delta)

    def reweighted_solve(q):
        xq = x * q[:, None]
        return solve_spd(xq.T @ x, xq.T @ y)

    beta = reweighted_solve(weights)
    s = smoothed_residuals(beta)
    prev = float(np.sum(weights * s))
    for iteration in range(1, IRLS_MAX_ITERATIONS + 1):
        beta = reweighted_solve(weights / s)
        s = smoothed_residuals(beta)
        current = float(np.sum(weights * s))
        if prev - current < IRLS_TOLERANCE * max(prev, np.finfo(float).tiny):
            return beta, iteration
        prev = current
    raise SolverStall(
        f"IRLS still decreasing after {IRLS_MAX_ITERATIONS} iterations "
        f"(last objective {prev:.6g})"
    )


def dual_lp(x: np.ndarray, y: np.ndarray, weights: np.ndarray):
    """Exact weighted LAD through the bounded dual linear program.

    The dual of min_b sum w_i h_i, h_i >= +-(y_i - <b, x_i>) is
    max y.s subject to X^T s = 0 and -w <= s <= w, whose equality
    multipliers are -b. Only d equality rows, so the simplex basis stays
    tiny no matter how large N gets.

    The LP goes to a fresh HiGHS instance per call, so every solve starts
    cold, with the options of
    ``linprog(method="highs-ds", options={"presolve": False})``: presolve
    off, dual simplex, no output. It is passed as plain arrays, which
    HiGHS copies in bulk; filling a ``HighsLp`` field by field converts
    every element in Python instead. X^T goes in column-wise straight from
    the rows of x, exact zeros included where linprog drops them; the
    route-parity tests show the results are bit-identical either way.
    Without linprog's wrapper a call at N = 2000, d = 2 costs about 30 % as
    much. On scipy < 1.15 this name is bound to ``_dual_lp_linprog``
    instead (see the module docstring).

    Returns (coefficients, objective at those coefficients).
    Raises IterationLimit or SolverStall when HiGHS stops short of optimal.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n, d = x.shape
    zeros = np.zeros(d)
    solver = _highs._Highs()
    if (
        solver.passOptions(_HIGHS_OPTIONS) == _highs.HighsStatus.kError
        or solver.passModel(
            n,
            d,
            n * d,
            _highs.MatrixFormat.kColwise,
            _highs.ObjSense.kMinimize,
            0.0,
            -y,
            -weights,
            weights,
            zeros,
            zeros,
            # Column i of X^T is row i of X: d entries each, read straight from x.
            np.arange(0, n * d, d, dtype=np.int32),
            np.tile(np.arange(d, dtype=np.int32), n),
            x.ravel(),
            np.zeros(n, dtype=np.int32),  # every column continuous
        )
        == _highs.HighsStatus.kError
    ):
        raise SolverStall("HiGHS rejected the LAD dual LP")
    solver.run()
    status = solver.getModelStatus()
    if status == _highs.HighsModelStatus.kIterationLimit:
        raise IterationLimit("LP iteration limit reached")
    if status != _highs.HighsModelStatus.kOptimal:
        raise SolverStall(f"LP solve failed: {solver.modelStatusToString(status)}")
    beta = -np.array(solver.getSolution().row_dual)
    objective = float(np.sum(weights * np.abs(y - x @ beta)))
    return beta, objective


def _dual_lp_linprog(x: np.ndarray, y: np.ndarray, weights: np.ndarray):
    """``dual_lp`` through ``scipy.optimize.linprog``: the route on scipy < 1.15.

    Same LP, options and return value as ``dual_lp``; the tests use it as
    the reference the direct route must match bit for bit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    weights = np.asarray(weights, dtype=float)
    d = x.shape[1]
    res = scipy.optimize.linprog(
        -y,
        A_eq=x.T,
        b_eq=np.zeros(d),
        bounds=np.column_stack([-weights, weights]),
        method="highs-ds",
        options={"presolve": False},
    )
    if res.status == 1:
        raise IterationLimit("LP iteration limit reached")
    if res.status != 0:
        raise SolverStall(f"LP solve failed: {res.message}")
    beta = -np.asarray(res.eqlin.marginals, dtype=float)
    objective = float(np.sum(weights * np.abs(y - x @ beta)))
    return beta, objective


if _highs is None:
    dual_lp = _dual_lp_linprog  # noqa: F811
else:
    # Built once; each dual_lp call copies it into its own fresh solver.
    _HIGHS_OPTIONS = _highs.HighsOptions()
    # Presolve costs ~10x the actual solve on this problem shape.
    _HIGHS_OPTIONS.presolve = "off"
    _HIGHS_OPTIONS.solver = "simplex"
    _HIGHS_OPTIONS.simplex_strategy = (
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    )
    _HIGHS_OPTIONS.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    _HIGHS_OPTIONS.output_flag = False
    _HIGHS_OPTIONS.log_to_console = False
