"""Weighted least-absolute-deviations solvers.

Routes with different exactness/speed trade-offs:

* ``weighted_median`` / ``solve_1d``: exact for one-dimensional problems.
* ``irls``: iteratively reweighted least squares on the smoothed
  objective sum_i w_i sqrt(r_i^2 + delta^2); production route for d >= 2.
* ``dual_lp``: exact solve of the bounded dual LP (HiGHS dual simplex)
  on a working set of the samples nearest the fit; fast enough to run
  once per component per iteration at benchmark scale. At d = 1 it is
  the weighted median of ``solve_1d``.

``dual_lp`` follows Portnoy & Koenker (1997, "The Gaussian hare and the
Laplacian tortoise"): an LAD fit interpolates d samples and leaves every
other one strictly above or below it, so the dual values of the samples
far from a preliminary fit are known in advance. It ranks the samples by
their distance from the weighted least-squares fit, solves the LP on the
ceil(WORKING_SET_SCALE * sqrt(N)) nearest with the rest fixed at the
sign of their residual, and accepts the result only if every fixed
sample keeps that sign, the full LP's KKT conditions; otherwise the set
grows and the LP is solved again. The cold dual simplex needs only a
handful of iterations on this LP, but each one passes over every bounded
column (Huangfu & Hall 2018), so its cost grows with the columns it is
given: at N = 2000, d = 2 the working set cuts a call from about 2.9 to
1.0 ms with the same optimum.

Each working-set LP goes straight to scipy's bundled HiGHS bindings
(``scipy.optimize._highspy._core``, scipy >= 1.15) instead of going
through ``scipy.optimize.linprog``. The solver, its options and the LP
are the same, and the results bit-identical; what goes is linprog's
Python wrapper, which validated the options and built bound marginals in a
loop over all columns on every call and cost about twice the solve
itself. The route is picked once, at import: on an older scipy, where
that private module does not exist, ``dual_lp`` is ``_dual_lp_linprog``,
the same working-set loop with each LP solved by ``linprog``.

Every weighted least-squares system of EM goes through one kernel,
``_weighted_lstsq``: the Gaussian M-step solves all K components in one
call, each IRLS pass solves its single component in one, and ``dual_lp``
takes its starting fit from it. The kernel
works on the d x N layout, X^T as a contiguous array, so weighting the
covariates is d passes over contiguous rows of length N per component
instead of N short rows of length d. The K Gram matrices and right-hand
sides come from two stacked matmuls, one stacked Cholesky factorization
checks them, and one stacked solve returns the d x K coefficients.
"""

import math

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import IterationLimit, NonFiniteInput, SingularGram, SolverStall

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
# dual_lp's first working set: the ceil(WORKING_SET_SCALE * sqrt(N)) samples
# nearest the least-squares fit. On the LPs of EM fits at d = 2, 4 cost less
# per call than 1, 2 or 8 at N = 2000, and within 10 % of 8, the cheapest, at
# N = 20000: a smaller set needs more re-solves, a larger one costs more each.
WORKING_SET_SCALE = 4.0


def ridge_gram(gram: np.ndarray) -> np.ndarray:
    """Gram matrix plus the stabilizing ridge RIDGE_SCALE * trace / d.

    ``gram`` is one d x d matrix or a (..., d, d) stack; each matrix gets
    its own ridge.
    """
    return _ridge_gram(gram)


def _ridge_gram(gram: np.ndarray) -> np.ndarray:
    # ``ridge_gram``, under a private name for the kernels: like
    # ``_weighted_lstsq``, it then adds no tracer span to every IRLS pass.
    d = gram.shape[-1]
    ridge = RIDGE_SCALE * np.trace(gram, axis1=-2, axis2=-1) / d
    return gram + ridge[..., None, None] * np.eye(d)


def _ridge_cholesky(gram: np.ndarray):
    """Cholesky factor of ``ridge_gram(gram)``; SingularGram if it has none."""
    try:
        return scipy.linalg.cho_factor(_ridge_gram(gram))
    except scipy.linalg.LinAlgError as exc:
        raise SingularGram(f"Gram matrix not positive definite: {exc}") from exc


def _weighted_lstsq(xt: np.ndarray, x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted least squares for every row of the K x N weights ``w``.

    Column k of the d x K result solves the ridge-stabilized normal
    equations ridge_gram(X^T W_k X) b = X^T W_k y, with W_k = diag(w[k]).
    ``xt`` is x.T as a contiguous d x N array, so the weighting is K x d
    passes over contiguous rows and both products are single stacked
    matmuls. One stacked Cholesky factorization checks that every Gram
    matrix is positive definite and raises SingularGram if any is not; a
    stacked solve then gives all K columns. A Gram matrix or right-hand
    side that overflowed gives a non-finite solution, which raises
    NonFiniteInput rather than reach the caller.
    """
    # Private, so perfbench's tracer adds no span to every IRLS pass.
    xw = w[:, None, :] * xt
    gram = _ridge_gram(xw @ x)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"Gram matrix not positive definite: {exc}") from exc
    beta = np.linalg.solve(gram, (xw @ y)[..., None])[..., 0].T
    # np.linalg.cholesky passes NaN and inf through instead of raising
    if not np.isfinite(beta).all():
        raise NonFiniteInput("weighted least-squares solution overflowed")
    return beta


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

    Every pass, the first included, solves its weighted least-squares
    system through ``_weighted_lstsq`` on one contiguous copy of x.T,
    which the residuals reuse.

    Returns (coefficients, iterations_used).
    """
    xt = np.ascontiguousarray(x.T)

    def smoothed_residuals(beta):
        r = y - beta @ xt
        return np.sqrt(r * r + delta * delta)

    def reweighted_solve(q):
        return _weighted_lstsq(xt, x, y, q[None])[:, 0]

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


def _exact_lad(x: np.ndarray, y: np.ndarray, weights: np.ndarray, solve_dual):
    """Exact weighted LAD: the working-set loop that both LP backends share.

    ``solve_dual(x_s, y_s, w_s, rhs)`` solves the bounded dual restricted
    to the samples S, max y_S.s subject to X_S^T s = rhs and
    -w_S <= s <= w_S, and returns minus its equality multipliers, or None
    if that LP is infeasible. See ``dual_lp`` for the loop itself.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n, d = x.shape
    if d == 1:
        beta = np.array([solve_1d(x[:, 0], y, weights)])
        return beta, float(np.sum(weights * np.abs(y - x @ beta)))
    in_set = np.ones(n, dtype=bool)
    fixed = np.zeros(n)  # the dual value s_i of each sample outside S
    size = math.ceil(WORKING_SET_SCALE * math.sqrt(n))
    if size < n:
        try:
            start = _weighted_lstsq(np.ascontiguousarray(x.T), x, y, weights[None])[:, 0]
        except (SingularGram, NonFiniteInput):
            pass  # no start to rank the samples by: the LP on all of them
        else:
            r = y - x @ start
            distance = np.abs(r)
            fixed = np.where(r >= 0.0, weights, -weights)
            in_set = np.zeros(n, dtype=bool)
            in_set[np.argpartition(distance, size - 1)[:size]] = True
    while True:
        out = ~in_set
        beta = solve_dual(x[in_set], y[in_set], weights[in_set], -fixed[out] @ x[out])
        if beta is None:
            if not out.any():  # s = 0 is feasible, so this is the solver's fault
                raise SolverStall("HiGHS found the LAD dual LP infeasible")
            # the fixed samples ask for more than S can balance: double S along |r|
            order = np.argsort(distance, kind="stable")
            in_set[order[out[order]][: np.count_nonzero(in_set)]] = True
            continue
        residual = y - x @ beta
        violated = out & (fixed * residual < 0.0)
        if not violated.any():
            return beta, float(np.sum(weights * np.abs(residual)))
        in_set |= violated


def dual_lp(x: np.ndarray, y: np.ndarray, weights: np.ndarray):
    """Exact weighted LAD through the bounded dual LP, solved on a working set.

    The dual of min_b sum w_i |y_i - <b, x_i>| is max y.s subject to
    X^T s = 0 and -w <= s <= w, whose equality multipliers are -b. At an
    optimum s_i = w_i sign(r_i) for every sample off the fit, so only the
    samples near the fit are in question. Following Portnoy & Koenker
    (1997, "The Gaussian hare and the Laplacian tortoise"):

    1. Start from the weighted least-squares fit and put the
       ceil(WORKING_SET_SCALE * sqrt(N)) samples with the smallest |r_i|
       into the working set S.
    2. Fix every other sample at s_i = w_i sigma_i, sigma_i = sign(r_i)
       (+1 at r_i = 0), which moves -sum w_i sigma_i x_i to the equality
       right-hand side, and solve the dual on S alone.
    3. The result b minimizes sum_S w_i |r_i| + sum_{not S} w_i sigma_i r_i,
       a lower bound of the full objective, so b is optimal for the full
       problem when every fixed sample of positive weight keeps its sign,
       sigma_i r_i(b) >= 0: these are the full LP's KKT conditions.
       Fixed samples that change sign join S and the LP is solved again;
       if the LP on S is infeasible, S doubles along |r|. S only grows,
       so the loop ends, at worst with the LP on all N samples.

    When the start cannot be formed (``_weighted_lstsq`` raises) or S
    would hold every sample, the LP is solved on all N at once. Nothing
    is kept between calls, so a call's result depends only on its inputs.
    For d = 1 the one-row dual is a fractional knapsack whose optimum is
    the weighted median of ``solve_1d``, which is returned without an LP.

    Each LP goes to a fresh HiGHS instance, so every solve starts cold,
    with the options of
    ``linprog(method="highs-ds", options={"presolve": False})``: presolve
    off, dual simplex, no output. It is passed as plain arrays, which
    HiGHS copies in bulk, with X_S^T column-wise straight from the rows of
    x, exact zeros included where linprog drops them; the route-parity
    tests show the results are bit-identical either way. On scipy < 1.15
    this name is bound to ``_dual_lp_linprog`` instead (see the module
    docstring).

    Returns (coefficients, objective over all N at those coefficients).
    Raises IterationLimit or SolverStall when HiGHS stops short of optimal.
    """
    return _exact_lad(x, y, weights, _highs_dual)


def _highs_dual(x: np.ndarray, y: np.ndarray, weights: np.ndarray, rhs: np.ndarray):
    """The working-set LP of ``_exact_lad`` on a direct HiGHS model."""
    n, d = x.shape
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
            rhs,
            rhs,
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
    if status == _highs.HighsModelStatus.kInfeasible:
        return None
    if status == _highs.HighsModelStatus.kIterationLimit:
        raise IterationLimit("LP iteration limit reached")
    if status != _highs.HighsModelStatus.kOptimal:
        raise SolverStall(f"LP solve failed: {solver.modelStatusToString(status)}")
    return -np.array(solver.getSolution().row_dual)


def _dual_lp_linprog(x: np.ndarray, y: np.ndarray, weights: np.ndarray):
    """``dual_lp`` through ``scipy.optimize.linprog``: the route on scipy < 1.15.

    Same working-set loop, LPs, options and return value as ``dual_lp``;
    the tests use it as the reference the direct route must match bit for
    bit.
    """
    return _exact_lad(x, y, weights, _linprog_dual)


def _linprog_dual(x: np.ndarray, y: np.ndarray, weights: np.ndarray, rhs: np.ndarray):
    """The working-set LP of ``_exact_lad`` through ``scipy.optimize.linprog``."""
    res = scipy.optimize.linprog(
        -y,
        A_eq=x.T,
        b_eq=rhs,
        bounds=np.column_stack([-weights, weights]),
        method="highs-ds",
        options={"presolve": False},
    )
    if res.status == 2:
        return None
    if res.status == 1:
        raise IterationLimit("LP iteration limit reached")
    if res.status != 0:
        raise SolverStall(f"LP solve failed: {res.message}")
    return -np.asarray(res.eqlin.marginals, dtype=float)


if _highs is None:
    dual_lp = _dual_lp_linprog  # noqa: F811
else:
    # Built once; each LP copies it into its own fresh solver.
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
