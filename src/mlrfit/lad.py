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
given: at N = 2000, d = 2 the working set cuts a call from about 3.0 to
0.85 ms with the same optimum.

Each working-set LP goes straight to scipy's bundled HiGHS bindings
(``scipy.optimize._highspy._core``, scipy >= 1.15) instead of going
through ``scipy.optimize.linprog``. The solver, its options and the LP
are the same, and the results bit-identical; what goes is linprog's
Python wrapper, which validated the options and built bound marginals in a
loop over all columns on every call and cost about twice the solve
itself. Each thread keeps one HiGHS instance, made with the options on
its first LP and cleared of its model before every LP: each solve still
starts cold, but the 0.1 to 0.2 ms that making an instance costs is
paid once per thread instead of once per LP. The backend is picked once,
at import: ``_solve_dual``, which ``dual_lp`` hands each working-set LP,
is ``_highs_dual``, or ``_linprog_dual`` on an older scipy, where that
private module does not exist.

Every weighted least-squares system of EM goes through one kernel body,
``_solve_weighted``: ``_weighted_lstsq`` hands it freshly weighted
covariates, the Gaussian M-step solving all K components in one call and
``dual_lp`` taking its starting fit from it, while ``irls`` hands it the
buffer of weighted covariates that its passes overwrite, one per call.
The kernel reads X through ``x.T``, the
d x N layout, which is contiguous for the column-major x that
``model.Dataset`` stores, so weighting the covariates is d passes over
contiguous rows of length N per component instead of N short rows of
length d, and no routine copies X to get there. A row-major x gives the
same results, only more slowly. The K Gram matrices and right-hand
sides come from two stacked matmuls under one error state, which turns
an overflow in either into NonFiniteInput, and one stacked LU solve,
the only factorization of each Gram matrix, returns the d x K
coefficients or finds a singular matrix (SingularGram). ADMM
forms its one Gram matrix's projection in ``admm.gram_projection`` and
takes only ``gated_gram`` from here. ``dual_lp``'s working-set LPs are
the one sample-major reader: HiGHS takes X_S^T column by column, that
is, rows of X, so ``dual_lp`` gathers them from one row-major copy of x
per call.
"""

import math
import threading

import numpy as np
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
    d = gram.shape[-1]
    ridge = RIDGE_SCALE * np.trace(gram, axis1=-2, axis2=-1) / d
    return gram + ridge[..., None, None] * np.eye(d)


# An overflow raises FloatingPointError at once, so the finite path pays for
# no finiteness check, only for the error state, which the decorator sets
# at less cost than a ``with np.errstate`` block.
@np.errstate(over="raise", invalid="raise")
def gated_gram(xw: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ridge_gram(xw @ x), checked to be finite.

    ``xw`` is d x N, or a K x d x N stack that gives one Gram matrix per
    row. Raises NonFiniteInput if the product overflows, without letting
    numpy's RuntimeWarning escape; ``_solve_weighted`` forms its Gram
    matrices by the same body, under the same error state. Whether a Gram
    matrix is singular is left to the one LU factorization that follows,
    ``np.linalg.solve`` in ``_solve_weighted`` and ``np.linalg.inv`` in
    ``admm.gram_projection``, whose LinAlgError each raises as
    SingularGram: the ridge, RIDGE_SCALE
    times trace / d, is far above the rounding of a finite positive
    semi-definite matrix, so the ridged matrix is numerically positive
    definite exactly when its trace is positive, and a zero trace means a
    zero matrix, which LU rejects.
    """
    try:
        return _ridge_gram(xw @ x)
    except FloatingPointError as exc:
        raise NonFiniteInput(f"Gram matrix overflowed: {exc}") from None


# ``ridge_gram`` under a private name for the kernels: like ``_solve_weighted``,
# it then adds no tracer span to every IRLS pass.
_ridge_gram = ridge_gram


@np.errstate(over="raise", invalid="raise")
def _solve_weighted(xw: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The d x K solution of ridge_gram(xw_k @ x) b = xw_k @ y for each row k.

    ``xw`` is the K x d x N stack of weighted covariates, w_k * x.T. The
    body of both ``_weighted_lstsq`` and ``irls``: the K Gram matrices and
    right-hand sides are formed under one error state, gated_gram's, so an
    overflow in either raises NonFiniteInput without a RuntimeWarning,
    and one stacked LU solve gives all K columns, raising SingularGram
    where a Gram matrix is singular. A solution that overflowed raises
    NonFiniteInput rather than reach the caller.
    """
    # Private, so perfbench's tracer adds no span to every IRLS pass; the
    # body of gated_gram inline, so a call sets the error state once.
    try:
        gram = _ridge_gram(xw @ x)
        rhs = xw @ y
    except FloatingPointError as exc:
        raise NonFiniteInput(f"weighted least-squares system overflowed: {exc}") from None
    try:
        beta = np.linalg.solve(gram, rhs[..., None])[..., 0].T
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"Gram matrix singular: {exc}") from exc
    if not np.isfinite(beta).all():
        raise NonFiniteInput("weighted least-squares solution overflowed")
    return beta


def _weighted_lstsq(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted least squares for every row of the K x N weights ``w``.

    Column k of the d x K result solves the ridge-stabilized normal
    equations ridge_gram(X^T W_k X) b = X^T W_k y, with W_k = diag(w[k]).
    The weighting reads ``x.T``, K x d passes over contiguous rows when
    x is column-major as in ``model.Dataset``, into a fresh K x d x N
    stack that ``_solve_weighted`` solves with one factorization per Gram
    matrix (NonFiniteInput, SingularGram).
    """
    return _solve_weighted(w[:, None, :] * x.T, x, y)


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """Lower weighted median: smallest v with cumulative weight >= half.

    Ties on the half-mass boundary resolve to the lower candidate, which
    keeps the result deterministic. The sort need not be stable: it
    orders distinct values one way only, and within a run of equal values
    any index returns the same value. Equal values do add their weights
    to the cumulative sum in the sort's order, so where that sum ends a
    run within rounding of half the total, rounding decides between the
    run's value and the next; with weights whose partial sums are exact,
    integers for one, the order cannot matter.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("weighted median needs positive total weight")
    order = np.argsort(values)
    cumulative = np.cumsum(weights[order])
    idx = int(np.searchsorted(cumulative, 0.5 * total))
    return float(values[order[idx]])


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
    larger steps, and NonFiniteInput, with no RuntimeWarning, if a
    residual squares past the largest float or the objective overflows.

    Every pass, the first included, solves its weighted least-squares
    system through ``_solve_weighted``, the body of ``_weighted_lstsq``.
    The passes compute in a workspace allocated once per call: the
    smoothed residuals, a scratch vector (the reweighting w / s, then the
    objective's terms w s) and the 1 x d x N weighted covariates, so a
    pass allocates only its d x d system. The weighting and the residuals
    read x.T in place, a contiguous array for a ``model.Dataset``'s x.

    Returns (coefficients, iterations_used).
    """
    xt = x.T
    s = np.empty(xt.shape[1])  # the smoothed residuals sqrt(r^2 + delta^2)
    scratch = np.empty_like(s)

    def objective(beta):
        np.matmul(beta, xt, out=s)
        np.subtract(y, s, out=s)
        np.multiply(s, s, out=s)
        np.add(s, delta * delta, out=s)
        np.sqrt(s, out=s)
        return float(np.sum(np.multiply(weights, s, out=scratch)))

    try:
        with np.errstate(over="raise"):
            # The first pass's weighted covariates, by _weighted_lstsq's own
            # product, so the buffer the later passes overwrite has its layout.
            xw = weights[None, None, :] * xt
            beta = _solve_weighted(xw, x, y)[:, 0]
            prev = objective(beta)
            for iteration in range(1, IRLS_MAX_ITERATIONS + 1):
                np.multiply(np.divide(weights, s, out=scratch), xt, out=xw[0])
                beta = _solve_weighted(xw, x, y)[:, 0]
                current = objective(beta)
                if prev - current < IRLS_TOLERANCE * max(prev, np.finfo(float).tiny):
                    return beta, iteration
                prev = current
    except FloatingPointError as exc:
        raise NonFiniteInput(f"IRLS pass overflowed: {exc}") from None
    raise SolverStall(
        f"IRLS still decreasing after {IRLS_MAX_ITERATIONS} iterations "
        f"(last objective {prev:.6g})"
    )


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

    Each LP goes to the calling thread's HiGHS instance, cleared of the
    previous LP's model, basis and solution first, so every solve starts
    cold, with the options of
    ``linprog(method="highs-ds", options={"presolve": False})``: presolve
    off, dual simplex, no output. It is passed as plain arrays, which
    HiGHS copies in bulk, with X_S^T column-wise straight from the rows of
    x, exact zeros included where linprog drops them; the route-parity
    tests show the results are bit-identical either way. Those rows come
    from one row-major copy of x per call (a ``model.Dataset`` stores x
    column-major); the least-squares start reads x as given. On scipy < 1.15 each LP goes
    through ``linprog`` instead (``_solve_dual``, see the module
    docstring).

    Returns (coefficients, objective over all N at those coefficients).
    Raises IterationLimit or SolverStall when HiGHS stops short of optimal.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n, d = x.shape
    if d == 1:
        beta = np.array([solve_1d(x[:, 0], y, weights)])
        return beta, float(np.sum(weights * np.abs(y - x @ beta)))
    # The samples as rows, for the gathers. Filled a column at a time: numpy
    # copies a narrow column-major x to row-major in short inner loops of
    # length d, about three times as slowly (N = 2000, d = 2).
    rows = np.empty((n, d))
    for j in range(d):
        rows[:, j] = x[:, j]
    inside, outside = np.arange(n), np.arange(0)  # S and its complement, ascending
    fixed = np.zeros(n)  # the dual value s_i of each sample outside S
    size = math.ceil(WORKING_SET_SCALE * math.sqrt(n))
    if size < n:
        try:
            start = _weighted_lstsq(x, y, weights[None])[:, 0]
        except (SingularGram, NonFiniteInput):
            pass  # no start to rank the samples by: the LP on all of them
        else:
            r = y - rows @ start
            distance = np.abs(r)
            fixed = np.where(r >= 0.0, weights, -weights)
            in_set = np.zeros(n, dtype=bool)
            in_set[np.argpartition(distance, size - 1)[:size]] = True
            inside, outside = np.flatnonzero(in_set), np.flatnonzero(~in_set)
    # in_set, the mask of S, exists whenever a sample is outside S
    while True:
        # np.take gathers rows several times faster than rows[index], same values
        fixed_out = fixed[outside]
        rhs = -fixed_out @ np.take(rows, outside, axis=0)
        beta = _solve_dual(np.take(rows, inside, axis=0), y[inside], weights[inside], rhs)
        if beta is None:
            if outside.size == 0:  # s = 0 is feasible, so this is the solver's fault
                raise SolverStall("HiGHS found the LAD dual LP infeasible")
            # the fixed samples ask for more than S can balance: double S along |r|
            order = np.argsort(distance, kind="stable")
            in_set[order[~in_set[order]][: inside.size]] = True
        else:
            residual = y - rows @ beta
            violated = outside[fixed_out * residual[outside] < 0.0]
            if violated.size == 0:
                return beta, float(np.sum(weights * np.abs(residual)))
            in_set[violated] = True
        inside, outside = np.flatnonzero(in_set), np.flatnonzero(~in_set)


def _thread_solver():
    """The calling thread's HiGHS instance, made with the options on its first LP.

    A ``_Highs`` object is not safe to share between threads, and making a
    fresh one per LP costs more than a small solve, so each thread keeps one.
    """
    try:
        return _THREAD_STATE.solver
    except AttributeError:
        solver = _highs._Highs()
        if solver.passOptions(_HIGHS_OPTIONS) == _highs.HighsStatus.kError:
            raise SolverStall("HiGHS rejected the LAD dual LP options") from None
        _THREAD_STATE.solver = solver
        return solver


def _highs_dual(x: np.ndarray, y: np.ndarray, weights: np.ndarray, rhs: np.ndarray):
    """A working-set LP of ``dual_lp`` on this thread's HiGHS instance."""
    n, d = x.shape
    solver = _thread_solver()
    # no model, basis or solution survives from the thread's previous LP
    solver.clearModel()
    if (
        solver.passModel(
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


def _linprog_dual(x: np.ndarray, y: np.ndarray, weights: np.ndarray, rhs: np.ndarray):
    """A working-set LP of ``dual_lp`` through ``scipy.optimize.linprog``.

    The backend on scipy < 1.15. The LP and the options are those of
    ``_highs_dual``; the tests use it as the reference that route must
    match bit for bit.
    """
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


# The backend of dual_lp: _solve_dual(x_s, y_s, w_s, rhs) solves the bounded
# dual restricted to the samples S, max y_S.s subject to X_S^T s = rhs and
# -w_S <= s <= w_S, and returns minus its equality multipliers, or None if
# that LP is infeasible.
if _highs is None:
    _solve_dual = _linprog_dual
else:
    _solve_dual = _highs_dual
    _THREAD_STATE = threading.local()  # .solver: the thread's _Highs, once made
    # Built once and passed to each thread's solver when it is made.
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
