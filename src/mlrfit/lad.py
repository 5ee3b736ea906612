"""Weighted least-absolute-deviations solvers.

Routes with different exactness/speed trade-offs:

* ``weighted_median`` / ``solve_1d``: exact for one-dimensional problems.
* ``irls``: iteratively reweighted least squares on the smoothed
  objective sum_i w_i sqrt(r_i^2 + delta^2), a bound optimization whose
  steps are adaptively over-relaxed (Salakhutdinov & Roweis 2003); the
  ``auto`` route of EM at d >= 2 above ``em.DEFAULT_LP_CAP`` samples. On
  the IRLS calls of EM fits at N = 20000, d = 2 it takes about 22
  reweighting passes a call where the plain loop took 78, and stops on
  the plain loop's own test.
* ``dual_lp``: exact solve of the bounded dual LP on a working set of
  the samples nearest the fit, each working-set LP by exact vertex
  pivots; fast enough to run once per component per iteration at
  benchmark scale, and the ``auto`` route up to ``em.DEFAULT_LP_CAP``
  samples. At d = 1 it is the weighted median of ``solve_1d``.

``dual_lp`` follows Portnoy & Koenker (1997, "The Gaussian hare and the
Laplacian tortoise"): an LAD fit interpolates d samples and leaves every
other one strictly above or below it, so the dual values of the samples
far from a preliminary fit are known in advance. It ranks the samples by
their distance from the weighted least-squares fit, solves the LP on the
ceil(WORKING_SET_SCALE * sqrt(N)) nearest with the rest fixed at the
sign of their residual, and accepts the result only if every fixed
sample keeps that sign, the full LP's KKT conditions; otherwise the set
grows and the LP is solved again. Small LPs are what make it pay: at
N = 2000, d = 2 HiGHS took about 3.0 ms on the LP over all N samples and
0.85 ms for a whole call on the working set.

Each working-set LP goes to ``_working_set_lp``, which solves its primal
by exact vertex descent (Barrodale & Roberts 1973): from the fit through
the d samples nearest the start, a few pivots, each with one d x d
inverse, O(|S| d) passes and one weighted median as in ``solve_1d``,
until the restricted KKT conditions certify the vertex. At N = 2000,
d = 2 an LP averages 3.6 pivots, about 160 us against about 210 us for
HiGHS's cold dual simplex, whose fixed cost (making the model, running,
reading the solution) dominates at this size; at N = 20000, about 280 us
against 1.9 ms. Where the descent cannot certify its answer (a
degenerate vertex, an ill-conditioned basis, too few weighted samples,
VERTEX_CAP vertices) the LP goes unchanged to the backend
``_solve_dual``, HiGHS's dual simplex, so every coefficient vector
returned is either KKT-certified or the backend's. HiGHS's tolerances
are absolute, so a y or w whose largest entry is far from unit scale
(beyond 2^+-LP_EXPONENT_BAND) is multiplied by a power of two before the
LPs, and the coefficients and objective are divided back, exactly.

The backend goes straight to scipy's bundled HiGHS bindings
(``scipy.optimize._highspy._core``, scipy >= 1.15) instead of going
through ``scipy.optimize.linprog``. The solver, its options and the LP
are the same, and the results bit-identical; what goes is linprog's
Python wrapper, which validated the options and built bound marginals in a
loop over all columns on every call and cost about twice the solve
itself. Each thread keeps one HiGHS instance, made with the options on
its first LP and cleared of its model before every LP: each solve still
starts cold, but the 0.1 to 0.2 ms that making an instance costs is
paid once per thread instead of once per LP. The backend is picked once
per process, at the first ``dual_lp`` call at d >= 2 and not at import,
so importing this module loads numpy alone: ``_lp_backend`` imports
scipy's LP solver and binds ``_solve_dual`` to ``_highs_dual``, or to
``_linprog_dual`` on an older scipy, where that private module does not
exist. ``em.fit_em`` calls it before its clock starts, so no fit's wall
time pays for that import.

Every weighted least-squares system of EM goes through one kernel body,
``_solve_weighted``: ``_weighted_lstsq`` hands it freshly weighted
covariates, the Gaussian M-step solving all K components in one call and
``dual_lp`` taking its starting fit from it, while ``irls`` hands it the
buffer of weighted covariates that its passes overwrite, one per call.
The K Gram matrices and right-hand sides come from two stacked matmuls
under one error state, which turns an overflow in either into
NonFiniteInput, and one stacked LU solve, the only factorization of each
Gram matrix, returns the d x K coefficients or finds a singular matrix
(SingularGram).

Every routine here reads X through ``x.T``, the d x N layout, which is
contiguous for the column-major x that ``model.Dataset`` stores, and none
copies a Dataset's X. Weighting the covariates is d passes over
contiguous rows of length N per component instead of N short rows of
length d, and
``dual_lp`` gathers each working set's X_S^T, a C-contiguous d x |S|
array, straight from ``x.T``; HiGHS takes it row by row, one row of the
LP per covariate. A row-major x gives the same coefficients, only more
slowly. ``irls`` alone copies a row-major x, to the column-major layout
once per call: its over-relaxed passes amplify rounding, so there the
two layouts compute alike, bit for bit.
"""

import math
import threading

import numpy as np

from .errors import InsufficientData, IterationLimit, NonFiniteInput, SingularGram, SolverStall
from .model import fitted_values

RIDGE_SCALE = 1e-10
# EM hands IRLS nearly degenerate subproblems (responsibilities collapse to
# machine-zero on many rows) whose linear convergence rate can approach 1;
# measured tails run to a few thousand reweighting passes before the
# per-step decrease flattens below the tolerance.
IRLS_MAX_ITERATIONS = 20000
IRLS_TOLERANCE = 1e-10
# irls over-relaxes its steps by eta, which grows by IRLS_RELAX_GROWTH per
# kept step up to IRLS_RELAX_CAP. On the 320 d = 2 IRLS calls of EM fits at
# N = 20000 (two seeds), cap 4 took 22 passes a call on average against 79
# plain, 27 at cap 3 and 19 at cap 5; but cap 5 moved the fits' final
# log-likelihoods up to 4.8e-6 from the plain loop's, against 6.6e-7 at
# cap 4. Growth 1.25 and 2 took 23 and 21 passes at cap 4.
IRLS_RELAX_GROWTH = 1.5
IRLS_RELAX_CAP = 4.0
# dual_lp's first working set: the ceil(WORKING_SET_SCALE * sqrt(N)) samples
# nearest the least-squares fit. On the LPs of EM fits at d = 2, 4 cost less
# per call than 1, 2 or 8 at N = 2000, and within 10 % of 8, the cheapest, at
# N = 20000: a smaller set needs more re-solves, a larger one costs more each.
WORKING_SET_SCALE = 4.0
# HiGHS's tolerances are absolute, so dual_lp solves in units where max|y| and
# max w lie within 2^+-LP_EXPONENT_BAND. Scaling y or w by 2^m from unit scale
# left the optimum exact for m in [-8, 24] and [-16, 60] on LPs at N = 200 and
# 2000, d = 2; beyond them the optimum is missed by up to 7x or HiGHS fails.
# Inside the band the factor is 1, so in-band calls solve the LPs as given.
LP_EXPONENT_BAND = 8
# dual_lp's vertex descent (_working_set_lp) hands a working-set LP to the
# backend once it has visited VERTEX_CAP vertices without a certificate (the
# LPs of EM-LP fits at d = 2 took 4.6 on average and at most 8 at N = 2000,
# 5.2 and 13 at N = 20000), or at a basis whose 1-norm condition number may
# exceed CONDITION_CAP.
VERTEX_CAP = 64
CONDITION_CAP = 1e8
# A non-basic residual within ZERO_RESIDUAL * (max|y_S| + |b|.max|x_S|) of 0
# counts as zero: the vertex is degenerate, and the LP goes to the backend.
# Duplicated rows, of integer or of continuous data, were caught at 2^-52
# as at 2^-48, while 2^-48 took fits with residuals about 1e-11 of |y| for
# degenerate and sent their LPs to HiGHS, which missed the optimum.
ZERO_RESIDUAL = 2.0**-52


def ridge_gram(gram: np.ndarray) -> np.ndarray:
    """Gram matrix plus the stabilizing ridge RIDGE_SCALE * trace / d.

    ``gram`` is one d x d matrix or a (..., d, d) stack; each matrix gets
    its own ridge. Whether a ridged Gram matrix is singular is left to the
    one LU factorization that follows, ``np.linalg.solve`` in
    ``_solve_weighted`` and ``np.linalg.inv`` in ``admm.gram_projection``:
    the ridge is far above the rounding of a finite positive semi-definite
    matrix, so the ridged matrix is numerically positive definite exactly
    when its trace is positive, and a zero trace means a zero matrix, which
    LU rejects.
    """
    d = gram.shape[-1]
    ridge = RIDGE_SCALE * np.trace(gram, axis1=-2, axis2=-1) / d
    return gram + ridge[..., None, None] * np.eye(d)


# ``ridge_gram`` under a private name for the kernels: like ``_solve_weighted``,
# it then adds no tracer span to every IRLS pass.
_ridge_gram = ridge_gram


# An overflow raises FloatingPointError at once, so the finite path pays for
# no finiteness check, only for the error state, which the decorator sets
# at less cost than a ``with np.errstate`` block.
@np.errstate(over="raise", invalid="raise")
def _solve_weighted(xw: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The d x K solution of ridge_gram(xw_k @ x) b = xw_k @ y for each row k.

    ``xw`` is the K x d x N stack of weighted covariates, w_k * x.T. The
    body of both ``_weighted_lstsq`` and ``irls``: the K Gram matrices and
    right-hand sides are formed under one error state, so an overflow in
    either raises NonFiniteInput without a RuntimeWarning, and one stacked
    LU solve gives all K columns, raising SingularGram where a Gram matrix
    is singular (see ``ridge_gram``). A solution that overflowed raises
    NonFiniteInput rather than reach the caller.
    """
    # Private, so perfbench's tracer adds no span to every IRLS pass.
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
    """Minimize sum_i w_i sqrt((y_i - <b, x_i>)^2 + delta^2) by over-relaxed IRLS.

    Starts from the weighted least-squares solution. Each pass makes one
    plain IRLS step t = T(b), the minimizer of the quadratic bound that
    touches the objective at b, so in exact arithmetic t cannot raise the
    objective, and then tries b + eta (t - b) (Salakhutdinov & Roweis
    2003, "Adaptive Overrelaxed Bound Optimization Methods"):

    * eta = 1, as on the first pass, takes t itself.
    * Above 1, the extrapolated point is kept if it lowers the objective
      by at least eta * IRLS_TOLERANCE relative, and eta grows by
      IRLS_RELAX_GROWTH up to IRLS_RELAX_CAP. Otherwise the pass falls
      back to t, at the cost of one more objective pass and no solve, and
      the next pass takes a plain step.

    Only a plain step ends the loop, with the stop test of plain IRLS: it
    returns t once t lowers the objective by less than IRLS_TOLERANCE
    relative. Raises SolverStall if IRLS_MAX_ITERATIONS solves run out
    while still making larger steps, and NonFiniteInput, with no
    RuntimeWarning, if a residual squares past the largest float or the
    objective overflows.

    Every pass, the first included, solves its weighted least-squares
    system through ``_solve_weighted``, the body of ``_weighted_lstsq``.
    The passes compute in a workspace allocated once per call: the
    smoothed residuals, a scratch vector (the reweighting w / s, then the
    objective's terms w s) and the 1 x d x N weighted covariates, so a
    pass allocates only its d x d system and d-vectors. The weighting and
    the residuals read x.T in place, a contiguous array for a
    ``model.Dataset``'s x; a row-major x is copied to that layout first,
    once per call. An over-relaxed pass can amplify a rounding difference,
    so a result that depended on the layout of x could differ in far
    digits between layouts; on one layout the arithmetic is the same.

    Returns (coefficients, solves_used).
    """
    # no copy for the column-major x of a Dataset
    xt = np.ascontiguousarray(x.T)
    x = xt.T
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
            eta = 1.0
            for iteration in range(1, IRLS_MAX_ITERATIONS + 1):
                np.multiply(np.divide(weights, s, out=scratch), xt, out=xw[0])
                step = _solve_weighted(xw, x, y)[:, 0]
                floor = IRLS_TOLERANCE * max(prev, np.finfo(float).tiny)
                if eta > 1.0:
                    trial = beta + eta * (step - beta)
                    current = objective(trial)
                    if prev - current >= eta * floor:
                        beta, prev = trial, current
                        eta = min(eta * IRLS_RELAX_GROWTH, IRLS_RELAX_CAP)
                        continue
                current = objective(step)
                if prev - current < floor:
                    return step, iteration
                beta, prev = step, current
                # a fallback resets eta to 1; a plain step starts it growing
                eta = 1.0 if eta > 1.0 else IRLS_RELAX_GROWTH
    except FloatingPointError as exc:
        raise NonFiniteInput(f"IRLS pass overflowed: {exc}") from None
    raise SolverStall(
        f"IRLS still decreasing after {IRLS_MAX_ITERATIONS} iterations "
        f"(last objective {prev:.6g})"
    )


@np.errstate(over="ignore")  # a coefficient or objective past the largest float is inf
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

    The set-up is one pass: S starts as the min(ceil(WORKING_SET_SCALE *
    sqrt(N)), N) samples nearest the start, so at N <= 17 it holds every
    sample; when the start cannot be formed (``_weighted_lstsq`` raises),
    the start is b = 0 and S holds every sample, the LP on all N at once.
    Nothing is kept between calls, so a call's result depends only on its
    inputs. For d = 1 the one-row dual is a fractional knapsack whose
    optimum is the weighted median of ``solve_1d``, which is returned
    without an LP.

    HiGHS's tolerances are absolute, so a y or w far from unit scale would
    miss the optimum or fail the solve. Where the binary exponent of max|y|
    or of max w lies beyond +-LP_EXPONENT_BAND, that vector is multiplied
    by the power of two that brings its maximum into [0.5, 1) before the
    start, the LPs and the KKT check; the coefficients are divided by y's
    factor after, and the objective by both. Powers of two scale exactly,
    so y * 2^m and w * 2^k out of the band give the same LPs for every m
    and k, and inside it the factor is 1: the LPs are those given.

    Each working-set LP goes to ``_working_set_lp``, which answers it by
    exact vertex pivots from the fit through the d samples of S nearest
    the least-squares start, and hands it to the backend ``_solve_dual``
    unchanged where they cannot certify an answer (see there). X_S^T is
    gathered from ``x.T`` in place, which the start's residuals and the
    KKT check read too, so no call copies x.

    The backend hands each LP to the calling thread's HiGHS instance,
    cleared of the previous LP's model, basis and solution first, so every
    solve starts cold, with the options of
    ``linprog(method="highs-ds", options={"presolve": False})``: presolve
    off, dual simplex, no output. It is passed as plain arrays, which
    HiGHS copies in bulk, with X_S^T row-wise, one row per covariate,
    exact zeros included where linprog drops them; the route-parity tests
    show the results are bit-identical either way. On scipy < 1.15 each
    LP goes through ``linprog`` instead (``_solve_dual``, see the module
    docstring). A working-set LP that the backend ends without a verdict
    (HiGHS model status Unknown, ``linprog`` status 4) grows S as an
    infeasible one does.

    Returns (coefficients, objective over all N at those coefficients),
    an objective past the largest float being inf. Raises InsufficientData
    at N = 0, IterationLimit when HiGHS reaches its iteration limit, and
    SolverStall when it finds no optimum of the LP on all N samples.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n, d = x.shape
    if n == 0:
        raise InsufficientData("weighted LAD needs at least one sample")
    if d == 1:
        beta = np.array([solve_1d(x[:, 0], y, weights)])
        return beta, float(np.sum(weights * np.abs(y - fitted_values(beta[:, None], x.T)[0])))
    xt = x.T
    _lp_backend()  # bound for _working_set_lp's hand-offs
    y_scale, w_scale = _band_scale(np.abs(y).max()), _band_scale(weights.max())
    # in the band the factor is 1, and the LPs take y and w as given
    if y_scale != 1.0:
        y = y * y_scale
    if w_scale != 1.0:
        weights = weights * w_scale
    size = min(math.ceil(WORKING_SET_SCALE * math.sqrt(n)), n)
    try:
        start = _weighted_lstsq(x, y, weights[None])[:, 0]
    except (SingularGram, NonFiniteInput):
        start, size = np.zeros(d), n  # no start to rank the samples by: the LP on all of them
    r = y - start @ xt
    distance = np.abs(r)
    fixed = np.where(r >= 0.0, weights, -weights)  # the dual value s_i of each sample outside S
    in_set = np.zeros(n, dtype=bool)  # the mask of S
    in_set[np.argpartition(distance, size - 1)[:size]] = True
    order = None  # the samples by |r|, sorted at the first growth that needs them
    while True:
        inside, outside = np.flatnonzero(in_set), np.flatnonzero(~in_set)
        # np.take gathers several times faster than xt[:, index], same values
        fixed_out = fixed[outside]
        rhs = -fixed_out @ np.take(xt, outside, axis=1).T
        beta = _working_set_lp(np.take(xt, inside, axis=1), y[inside], weights[inside], rhs, start)
        if beta is None:
            if outside.size == 0:  # s = 0 is feasible, so this is the solver's fault
                raise SolverStall("HiGHS found no optimum of the LAD dual LP on all samples")
            # the fixed samples ask for more than S can balance, or HiGHS could
            # not tell whether they do: double S along |r|
            if order is None:
                order = np.argsort(distance, kind="stable")
            in_set[order[~in_set[order]][: inside.size]] = True
        else:
            residual = y - beta @ xt
            violated = outside[fixed_out * residual[outside] < 0.0]
            if violated.size == 0:
                objective = float(np.sum(weights * np.abs(residual)))
                return beta / y_scale, objective / y_scale / w_scale
            in_set[violated] = True


def _working_set_lp(
    xt: np.ndarray, y: np.ndarray, w: np.ndarray, rhs: np.ndarray, start: np.ndarray
):
    """One working-set LP of ``dual_lp``: its coefficients, or None if it is infeasible.

    The LP is ``_solve_dual``'s, max y.s subject to xt s = rhs and
    -w <= s <= w, and the coefficients are minus its equality multipliers:
    the b that minimizes the primal sum_i w_i |y_i - x_i.b| + rhs.b. This
    solves that primal by exact vertex descent (Barrodale & Roberts 1973).
    A vertex is the fit b through d samples of positive weight, the basis
    B; the descent starts at the basis of the d positive-weight samples
    with the smallest |y_i - x_i.start|.

    * Certificate: the basic dual values solve X_B^T s_B = rhs -
      sum_{i not in B} w_i sign(r_i) x_i, and |s_B| <= w_B is the LP's
      KKT conditions: b is optimal.
    * Pivot: otherwise the most violated basic sample j leaves along the
      edge delta = -sign(s_j) X_B^-1 e_j, where the objective falls at rate
      |s_j| - w_j. The exact line search is ``solve_1d``'s weighted
      median: it stops at the first breakpoint r_i / (x_i.delta) > 0 where
      the running sum of w_i |x_i.delta| reaches (|s_j| - w_j) / 2, and
      that sample enters B.
    * Unbounded: if no breakpoint reaches that sum, the objective falls
      without bound along the edge, so the LP is infeasible: None, which
      ``dual_lp`` answers as it answers the backend's None. At rhs = 0,
      as on the LP over all samples, no edge is unbounded: the sum over
      the breakpoints ahead exceeds (|s_j| - w_j) / 2 by half of
      sum_i w_i |x_i.delta|, a sum of at least w_j.

    The LP goes to ``_solve_dual`` unchanged where the descent cannot
    certify its answer: fewer than d + 1 samples of positive weight, a
    singular basis or one whose condition estimate exceeds CONDITION_CAP,
    a degenerate vertex (more than d residuals zero to ZERO_RESIDUAL), or
    VERTEX_CAP vertices. So the result is either certified or the
    backend's.
    """
    d = xt.shape[0]
    positive = w > 0.0
    if positive.all():
        xp, yp, wp = xt, y, w
    else:  # a zero-weight sample adds nothing to the primal
        xp, yp, wp = xt[:, positive], y[positive], w[positive]
    if yp.size > d:
        # per LP: the scale of the residuals' terms, and each sample's |x_i|_1
        # for the condition estimate
        scaled = np.abs(xp)
        y_top, x_top, norms = np.abs(yp).max(), scaled.max(axis=1), scaled.sum(axis=0)
        basis = np.argpartition(np.abs(yp - start @ xp), d - 1)[:d]
        for _ in range(VERTEX_CAP):
            try:
                inv = np.linalg.inv(xp[:, basis])  # X_B^-T
            except np.linalg.LinAlgError:
                break
            # d times the inverse's largest entry bounds its 1-norm
            if not d * np.abs(inv).max() * norms[basis].max() <= CONDITION_CAP:
                break
            b = yp[basis] @ inv
            r = yp - b @ xp
            r[basis] = 0.0
            if np.count_nonzero(np.abs(r) <= ZERO_RESIDUAL * (y_top + np.abs(b) @ x_top)) > d:
                break
            signed = np.copysign(wp, r)
            signed[basis] = 0.0
            s = inv @ (rhs - xp @ signed)
            excess = np.abs(s) - wp[basis]
            j = excess.argmax()
            if excess[j] <= 0.0:
                return b
            xd = (inv[j] if s[j] < 0.0 else -inv[j]) @ xp  # x_i.delta
            ahead = np.flatnonzero(r * xd > 0.0)
            xd = xd[ahead]
            order = np.argsort(r[ahead] / xd)
            reach = np.cumsum((wp[ahead] * np.abs(xd))[order])
            k = reach.searchsorted(0.5 * excess[j])
            if k == reach.size:
                return None
            basis[j] = ahead[order[k]]
    return _solve_dual(xt, y, w, rhs)


def _band_scale(top: float) -> float:
    """``dual_lp``'s factor for a vector whose largest entry is ``top``: a power of two.

    1.0 where the binary exponent of ``top`` lies within +-LP_EXPONENT_BAND;
    otherwise the power of two that puts ``top`` in [0.5, 1). A product with
    it is exact short of the subnormal range, so ``dual_lp`` divides it back
    out exactly.
    """
    exponent = math.frexp(top)[1]
    # 2^1023 is the largest power of two a float holds
    return 1.0 if abs(exponent) <= LP_EXPONENT_BAND else 2.0 ** -max(exponent, -1023)


# The backend of dual_lp: _solve_dual(xt_s, y_s, w_s, rhs) takes X_S^T, the
# d x |S| array, solves the bounded dual restricted to the samples S,
# max y_S.s subject to X_S^T s = rhs and -w_S <= s <= w_S, and returns minus
# its equality multipliers, or None if HiGHS finds that LP infeasible or ends
# it without a verdict. _working_set_lp hands it the LPs its vertex descent
# cannot certify. None until dual_lp's first call binds it (_lp_backend).
_solve_dual = None
_highs = None  # scipy.optimize._highspy._core, where _lp_backend found it
_BACKEND_LOCK = threading.Lock()
_THREAD_STATE = threading.local()  # .solver: the thread's _Highs, once made


def _lp_backend():
    """``_solve_dual``, bound first if this process has run no LP yet.

    Binding imports scipy's LP solver, about a quarter of a second in a
    fresh interpreter, so it waits until an LP is needed, and ``em.fit_em``
    calls this before its clock starts. Under the lock, the first LPs of
    several threads bind once: one thread imports and binds, the others
    wait for it and get its backend. ``_highs`` is set before
    ``_solve_dual``, so a thread that finds the backend bound finds the
    module too.
    """
    global _solve_dual, _highs
    if _solve_dual is None:
        with _BACKEND_LOCK:
            if _solve_dual is None:
                try:
                    from scipy.optimize._highspy import _core as highs
                except ImportError:
                    # scipy < 1.15 reaches HiGHS only through linprog, whose
                    # module the failed import has loaded as its parent
                    _solve_dual = _linprog_dual
                else:
                    _highs = highs
                    _solve_dual = _highs_dual
    return _solve_dual


def _thread_solver():
    """The calling thread's HiGHS instance, made with the options on its first LP.

    A ``_Highs`` object is not safe to share between threads, and making a
    fresh one per LP costs more than a small solve, so each thread keeps one.
    """
    try:
        return _THREAD_STATE.solver
    except AttributeError:
        options = _highs.HighsOptions()
        # Presolve costs ~10x the actual solve on this problem shape.
        options.presolve = "off"
        options.solver = "simplex"
        options.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
        options.output_flag = False
        options.log_to_console = False
        solver = _highs._Highs()
        if solver.passOptions(options) == _highs.HighsStatus.kError:
            raise SolverStall("HiGHS rejected the LAD dual LP options") from None
        _THREAD_STATE.solver = solver
        return solver


def _highs_dual(x: np.ndarray, y: np.ndarray, weights: np.ndarray, rhs: np.ndarray):
    """A working-set LP of ``dual_lp`` on this thread's HiGHS instance."""
    d, n = x.shape
    solver = _thread_solver()
    # no model, basis or solution survives from the thread's previous LP
    solver.clearModel()
    if (
        solver.passModel(
            n,
            d,
            n * d,
            _highs.MatrixFormat.kRowwise,
            _highs.ObjSense.kMinimize,
            0.0,
            -y,
            -weights,
            weights,
            rhs,
            rhs,
            # Row j of the LP is covariate j over S: n entries each, read from x.
            np.arange(0, n * d, n, dtype=np.int32),
            np.tile(np.arange(n, dtype=np.int32), d),
            x.ravel(),
            np.zeros(n, dtype=np.int32),  # every column continuous
        )
        == _highs.HighsStatus.kError
    ):
        raise SolverStall("HiGHS rejected the LAD dual LP")
    solver.run()
    status = solver.getModelStatus()
    if status in (_highs.HighsModelStatus.kInfeasible, _highs.HighsModelStatus.kUnknown):
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
    from scipy.optimize import linprog  # loaded by _lp_backend, or at the first call

    res = linprog(
        -y,
        A_eq=x,
        b_eq=rhs,
        bounds=np.column_stack([-weights, weights]),
        method="highs-ds",
        options={"presolve": False},
    )
    if res.status in (2, 4):  # infeasible, or ended without a verdict
        return None
    if res.status == 1:
        raise IterationLimit("LP iteration limit reached")
    if res.status != 0:
        raise SolverStall(f"LP solve failed: {res.message}")
    return -np.asarray(res.eqlin.marginals, dtype=float)
