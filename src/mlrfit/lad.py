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
against 1.9 ms. A tie rule, Charnes' (1952) perturbation of y, takes
the descent through degenerate vertices, where more than d samples lie
on the fit, as on data with repeated rows or rounded values. Where it
still cannot certify its answer (an ill-conditioned or singular basis,
too few weighted samples, VERTEX_CAP vertices) the LP goes unchanged to
``_solve_dual``, one ``scipy.optimize.linprog(method="highs-ds")`` call,
so every coefficient vector returned is either KKT-certified or HiGHS's.
On scipy 1.17 that call took 2.2 to 2.8 ms on LPs of 60 to 180 samples,
six times HiGHS's own solve, most of it linprog's wrapper. scipy's LP
module loads at the first LP handed on, or before an ``lp`` fit's clock
starts (``em.fit_em``), not at import.

Every weighted least-squares system of EM ends in one stacked LU solve,
``_solve_gram``, the only factorization of each Gram matrix, which
returns the d x K coefficients or finds a singular matrix (SingularGram).
The weighted least-squares solves here go through one kernel body,
``_solve_weighted``: ``_weighted_lstsq`` hands it freshly weighted
covariates, ``dual_lp`` taking its starting fit from it, while ``irls``
hands it the buffer of weighted covariates that its passes overwrite, one
per call. The K Gram matrices and right-hand sides come from two stacked
matmuls under one error state, which turns an overflow in either into
NonFiniteInput. The Gaussian M-step (``em.m_step_gaussian``) forms its K
systems from moments instead: one matmul of the weights with the
(d^2 + d) x N products x_ia x_ib and y_i x_ia, which ``em.fit_em`` forms
once per fit under its own overflow gate, then ``ridge_gram`` and
``_solve_gram``.

Every routine here reads X through ``x.T``, the d x N layout, which is
contiguous for the column-major x that ``model.Dataset`` stores, and none
copies a Dataset's X. Weighting the covariates is d passes over
contiguous rows of length N per component instead of N short rows of
length d, and ``dual_lp`` gathers each working set's X_S^T, a
C-contiguous d x |S| array, straight from ``x.T``, one row of the LP per
covariate. A row-major x gives the same coefficients, only more slowly.
``irls`` alone copies a row-major x, to the column-major layout
once per call: its over-relaxed passes amplify rounding, so there the
two layouts compute alike, bit for bit.
"""

import math

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
# dual_lp's vertex descent (_working_set_lp) hands a working-set LP to
# _solve_dual once it has visited VERTEX_CAP vertices without a certificate
# (the LPs of EM-LP fits at d = 2 took 4.6 on average and at most 8 at
# N = 2000, 5.2 and 13 at N = 20000), or at a basis whose 1-norm condition
# number may exceed CONDITION_CAP.
VERTEX_CAP = 64
CONDITION_CAP = 1e8
# A residual within ZERO_RESIDUAL * (max|y| + |b|.max|x|) of 0 is on the fit:
# the descent's tie rule decides its sign, and dual_lp's KKT check accepts
# either. Duplicated rows, of integer or of continuous data, were caught at
# 2^-52 as at 2^-48, while 2^-48 took fits with residuals about 1e-11 of |y|
# for ties.
ZERO_RESIDUAL = 2.0**-52


def ridge_gram(gram: np.ndarray) -> np.ndarray:
    """Gram matrix plus the stabilizing ridge RIDGE_SCALE * trace / d.

    ``gram`` is one d x d matrix or a (..., d, d) stack; each matrix gets
    its own ridge. Whether a ridged Gram matrix is singular is left to the
    one LU factorization that follows, ``np.linalg.solve`` in
    ``_solve_gram`` and ``np.linalg.inv`` in ``admm.gram_projection``:
    the ridge is far above the rounding of a finite positive semi-definite
    matrix, so the ridged matrix is numerically positive definite exactly
    when its trace is positive, and a zero trace means a zero matrix, which
    LU rejects.
    """
    d = gram.shape[-1]
    ridge = RIDGE_SCALE * np.trace(gram, axis1=-2, axis2=-1) / d
    return gram + ridge[..., None, None] * np.eye(d)


# ``ridge_gram`` under a private name for the kernels and the Gaussian M-step:
# like ``_solve_weighted``, it then adds no tracer span to every IRLS pass.
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
    either raises NonFiniteInput without a RuntimeWarning, and
    ``_solve_gram`` gives all K columns (SingularGram, NonFiniteInput).
    """
    # Private, so perfbench's tracer adds no span to every IRLS pass.
    try:
        gram = _ridge_gram(xw @ x)
        rhs = xw @ y
    except FloatingPointError as exc:
        raise NonFiniteInput(f"weighted least-squares system overflowed: {exc}") from None
    return _solve_gram(gram, rhs)


def _solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The d x K solution of gram_k b = rhs_k for K ridged d x d systems.

    One stacked LU solve, the only factorization of each Gram matrix,
    raising SingularGram where one is singular (see ``ridge_gram``); a
    solution that overflowed raises NonFiniteInput rather than reach the
    caller. The tail of ``_solve_weighted`` and of the Gaussian M-step.
    """
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
       sigma_i r_i(b) >= 0, or is on the fit, |r_i| <= ZERO_RESIDUAL *
       (max|y| + |b|.max|x|), where any s_i in [-w_i, w_i] is valid: the
       full LP's KKT conditions, to rounding. Other fixed samples join S
       and the LP is solved again; if the LP on S is infeasible, S doubles
       along |r|. S only grows, so the loop ends, at worst with the LP on
       all N samples.

    The set-up is one pass: S starts as the min(ceil(WORKING_SET_SCALE *
    sqrt(N)), N) samples nearest the start, so at N <= 17 it holds every
    sample; when the start cannot be formed (``_weighted_lstsq`` raises),
    the start is b = 0 and S holds every sample, the LP on all N at once.
    For d = 1 the one-row dual is a fractional knapsack whose optimum is
    the weighted median of ``solve_1d``, which is returned without an LP.

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
    the least-squares start, and hands it unchanged to ``_solve_dual``,
    one ``linprog`` call of six times HiGHS's own solve time on scipy
    1.17, where they cannot certify an answer (see there). X_S^T is
    gathered from ``x.T`` in place, which the start's residuals and the
    KKT check read too, so no call copies x. An LP that ``linprog`` ends
    without a verdict (status 4) grows S as an infeasible one does.

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
            if violated.size:  # those the wrong side by rounding only are on the fit
                floor = ZERO_RESIDUAL * (np.abs(y).max() + np.abs(beta) @ np.abs(xt).max(axis=1))
                violated = violated[np.abs(residual[violated]) > floor]
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
    nearest the fit through ``start``, or, if they are dependent (two
    copies of one row, say), the d nearest independent ones.

    * Certificate: the basic dual values solve X_B^T s_B = rhs -
      sum_{i not in B} w_i sign(r_i) x_i, and |s_B| <= w_B is the LP's
      KKT conditions: b is optimal.
    * Pivot: otherwise the most violated basic sample j leaves along the
      edge delta = -sign(s_j) X_B^-1 e_j, where the objective falls at rate
      |s_j| - w_j. The exact line search is ``solve_1d``'s weighted
      median: it stops at the first breakpoint r_i / (x_i.delta) > 0 where
      the running sum of w_i |x_i.delta| reaches (|s_j| - w_j) / 2, and
      that sample enters B.
    * Ties: a non-basic residual within ZERO_RESIDUAL * (max|y| +
      |b|.max|x|) of 0 is on the fit. It takes the sign it has in the LP
      with y_i + eps * pi_i for an infinitesimal eps (Charnes 1952),
      pi_i = frac((i + 1) * golden ratio) + 1/2: that of pi_i - c.x_i,
      where c fits pi through B as b fits y. These samples are the line
      search's first breakpoints, in the order of that residual over
      x_i.delta, and a pivot onto one leaves b in place. The perturbed LP
      has no degenerate vertex, so the descent cannot cycle, and its
      certificate holds for the LP, where a residual on the fit admits
      any dual value in [-w_i, w_i].
    * Unbounded: if no breakpoint reaches that sum, the objective falls
      without bound along the edge, so the LP is infeasible: None, which
      ``dual_lp`` answers as it answers the fallback's None. At rhs = 0,
      as on the LP over all samples, no edge is unbounded: the sum over
      the breakpoints ahead exceeds (|s_j| - w_j) / 2 by half of
      sum_i w_i |x_i.delta|, a sum of at least w_j.

    The LP goes to ``_solve_dual`` unchanged where the descent cannot
    certify its answer: fewer than d + 1 samples of positive weight, a
    singular basis or one whose condition estimate exceeds CONDITION_CAP,
    or VERTEX_CAP vertices. So the result is certified or the fallback's.
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
        basis, inv = _first_basis(xp, np.abs(yp - start @ xp), norms)
        pi = None  # the tie rule's perturbation, made at the LP's first tie
        for _ in range(VERTEX_CAP):
            if inv is None:
                break
            b = yp[basis] @ inv
            r = yp - b @ xp
            r[basis] = 0.0
            tied = np.abs(r) <= ZERO_RESIDUAL * (y_top + np.abs(b) @ x_top)
            if np.count_nonzero(tied) > d:  # a non-basic sample on the fit: the tie rule
                if pi is None:  # frac((i + 1) * golden ratio) + 1/2
                    pi = np.modf((np.arange(yp.size) + 1.0) * (0.5 + math.sqrt(1.25)))[0] + 0.5
                tied[basis] = False
                on_fit = np.flatnonzero(tied)
                r[on_fit] = pi[on_fit] - (pi[basis] @ inv) @ xp[:, on_fit]
            else:
                tied = None
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
            ratio = r[ahead] / xd
            if tied is not None:
                # the samples on the fit cross it first: -1 / ratio < 0 keeps their order
                first = tied[ahead]
                ratio[first] = -1.0 / ratio[first]
            order = np.argsort(ratio)
            reach = np.cumsum((wp[ahead] * np.abs(xd))[order])
            k = reach.searchsorted(0.5 * excess[j])
            if k == reach.size:
                return None
            basis[j] = ahead[order[k]]
            inv = _basis_inverse(xp[:, basis], norms[basis])
    return _solve_dual(xt, y, w, rhs)


def _basis_inverse(xb: np.ndarray, norms: np.ndarray):
    """X_B^-T for the d x d basis columns ``xb``: None if singular or past CONDITION_CAP.

    ``norms`` holds the basic samples' |x_i|_1, for the condition estimate.
    """
    try:
        inv = np.linalg.inv(xb)
    except np.linalg.LinAlgError:
        return None
    # d times the inverse's largest entry bounds its 1-norm
    if not xb.shape[0] * np.abs(inv).max() * norms.max() <= CONDITION_CAP:
        return None
    return inv


def _first_basis(xp: np.ndarray, near: np.ndarray, norms: np.ndarray):
    """The descent's first basis and its X_B^-T (``_basis_inverse``), or None for it.

    The d samples with the smallest ``near``, unless their inverse is None;
    then, taken in order of ``near``, each the nearest sample whose part
    orthogonal to the rows taken before is longer than |x_i| / CONDITION_CAP,
    at one projection pass per sample taken, not a rank test per candidate.
    """
    d = xp.shape[0]
    basis = np.argpartition(near, d - 1)[:d]
    inv = _basis_inverse(xp[:, basis], norms[basis])
    if inv is not None:
        return basis, inv
    order = np.argsort(near)
    rest = xp[:, order]  # the samples by distance, less their parts along the rows taken
    floor = np.linalg.norm(rest, axis=0) / CONDITION_CAP
    for m in range(d):
        size = np.linalg.norm(rest, axis=0)
        k = np.argmax(size > floor)
        if not size[k] > floor[k]:
            return basis, None
        basis[m] = order[k]
        unit = rest[:, k] / size[k]
        rest -= np.outer(unit, unit @ rest)
    return basis, _basis_inverse(xp[:, basis], norms[basis])


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


def _linprog_dual(x: np.ndarray, y: np.ndarray, weights: np.ndarray, rhs: np.ndarray):
    """A working-set LP of ``dual_lp`` through ``scipy.optimize.linprog``.

    Takes X_S^T, the d x |S| array, solves the bounded dual restricted to
    the samples S, max y_S.s subject to X_S^T s = rhs and -w_S <= s <= w_S,
    by HiGHS's dual simplex with presolve off, and returns minus its
    equality multipliers, or None if the LP is infeasible or ends without
    a verdict (status 4).
    """
    from scipy.optimize import linprog

    res = linprog(
        -y,
        A_eq=x,
        b_eq=rhs,
        bounds=np.column_stack([-weights, weights]),
        method="highs-ds",
        # presolve costs about ten times the solve on this problem shape
        options={"presolve": False},
    )
    if res.status in (2, 4):  # infeasible, or ended without a verdict
        return None
    if res.status == 1:
        raise IterationLimit("LP iteration limit reached")
    if res.status != 0:
        raise SolverStall(f"LP solve failed: {res.message}")
    return -np.asarray(res.eqlin.marginals, dtype=float)


# _working_set_lp's fallback, a module attribute so tests can record or alter its LPs
_solve_dual = _linprog_dual
