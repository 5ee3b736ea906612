"""Shared test oracles and utilities, independent of the solver code paths."""

import itertools
import math
import os
import subprocess
import sys
from io import StringIO
from typing import NamedTuple

import numpy as np
import scipy.optimize
import scipy.sparse
from scipy.special import logsumexp

import mlrfit
from mlrfit import admm, io, lad, noise, scoring, synth
from mlrfit.errors import IterationLimit, MlrError, NonFiniteInput, SingularGram, SolverStall
from mlrfit.model import Dataset, MlrParams, NoiseKind, NoiseModel, check_int, initial_params
from mlrfit.rng import stable_hash


def run_fresh(code: str, *args: str, env=None) -> str:
    """The standard output of ``python -c code *args`` in a fresh interpreter.

    The package under test comes first on the child's path, and ``env``
    adds variables to this process's environment. A child that exits
    non-zero fails the calling test, with the child's stderr as the message.
    """
    src = os.path.dirname(os.path.dirname(mlrfit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, **(env or {}), "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout


def density(nm, eps):
    """f(eps) = exp(log f(eps)); the package works in log space only."""
    return np.exp(noise.log_density(nm, eps))


def sample_major_e_step(fits, y, nm):
    """Posterior memberships in the sample-major (N x K) layout.

    One softmax per row, with the row maximum subtracted first: the
    computation ``em.e_step`` makes on K x N arrays, laid out the other
    way, as a reference for it.
    """
    logd = noise.log_density(nm, y[:, None] - fits)
    w = np.exp(logd - logd.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    return w


def logsumexp_log_likelihood(params, data, nm):
    """Mixture log-likelihood through ``scipy.special.logsumexp`` over N x K."""
    logf = noise.log_density(nm, data.y[:, None] - data.x @ params.beta)
    return float(logsumexp(math.log(1.0 / params.k_components) + logf, axis=1).sum())


def lhat_terms(w, lam, rho, fit, y, nm):
    """Per-coordinate surrogate term, written straight from its definition."""
    if nm.kind is NoiseKind.GAUSSIAN:
        def neg_log_f(z):
            return w * (
                (y - z) ** 2 / (2.0 * nm.sigma**2)
                + 0.5 * math.log(2.0 * math.pi * nm.sigma**2)
            )
    else:
        def neg_log_f(z):
            return w * (np.abs(y - z) / nm.b + math.log(2.0 * nm.b))

    def value(z):
        return neg_log_f(z) - lam * z + 0.5 * rho * (fit - z) ** 2

    def subderivative(z):
        if nm.kind is NoiseKind.GAUSSIAN:
            data_term = w * (z - y) / nm.sigma**2
        else:
            data_term = w * np.sign(z - y) / nm.b
        return data_term - lam + rho * (z - fit)

    return value, subderivative


class SurrogatePair(NamedTuple):
    surrogate: float
    lagrangian: float


def surrogate_value(fits, anchor, lam, rho, w, y, nm, z=None) -> SurrogatePair:
    """Upper-bound surrogate and true augmented Lagrangian of ADMM at Z.

    The surrogate replaces the mixture log with its membership-weighted
    expansion around the ``anchor`` Z (constant included), so it touches
    the true augmented Lagrangian at the anchor and, when ``w`` is the
    posterior at the anchor, dominates it everywhere else. ``fits`` is
    X b; ``z`` defaults to the anchor itself. Every array is K x N.
    """
    z_eval = anchor if z is None else np.asarray(z, dtype=float)
    log_p = -math.log(fits.shape[0])  # uniform mixture
    logf_eval = noise.log_density(nm, y - z_eval)
    logf_anchor = noise.log_density(nm, y - anchor)
    constant = float((w * logf_anchor).sum()) - float(
        logsumexp(log_p + logf_anchor, axis=0).sum()
    )
    gap_eval = fits - z_eval
    coupling = float((lam * gap_eval).sum()) + 0.5 * rho * float((gap_eval * gap_eval).sum())
    surrogate = -float((w * logf_eval).sum()) + constant + coupling
    lagrangian = -float(logsumexp(log_p + logf_eval, axis=0).sum()) + coupling
    return SurrogatePair(surrogate, lagrangian)


def minimize_lhat(w, lam, rho, fit, y, nm):
    """Numerical argmin of the per-coordinate surrogate.

    Dense grid bracketing followed by bisection on the subderivative sign;
    the function is convex, so the sign change pins the minimizer far more
    tightly than value comparisons could.
    """
    value, subderivative = lhat_terms(w, lam, rho, fit, y, nm)
    reach = abs(y - fit) + (abs(lam) + w / min(nm.b, nm.sigma**2)) / rho + abs(y) + 5.0
    lo, hi = min(y, fit) - reach, max(y, fit) + reach
    grid = np.linspace(lo, hi, 4001)
    values = value(grid)
    i = int(np.argmin(values))
    lo, hi = grid[max(0, i - 2)], grid[min(len(grid) - 1, i + 2)]
    if subderivative(lo) >= 0.0:
        return lo
    if subderivative(hi) <= 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if subderivative(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def three_branch_z_update_laplacian(fits, lam, rho, w, y, nm):
    """The Laplacian Z-update written as its case analysis, as a reference.

    The surrogate w |y_i - z| / b - lam z + rho/2 (f - z)^2 is convex with
    one kink at y_i: its minimizer is the below-branch stationary point
    zbar = f + (lam b + w) / (b rho) if that lies below y_i, the
    above-branch one ztil = f - (w - lam b) / (b rho) if that lies above
    y_i, and y_i otherwise. Since w >= 0, zbar >= ztil, so at most one of
    the two conditions holds.
    """
    b = nm.b
    zbar = fits + (lam * b + w) / (b * rho)
    ztil = fits - (w - lam * b) / (b * rho)
    return np.where(zbar < y, zbar, np.where(ztil > y, ztil, y))


def lam_form_z_update_gaussian(fits, lam, rho, w, y, nm):
    """ADMM's Gaussian Z-update in the unscaled duals lam, as a reference.

    z = (y w + s^2 rho f + s^2 lam) / (w + s^2 rho), the form the solver
    computed before it kept the scaled duals u = lam / rho.
    """
    s2 = nm.sigma**2
    return (y * w + s2 * rho * fits + s2 * lam) / (w + s2 * rho)


def lam_form_z_update_laplacian(fits, lam, rho, w, y, nm):
    """ADMM's Laplacian Z-update in the unscaled duals lam, as a reference:
    y_i clipped to c -+ w / (b rho), c = lam / rho + f."""
    centre = lam / rho + fits
    reach = w / (nm.b * rho)
    return np.clip(y, centre - reach, centre + reach)


def lam_form_beta_update(z, lam, rho, proj):
    """ADMM's coefficient refit in the unscaled duals, P (Z - lam / rho)^T."""
    return proj @ (z - lam / rho).T


def lam_form_admm(data, k, nm, cfg):
    """ADMM with unscaled duals lam, composed from the steps above.

    The same start, memberships, projection and scorer as ``admm.fit_admm``,
    with the dual step lam + rho (X b - Z). Returns every iterate's d x K
    coefficients, stacked, and the log-likelihoods.
    """
    proj = admm.gram_projection(data)
    fits = initial_params(cfg, data.dim, k).beta.T @ data.x.T
    w = scoring.e_step(fits, data.y, nm)
    lam = np.zeros_like(fits)
    z_update = (lam_form_z_update_gaussian if nm.kind is NoiseKind.GAUSSIAN
                else lam_form_z_update_laplacian)
    betas, log_liks = [], []
    for _ in range(cfg.n_iterations):
        z = z_update(fits, lam, cfg.rho, w, data.y, nm)
        beta = lam_form_beta_update(z, lam, cfg.rho, proj)
        fits = beta.T @ data.x.T
        lam += cfg.rho * (fits - z)
        w = np.empty_like(fits)
        log_liks.append(scoring.log_likelihood(None, data, nm, fits=fits, memberships=w))
        betas.append(beta)
    return np.array(betas), np.array(log_liks)


def brute_force_assignment(cost: np.ndarray):
    """Exact minimum-cost assignment by enumerating all permutations.

    Totals are reduced with the same numpy summation used on the solver
    side, so equal assignments compare bit-for-bit equal.
    """
    k = cost.shape[0]
    idx = np.arange(k)
    best_perm, best_cost = None, math.inf
    for perm in itertools.permutations(range(k)):
        total = float(cost[idx, list(perm)].sum())
        if total < best_cost:
            best_cost, best_perm = total, perm
    return best_perm, best_cost


def min_pairwise_gap(beta: np.ndarray) -> float:
    k = beta.shape[1]
    gaps = [
        float(np.linalg.norm(beta[:, i] - beta[:, j]))
        for i in range(k)
        for j in range(i + 1, k)
    ]
    return min(gaps) if gaps else math.inf


def separated_seed(k: int, d: int, nm: NoiseModel, base: int, min_gap: float = 2.0) -> int:
    """Seed whose generated true coefficients are pairwise >= min_gap apart.

    Rejection-samples over hashed candidate seeds; generating a single
    sample is enough to observe the coefficients because they are drawn
    before the data.
    """
    for attempt in range(100000):
        seed = stable_hash("sep", base, k, d, nm.kind.value, attempt)
        truth = synth.generate(k, d, 1, nm, seed).true_params
        if min_pairwise_gap(truth.beta) >= min_gap:
            return seed
    raise RuntimeError("no separated instance found")


def strip_clock_lines(text: str) -> str:
    """Drop wall-clock lines so reruns of a command compare equal."""
    kept = [
        line
        for line in text.splitlines()
        if not line.startswith(("wall_seconds = ", "started_at = ", "finished_at = "))
    ]
    return "\n".join(kept)


class Unbounded(MlrError):
    """A linear program is unbounded below."""


def simplex(x: np.ndarray, y: np.ndarray, weights: np.ndarray, max_pivots: int = 50000):
    """Dense primal simplex on the epigraph LP, for test-scale instances.

    Variables are (b+, b-, h, s1, s2), all non-negative, with equality
    rows  x_i.(b+ - b-) + h_i - s1_i = y_i  and
    -x_i.(b+ - b-) + h_i - s2_i = -y_i. The all-zero coefficient point
    with h_i = |y_i| is a basic feasible start, so no phase-1 is needed.
    Bland's rule keeps the pivoting cycle-free.

    Returns (coefficients, objective) at an optimal vertex.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n, d = x.shape
    n_var = 2 * d + 3 * n
    h0, s10, s20 = 2 * d, 2 * d + n, 2 * d + 2 * n

    # Canonical tableau for the starting basis, built directly: for
    # y_i >= 0 the pair is (h_i basic in row 2i, s2_i basic in row 2i+1),
    # otherwise (s1_i in row 2i, h_i in row 2i+1).
    tableau = np.zeros((2 * n, n_var + 1))
    basis = np.empty(2 * n, dtype=np.int64)
    cost = np.zeros(n_var)
    cost[h0 : h0 + n] = weights
    for i in range(n):
        r_h, r_s = 2 * i, 2 * i + 1
        xi, yi = x[i], y[i]
        if yi >= 0.0:
            tableau[r_h, :d] = xi
            tableau[r_h, d : 2 * d] = -xi
            tableau[r_h, h0 + i] = 1.0
            tableau[r_h, s10 + i] = -1.0
            tableau[r_h, -1] = yi
            tableau[r_s, :d] = 2.0 * xi
            tableau[r_s, d : 2 * d] = -2.0 * xi
            tableau[r_s, s10 + i] = -1.0
            tableau[r_s, s20 + i] = 1.0
            tableau[r_s, -1] = 2.0 * yi
            basis[r_h] = h0 + i
            basis[r_s] = s20 + i
        else:
            tableau[r_h, :d] = -2.0 * xi
            tableau[r_h, d : 2 * d] = 2.0 * xi
            tableau[r_h, s10 + i] = 1.0
            tableau[r_h, s20 + i] = -1.0
            tableau[r_h, -1] = -2.0 * yi
            tableau[r_s, :d] = -xi
            tableau[r_s, d : 2 * d] = xi
            tableau[r_s, h0 + i] = 1.0
            tableau[r_s, s20 + i] = -1.0
            tableau[r_s, -1] = -yi
            basis[r_h] = s10 + i
            basis[r_s] = h0 + i

    reduced = cost - cost[basis] @ tableau[:, :-1]
    tol = 1e-9
    for _ in range(max_pivots):
        candidates = np.nonzero(reduced < -tol)[0]
        if candidates.size == 0:
            break
        enter = int(candidates[0])  # Bland: lowest eligible index
        column = tableau[:, enter]
        rows = np.nonzero(column > tol)[0]
        if rows.size == 0:
            raise Unbounded("LAD epigraph LP cannot be unbounded with w >= 0")
        ratios = tableau[rows, -1] / column[rows]
        best = ratios.min()
        tied = rows[ratios <= best + tol * (1.0 + abs(best))]
        leave = int(tied[np.argmin(basis[tied])])  # Bland: lowest basis index
        pivot_row = tableau[leave] / column[leave]
        tableau -= np.outer(column, pivot_row)
        tableau[leave] = pivot_row
        reduced -= reduced[enter] * pivot_row[:-1]
        basis[leave] = enter
    else:
        raise IterationLimit(f"simplex exceeded {max_pivots} pivots")

    solution = np.zeros(n_var)
    solution[basis] = tableau[:, -1]
    beta = solution[:d] - solution[d : 2 * d]
    objective = float(np.dot(weights, solution[h0 : h0 + n]))
    return beta, objective


def lad_lp_oracle(weights: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Exact small-scale weighted LAD optimum via the dense simplex.

    Test-scale reference only: refuses N > 200 or d > 5, where the dense
    tableau stops being sensible.

    Returns (coefficients, objective) at an optimal vertex.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    if n > 200 or d > 5:
        raise ValueError("oracle accepts N <= 200 and d <= 5 only")
    return simplex(x, np.asarray(y, dtype=float), np.asarray(weights, dtype=float))


def ipm_lad(x: np.ndarray, y: np.ndarray, weights: np.ndarray):
    """Weighted-LAD optimum of the primal epigraph LP, by HiGHS interior point.

    min w.h subject to h >= +-(y - X b): the primal where ``lad.dual_lp``
    solves the dual, by interior point with crossover where it uses the dual
    simplex, and on all N samples at once. Sized for N in the thousands,
    where the dense ``simplex`` is too slow.

    Returns (coefficients, objective at those coefficients).
    """
    n, d = x.shape
    eye = scipy.sparse.identity(n, format="csr")
    xs = scipy.sparse.csr_matrix(x)
    res = scipy.optimize.linprog(
        np.concatenate([np.zeros(d), weights]),
        A_ub=scipy.sparse.vstack([scipy.sparse.hstack([-xs, -eye]), scipy.sparse.hstack([xs, -eye])]),
        b_ub=np.concatenate([-y, y]),
        bounds=[(None, None)] * d + [(0.0, None)] * n,
        method="highs-ipm",
    )
    if res.status != 0:
        raise RuntimeError(f"independent LAD solve failed: {res.message}")
    beta = res.x[:d]
    return beta, float(np.sum(weights * np.abs(y - x @ beta)))


def stable_weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """Lower weighted median through a stable sort, gathering the whole sorted array.

    The implementation ``lad.weighted_median`` had before it took numpy's
    default sort, kept as the reference it must match.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    cumulative = np.cumsum(weights[order])
    idx = int(np.searchsorted(cumulative, 0.5 * float(weights.sum())))
    return float(values[order][idx])


def stable_solve_1d(x: np.ndarray, y: np.ndarray, weights: np.ndarray) -> float:
    """``lad.solve_1d`` on ``stable_weighted_median``: the ratio median of y_i / x_i."""
    keep = (x != 0.0) & (weights > 0.0)
    if not keep.any():
        return 0.0
    return stable_weighted_median(y[keep] / x[keep], weights[keep] * np.abs(x[keep]))


def brute_force_weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    """The smallest candidate c in ``values`` minimizing sum_i w_i |v_i - c|.

    Exact when the values and weights are small integers, whose sums
    floats hold exactly.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    objectives = [float(np.sum(weights * np.abs(values - c))) for c in values]
    best = min(objectives)
    return min(c for c, objective in zip(values, objectives) if objective == best)


def cholesky_gated_lstsq(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``lad._weighted_lstsq`` with a separate Cholesky gate, as a reference.

    Each ridge-stabilized Gram matrix is Cholesky-factorized only to test
    that it is positive definite (SingularGram otherwise), the factor is
    dropped, and ``np.linalg.solve`` then factorizes it again by LU. The
    kernel's one LU solve must raise SingularGram on the same stacks and
    return the same coefficients on the rest.
    """
    xw = w[:, None, :] * x.T
    try:
        with np.errstate(over="raise", invalid="raise"):
            gram = lad.ridge_gram(xw @ x)
    except FloatingPointError as exc:
        raise NonFiniteInput(f"Gram matrix overflowed: {exc}") from None
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"Gram matrix not positive definite: {exc}") from exc
    beta = np.linalg.solve(gram, (xw @ y)[..., None])[..., 0].T
    if not np.isfinite(beta).all():
        raise NonFiniteInput("weighted least-squares solution overflowed")
    return beta


def allocating_irls(x: np.ndarray, y: np.ndarray, weights: np.ndarray, delta: float):
    """``lad.irls`` with fresh arrays every pass, as a reference.

    Each pass solves through ``cholesky_gated_lstsq`` and recomputes the
    smoothed residuals and the objective into new arrays; ``lad.irls``
    computes the same operations in the same order in a per-call workspace,
    so it must return the same coefficients, bit for bit, after as many
    passes.
    """

    def smoothed_residuals(beta):
        r = y - beta @ x.T
        return np.sqrt(r * r + delta * delta)

    def reweighted_solve(q):
        return cholesky_gated_lstsq(x, y, q[None])[:, 0]

    beta = reweighted_solve(weights)
    s = smoothed_residuals(beta)
    prev = float(np.sum(weights * s))
    for iteration in range(1, lad.IRLS_MAX_ITERATIONS + 1):
        beta = reweighted_solve(weights / s)
        s = smoothed_residuals(beta)
        current = float(np.sum(weights * s))
        if prev - current < lad.IRLS_TOLERANCE * max(prev, np.finfo(float).tiny):
            return beta, iteration
        prev = current
    raise SolverStall(f"IRLS still decreasing after {lad.IRLS_MAX_ITERATIONS} iterations")


def savetxt_rows(data: Dataset) -> str:
    """A dataset file's rows as ``np.savetxt`` renders them, one call per row.

    ``io.write_dataset`` formats the rows a block at a time; the text
    below its ``# columns`` line must equal this, byte for byte.
    """
    out = StringIO()
    np.savetxt(out, np.column_stack([data.labels + 1, data.y, data.x]),
               fmt=["%d"] + ["%.17g"] * (data.dim + 1), delimiter=",")
    return out.getvalue()


def line_by_line_read_dataset(path):
    """``io.read_dataset`` with one Python pass over every line, as a reference.

    Header lines are read wherever they stand, every other non-blank line
    is collected as a row, and ``np.loadtxt`` parses the list of rows. On
    a file whose header lines all come first it must give the same
    Dataset and meta as ``io.read_dataset``, or the same error.
    """
    header = {}  # key -> (value, line number)
    rows = []
    with open(path, "r") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                if line == "# mlrfit dataset":
                    continue
                key, value = io._parse_kv_line(line[2:], str(path), line_no)
                if key.startswith("beta_true["):
                    index = key[len("beta_true[") : -1]
                    index = io._at_line(path, line_no, check_int, "beta_true index", index)
                    key = f"beta_true[{index}]"
                elif key not in io._DATASET_KEYS:
                    raise ValueError(f"{path}:{line_no}: unknown dataset header key {key!r}")
                if key in header:
                    raise ValueError(f"{path}:{line_no}: duplicate dataset header key {key!r}")
                header[key] = (value, line_no)
                continue
            rows.append(line)
    for required in io._DATASET_KEYS:
        if required not in header:
            raise ValueError(f"{path}: missing dataset header key {required!r}")

    def parse(key, rule, *args):
        value, line_no = header[key]
        return io._at_line(path, line_no, rule, *args, value)

    parse("format", io._exactly, "format", io.FORMAT_VERSION)
    meta = {key: parse(key, read, key) for key, (read, _) in io._SETTINGS.items()}
    k, d, n = meta["k"], meta["d"], meta["n"]
    parse("columns", io._exactly, "columns", io._columns(d))
    if len(rows) != n:
        raise ValueError(f"{path}: header says n = {n} but found {len(rows)} rows")
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=1,
                           dtype=[("label", np.int64), ("y", float), ("x", float, (d,))])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    true_params = None
    beta_keys = {key for key in header if key.startswith("beta_true[")}
    if beta_keys:
        wanted = [f"beta_true[{j}]" for j in range(1, k + 1)]
        if beta_keys != set(wanted):
            raise ValueError(f"{path}: beta_true lines must cover components 1..{k}")
        columns = [parse(key, io._coefficients, key, d) for key in wanted]
        true_params = MlrParams(np.column_stack(columns))
    labels = table["label"] - 1
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"{path}: labels must be in 1..{k}")
    return Dataset(x=table["x"], y=table["y"], labels=labels, true_params=true_params), meta
