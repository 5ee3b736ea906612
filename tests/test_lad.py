import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Unbounded,
    allocating_irls,
    brute_force_weighted_median,
    cholesky_gated_lstsq,
    ipm_lad,
    plain_irls,
    run_fresh,
    simplex,
    stable_solve_1d,
    stable_weighted_median,
)
from mlrfit import em, lad, synth
from mlrfit.errors import (
    InsufficientData,
    IterationLimit,
    NonFiniteInput,
    SingularGram,
    SolverStall,
)
from mlrfit.model import Dataset, NoiseKind, NoiseModel, SolverConfig

LAPLACE = NoiseModel(NoiseKind.LAPLACIAN, 1.0)


def dual_lp_backend(x, y, w):
    """``dual_lp`` with the vertex descent off: every working-set LP goes to ``linprog``."""
    cap = lad.VERTEX_CAP
    lad.VERTEX_CAP = 0
    try:
        return lad.dual_lp(x, y, w)
    finally:
        lad.VERTEX_CAP = cap


def random_instance(rng, n=None, d=None):
    n = n or int(rng.integers(15, 80))
    d = d or int(rng.integers(1, 4))
    x = rng.standard_normal((n, d))
    y = rng.standard_normal(n) * 2.0
    w = rng.uniform(0.05, 1.0, n)
    return x, y, w


def lad_objective(x, y, w, beta):
    return float(np.sum(w * np.abs(y - x @ beta)))


def test_weighted_median_on_simple_sets():
    values = np.array([3.0, 1.0, 2.0])
    assert lad.weighted_median(values, np.array([1.0, 1.0, 1.0])) == 2.0
    # mass concentrated on the first listed value
    assert lad.weighted_median(values, np.array([5.0, 0.1, 0.1])) == 3.0


def test_weighted_median_takes_lower_on_ties():
    # half the mass sits on each point, so any value in [0, 10] minimizes
    assert lad.weighted_median(np.array([0.0, 10.0]), np.array([1.0, 1.0])) == 0.0


def test_weighted_median_is_lad_minimizer():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        values = rng.standard_normal(n) * 3
        weights = rng.uniform(0.01, 1.0, n)
        med = lad.weighted_median(values, weights)

        def objective(m):
            return np.sum(weights * np.abs(values - m))

        best_data_point = min(values, key=objective)
        assert objective(med) <= objective(best_data_point) + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(-4, 4), st.integers(0, 5)), min_size=1, max_size=40
    ).filter(lambda pairs: any(weight for _, weight in pairs))
)
def test_weighted_median_is_lowest_brute_force_minimizer(pairs):
    # few distinct integers: heavy ties, zero weights, single points; the
    # sums are exact, so the half-mass boundary is hit exactly
    values, weights = (np.array(column, dtype=float) for column in zip(*pairs))
    assert lad.weighted_median(values, weights) == brute_force_weighted_median(values, weights)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3000), ties=st.booleans())
def test_solve_1d_matches_stable_sort_implementation(seed, n, ties):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n) * 3.0
    w = rng.uniform(0.0, 1.0, n)
    w[rng.random(n) < 0.2] = 0.0
    if ties:
        # integer data and weights: tied ratios, and every partial sum exact
        x, y, w = np.round(x * 2.0), np.round(y), np.round(w * 4.0)
    assert lad.solve_1d(x, y, w) == stable_solve_1d(x, y, w)
    if np.any(w > 0.0):
        assert lad.weighted_median(y, w) == stable_weighted_median(y, w)


def test_solve_1d_matches_ratio_median():
    x = np.array([1.0, 2.0, -1.0, 0.0])
    y = np.array([1.0, 6.0, 2.0, 5.0])
    w = np.array([1.0, 1.0, 1.0, 7.0])  # the x=0 point must not matter
    expected = lad.weighted_median(
        np.array([1.0, 3.0, -2.0]), np.array([1.0, 2.0, 1.0])
    )
    assert lad.solve_1d(x, y, w) == expected


def test_simplex_single_point_interpolates():
    beta, objective = simplex(np.array([[1.0]]), np.array([3.0]), np.array([1.0]))
    assert beta[0] == pytest.approx(3.0, abs=1e-12)
    assert objective == pytest.approx(0.0, abs=1e-12)


def test_simplex_two_point_tie_returns_vertex():
    x = np.array([[1.0], [1.0]])
    y = np.array([0.0, 10.0])
    w = np.array([1.0, 1.0])
    beta, objective = simplex(x, y, w)
    assert objective == pytest.approx(10.0, abs=1e-10)
    assert beta[0] in (pytest.approx(0.0, abs=1e-10), pytest.approx(10.0, abs=1e-10))


def test_simplex_matches_scipy_reference():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y, w = random_instance(rng)
        beta, objective = simplex(x, y, w)
        _, reference = ipm_lad(x, y, w)
        assert objective == pytest.approx(reference, rel=1e-9, abs=1e-9)
        assert lad_objective(x, y, w, beta) == pytest.approx(objective, rel=1e-9, abs=1e-9)


def test_dual_lp_matches_simplex():
    rng = np.random.default_rng(2)
    for _ in range(25):
        x, y, w = random_instance(rng)
        beta_lp, obj_lp = lad.dual_lp(x, y, w)
        beta_sx, obj_sx = simplex(x, y, w)
        assert obj_lp == pytest.approx(obj_sx, rel=1e-9, abs=1e-9)
        assert lad_objective(x, y, w, beta_lp) == pytest.approx(obj_sx, rel=1e-9, abs=1e-9)


def test_dual_lp_handles_zero_weights():
    rng = np.random.default_rng(3)
    x, y, w = random_instance(rng, n=30, d=2)
    w[::3] = 0.0
    beta, objective = lad.dual_lp(x, y, w)
    _, obj_sx = simplex(x, y, w)
    assert objective == pytest.approx(obj_sx, rel=1e-9, abs=1e-9)


@pytest.fixture
def lp_solves(monkeypatch):
    """(columns, right-hand side non-zero, feasible) of every working-set LP.

    Records the LPs at ``dual_lp``'s one seam per LP, ``_working_set_lp``,
    whichever solver answers them: the vertex descent or the backend.
    """
    solves = []

    def spy(x, y, w, rhs, start, solve=lad._working_set_lp):
        beta = solve(x, y, w, rhs, start)
        solves.append((y.size, bool(np.any(rhs)), beta is not None))
        return beta

    monkeypatch.setattr(lad, "_working_set_lp", spy)
    return solves


@pytest.fixture
def lp_covariates(monkeypatch):
    """(shape, C-contiguous, |S|) of the covariates of every working-set LP."""
    seen = []

    def spy(x, y, w, rhs, start, solve=lad._working_set_lp):
        seen.append((x.shape, x.flags.c_contiguous, y.size))
        return solve(x, y, w, rhs, start)

    monkeypatch.setattr(lad, "_working_set_lp", spy)
    return seen


def test_working_set_lps_take_x_s_transposed_from_any_layout(lp_covariates):
    # the backend gets X_S^T, d x |S| and C-contiguous, gathered from x.T in
    # place, whether x is column-major as in a Dataset, row-major or a
    # strided view; the coefficients are the same bit for bit
    rng = np.random.default_rng(41)
    for _ in range(40):
        n, d = int(rng.integers(50, 3001)), int(rng.integers(2, 4))
        x, y, w = drawn_instance(int(rng.integers(2**32)), n, d, 0.0)
        padded = np.zeros((2 * n, 3 * d), order="F")
        padded[::2, ::3] = x
        results = []
        for view in (np.asfortranarray(x), np.ascontiguousarray(x), padded[::2, ::3]):
            lp_covariates.clear()
            results.append(lad.dual_lp(view, y, w))
            assert lp_covariates
            assert all(shape == (d, size) and contiguous
                       for shape, contiguous, size in lp_covariates)
        for beta, objective in results[1:]:
            assert np.array_equal(beta, results[0][0])
            assert objective == pytest.approx(results[0][1], rel=1e-12)


def assert_matches_simplex(x, y, w):
    beta, objective = lad.dual_lp(x, y, w)
    _, optimum = simplex(x, y, w)
    assert objective == pytest.approx(optimum, rel=1e-9, abs=1e-9)
    assert lad_objective(x, y, w, beta) == objective


def infeasible_first_set_instance():
    """An LP whose first working set at WORKING_SET_SCALE = 1 is infeasible."""
    rng = np.random.default_rng(2)
    x = rng.standard_normal((200, 2))
    y = x @ np.array([1.0, -2.0]) + rng.laplace(size=200)
    return x, y, rng.uniform(0.05, 1.0, 200)


def test_working_set_doubles_when_infeasible_then_adds_violations(monkeypatch, lp_solves):
    # a small first set: its LP cannot balance the fixed samples, then the
    # doubled set's solution moves samples across the fit
    monkeypatch.setattr(lad, "WORKING_SET_SCALE", 1.0)
    assert_matches_simplex(*infeasible_first_set_instance())
    sizes = [size for size, _, _ in lp_solves]
    assert sizes[:2] == [15, 30]
    assert [feasible for _, _, feasible in lp_solves] == [False] + [True] * (len(sizes) - 1)
    assert len(sizes) >= 3 and 30 < sizes[2] < 200
    assert all(nonzero for _, nonzero, _ in lp_solves)


@pytest.mark.parametrize("n", [3, 10, 16])
def test_working_set_as_large_as_n_solves_one_full_lp(n, lp_solves):
    assert math.ceil(lad.WORKING_SET_SCALE * math.sqrt(n)) >= n
    rng = np.random.default_rng(n)
    x, y, w = random_instance(rng, n=n, d=2)
    assert_matches_simplex(x, y, w)
    assert lp_solves == [(n, False, True)]


def edge_instance(kind, rng):
    x, y, w = random_instance(rng, n=200, d=int(rng.integers(2, 4)))
    if kind == "zero weights":
        w[rng.random(w.size) < 0.4] = 0.0
    elif kind == "zeros in x":
        x[rng.random(x.shape) < 0.3] = 0.0
    elif kind == "duplicated rows and ties":
        # every row three times, and integer data, so residuals tie
        x = np.repeat(np.round(x[:67] * 2.0), 3, axis=0)[:200]
        y = np.repeat(np.round(y[:67] * 2.0), 3, axis=0)[:200]
    elif kind == "all but d weights zero":
        keep = rng.choice(200, size=x.shape[1], replace=False)
        w[np.setdiff1d(np.arange(200), keep)] = 0.0
    return x, y, w


@pytest.mark.parametrize(
    "kind", ["zero weights", "zeros in x", "duplicated rows and ties", "all but d weights zero"]
)
def test_working_set_on_edge_inputs(kind, lp_solves):
    rng = np.random.default_rng(len(kind))
    for _ in range(4):
        x, y, w = edge_instance(kind, rng)
        assert_matches_simplex(x, y, w)
    assert lp_solves[0][0] < 200  # the working set was in use


def no_start_instance():
    """The only weighted rows have x = 0: a zero Gram matrix, so no start."""
    x, y, w = random_instance(np.random.default_rng(9), n=100, d=2)
    x[:10] = 0.0
    w[10:] = 0.0
    return x, y, w


def test_failed_least_squares_start_solves_one_full_lp(lp_solves):
    x, y, w = no_start_instance()
    with pytest.raises(SingularGram):
        lad._weighted_lstsq(x, y, w[None])
    assert_matches_simplex(x, y, w)
    assert lp_solves == [(100, False, True)]


def test_dual_lp_is_the_weighted_median_at_d_1(lp_solves):
    rng = np.random.default_rng(10)
    x, y, w = random_instance(rng, n=300, d=1)
    beta, objective = lad.dual_lp(x, y, w)
    assert beta[0] == lad.solve_1d(x[:, 0], y, w)
    assert objective == pytest.approx(ipm_lad(x, y, w)[1], rel=1e-9)
    assert lp_solves == []


def drawn_instance(seed, n, d, zero_share):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = x @ rng.standard_normal(d) + rng.laplace(size=n)
    w = rng.uniform(0.0, 1.0, n)
    w[rng.random(n) < zero_share] = 0.0
    return x, y, w


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3000),
    d=st.integers(1, 3),
    zero_share=st.sampled_from([0.0, 0.2, 0.6]),
)
def test_dual_lp_never_above_independent_optimum(seed, n, d, zero_share):
    x, y, w = drawn_instance(seed, n, d, zero_share)
    _, objective = lad.dual_lp(x, y, w)
    _, optimum = ipm_lad(x, y, w)
    # an absolute floor for exact fits, where the optimum is rounding noise
    assert objective <= optimum * (1.0 + 1e-9) + 1e-12 * (1.0 + float(np.sum(w * np.abs(y))))


def degenerate_instance(seed, n, d, decimals, repeated, zero_y):
    """Data with ties: x and y rounded to ``decimals``, a third of the rows repeated if asked."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.standard_normal((n, d)) * 2.0, decimals)
    y = np.round(x @ rng.standard_normal(d) + rng.laplace(size=n), decimals)
    if repeated:
        copies = n // 3
        pick = rng.integers(0, n - copies, copies)
        x[n - copies:], y[n - copies:] = x[pick], y[pick]
    if zero_y:  # every residual of b = 0 is 0, and so is the tolerance that finds ties
        y = np.zeros(n)
    w = rng.uniform(0.0, 1.0, n)
    w[rng.random(n) < 0.2] = 0.0
    return x, y, w


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 1000),
    d=st.integers(2, 3),
    decimals=st.sampled_from([0, 1]),
    repeated=st.booleans(),
    zero_y=st.sampled_from([False, False, False, True]),
)
def test_dual_lp_never_above_independent_optimum_on_ties(seed, n, d, decimals, repeated, zero_y):
    # integer or one-decimal data, rows in copies, zero weights: degenerate
    # vertices everywhere, which the pivots pass by their tie rule
    x, y, w = degenerate_instance(seed, n, d, decimals, repeated, zero_y)
    _, objective = lad.dual_lp(x, y, w)
    _, optimum = ipm_lad(x, y, w)
    assert objective <= optimum * (1.0 + 1e-9) + 1e-12 * (1.0 + float(np.sum(w * np.abs(y))))


def restricted_lp(seed, n, d, zero_share, tilt):
    """A working-set LP as ``dual_lp`` hands it on: (X_S^T, y_S, w_S, rhs, start).

    rhs = tilt * X_S^T (w_S sign(X_S theta)) for a random direction theta.
    The right-hand sides the restricted dual can meet form the zonotope
    {X_S^T s : |s| <= w_S}, whose support in direction theta that vector
    attains at tilt 1: the LP is feasible at tilt <= 1 and, with any
    positive weight, infeasible beyond.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = x @ rng.standard_normal(d) + rng.laplace(size=n)
    w = rng.uniform(0.0, 1.0, n)
    w[rng.random(n) < zero_share] = 0.0
    rhs = tilt * ((w * np.sign(x @ rng.standard_normal(d))) @ x)
    return np.ascontiguousarray(x.T), y, w, rhs, rng.standard_normal(d)


def vertex_or_backend(lp):
    """``_working_set_lp`` on ``lp``: its result, and (arguments, answer) of each hand-off."""
    handed = []
    backend = lad._solve_dual

    def spy(*args):
        handed.append((args, backend(*args)))
        return handed[-1][1]

    lad._solve_dual = spy
    try:
        return lad._working_set_lp(*lp), handed
    finally:
        lad._solve_dual = backend


def restricted_objective(lp, beta):
    xt, y, w, rhs, _ = lp
    return float(np.sum(w * np.abs(y - beta @ xt)) + rhs @ beta)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 120),
    d=st.integers(2, 3),
    zero_share=st.sampled_from([0.0, 0.3]),
    tilt=st.sampled_from([0.0, 0.5, 0.95, 1.05, 2.0]),
)
def test_vertex_descent_matches_the_oracle_and_the_backend_verdict(seed, n, d, zero_share, tilt):
    # tilted LPs, infeasible ones included: the descent's None is the
    # backend's verdict and the dense simplex's unboundedness, and its
    # optimum is the simplex's; it hands an LP on only without d + 1
    # weighted samples
    lp = restricted_lp(seed, n, d, zero_share, tilt)
    xt, y, w, rhs, _ = lp
    beta, handed = vertex_or_backend(lp)
    assert not handed or np.count_nonzero(w) <= d
    assert (beta is None) == (lad._solve_dual(xt, y, w, rhs) is None)
    try:
        _, optimum = simplex(xt.T, y, w, tilt=rhs)
    except Unbounded:
        assert beta is None
    else:
        assert beta is not None
        floor = 1e-12 * (1.0 + float(np.sum(w * np.abs(y)) + np.abs(rhs).sum()))
        assert restricted_objective(lp, beta) == pytest.approx(optimum, rel=1e-9, abs=floor)


def hard_lp(kind):
    """A working-set LP that is hard for the vertex descent, for the reason ``kind``."""
    rng = np.random.default_rng(len(kind))
    x, y, w = random_instance(rng, n=60, d=2)
    start = np.zeros(2)
    if kind == "duplicated integer rows":
        # each basic sample's copies fit too: a singular first basis, and
        # degenerate vertices
        x = np.repeat(np.round(x[:20] * 2.0), 3, axis=0)
        y = np.repeat(np.round(y[:20] * 2.0), 3)
    elif kind == "three samples on the start's fit":
        # no two of them parallel: the start's basis is regular, and a third
        # residual is exactly zero, a degenerate vertex
        x[:3], start = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], np.array([0.5, -0.25])
        y[:3] = x[:3] @ start
        y[3:] += np.where(y[3:] >= x[3:] @ start, 1.0, -1.0)  # every other residual >= 1
    elif kind == "zero covariate column":  # every basis singular
        x[:, 1] = 0.0
    elif kind == "nearly parallel covariates":  # every basis ill-conditioned
        x[:, 1] = x[:, 0] * (1.0 + 1e-10 * rng.standard_normal(60))
    elif kind == "d weighted samples":
        w[2:] = 0.0
    return np.ascontiguousarray(x.T), y, w, np.zeros(2), start


@pytest.mark.parametrize("kind", ["duplicated integer rows", "three samples on the start's fit"])
def test_vertex_descent_answers_degenerate_lps(kind):
    # more than d samples on the fit: the tie rule orders them, and the
    # pivots answer the LP at the dense simplex's optimum, with no fallback
    lp = hard_lp(kind)
    xt, y, w, _, _ = lp
    beta, handed = vertex_or_backend(lp)
    assert not handed
    _, optimum = simplex(xt.T, y, w)
    assert restricted_objective(lp, beta) == pytest.approx(optimum, rel=1e-9)


@pytest.mark.parametrize("kind", [
    "zero covariate column", "nearly parallel covariates", "d weighted samples", "vertex cap 0",
])
def test_vertex_descent_hands_what_it_cannot_certify_to_the_backend(kind, monkeypatch):
    if kind == "vertex cap 0":
        monkeypatch.setattr(lad, "VERTEX_CAP", 0)
        lp = restricted_lp(5, 60, 2, 0.0, 0.5)
    else:
        lp = hard_lp(kind)
    beta, handed = vertex_or_backend(lp)
    # the LP as given, unchanged, and the backend's answer as the result
    assert len(handed) == 1
    (args, answer), = handed
    assert all(a is b for a, b in zip(args, lp[:4]))
    assert beta is answer


def test_vertex_descent_answers_once_the_third_sample_leaves_the_fit():
    # the degenerate LP above with its third sample moved off the start's
    # fit, so that the descent meets no tie at its first vertex
    xt, y, w, rhs, start = hard_lp("three samples on the start's fit")
    y = y.copy()
    y[2] += 0.25
    beta, handed = vertex_or_backend((xt, y, w, rhs, start))
    assert not handed
    _, optimum = simplex(xt.T, y, w)
    assert restricted_objective((xt, y, w, rhs, start), beta) == pytest.approx(optimum, rel=1e-9)


@pytest.fixture
def handed(monkeypatch):
    """Every working-set LP handed to the backend, as its arguments."""
    lps = []
    backend = lad._solve_dual
    monkeypatch.setattr(lad, "_solve_dual", lambda *lp: lps.append(lp) or backend(*lp))
    return lps


def test_duplicated_rows_are_answered_by_the_pivots(handed, lp_solves):
    # every vertex of data whose rows come in copies is degenerate: the tie
    # rule lets the pivots answer each working-set LP, at the optimum
    rng = np.random.default_rng(len("duplicated rows and ties"))
    for _ in range(4):
        assert_matches_simplex(*edge_instance("duplicated rows and ties", rng))
    assert len(lp_solves) >= 4
    assert handed == []


@pytest.mark.parametrize("zero_share", [0.0, 0.4, 0.9])
def test_vertex_descent_raises_no_warning(zero_share):
    # zero weights leave the LP before the descent, and no step divides by a
    # zero x_i.delta: every warning is an error here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(6):
            lp = restricted_lp(seed, 150, 2 + seed % 2, zero_share, (0.0, 0.5, 2.0)[seed % 3])
            beta, handed = vertex_or_backend(lp)
            assert not handed
            x, y, w = drawn_instance(seed, 2000, 2 + seed % 2, zero_share)
            x[::7, 0] = 0.0
            beta, objective = lad.dual_lp(x, y, w)
            assert lad_objective(x, y, w, beta) == objective
            _, optimum = ipm_lad(x, y, w)
            assert objective <= optimum * (1.0 + 1e-9) + 1e-12 * float(np.sum(w * np.abs(y)))


def test_em_lp_fit_follows_the_backend_route(monkeypatch, handed):
    # the descent answers every LP of an EM-LP fit, and the fit follows the
    # backend-only route's to rounding
    data = synth.generate(3, 2, 2000, LAPLACE, seed=25)
    cfg = SolverConfig(n_iterations=30, seed=26)
    vertex = em.fit_em(data, 3, LAPLACE, cfg, lad_path="lp")
    assert handed == []
    monkeypatch.setattr(lad, "VERTEX_CAP", 0)
    reference = em.fit_em(data, 3, LAPLACE, cfg, lad_path="lp")
    assert handed
    top = np.abs(reference.params.beta).max()
    assert np.abs(vertex.params.beta - reference.params.beta).max() <= 1e-12 * top
    np.testing.assert_allclose(vertex.log_liks, reference.log_liks, rtol=1e-13, atol=0.0)


def mixed_calls():
    """(x, y, w) for a mixed sequence of dual_lp calls.

    Random instances of every d and of N from 3 to 3000, a failed
    least-squares start and duplicated rows with ties, in a seeded
    shuffled order.
    """
    rng = np.random.default_rng(31)
    calls = [random_instance(rng, n=n, d=d) for n in (3, 16, 40, 300, 3000) for d in (1, 2, 3)]
    calls.append(no_start_instance())
    ties = np.random.default_rng(len("duplicated rows and ties"))
    calls += [edge_instance("duplicated rows and ties", ties) for _ in range(4)]
    return [calls[i] for i in rng.permutation(len(calls))]


def assert_same_results(results, reference):
    assert len(results) == len(reference)
    for (beta, objective), (beta_ref, objective_ref) in zip(results, reference):
        assert np.array_equal(beta, beta_ref)
        assert objective == objective_ref


def linprog_reporting(monkeypatch, status, on):
    """Patch ``linprog`` to report ``status`` after the runs numbered in ``on``.

    ``on`` holds 1-based run counts; the other runs report their own status.
    The vertex descent is off, so every working-set LP reaches ``linprog``.
    Returns the list of each run's own status, filled as the runs go.
    """
    runs = []

    def linprog(*args, real=scipy.optimize.linprog, **kwargs):
        res = real(*args, **kwargs)
        runs.append(res.status)
        if len(runs) in on:
            res.status = status
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", linprog)
    monkeypatch.setattr(lad, "VERTEX_CAP", 0)
    return runs


def test_lp_at_its_iteration_limit_raises(monkeypatch):
    # linprog's status 1: HiGHS reached its iteration limit
    linprog_reporting(monkeypatch, 1, on={1})
    with pytest.raises(IterationLimit):
        lad.dual_lp(*infeasible_first_set_instance())


def assert_optimum_of(result, x, y, w):
    """``result`` is the optimum ``dual_lp`` finds on (x, y, w) unpatched."""
    beta, objective = result
    beta_ref, objective_ref = lad.dual_lp(x, y, w)
    np.testing.assert_allclose(beta, beta_ref, rtol=1e-9, atol=1e-12)
    assert objective == pytest.approx(objective_ref, rel=1e-12)


def test_only_the_lp_on_all_samples_without_a_verdict_stalls(monkeypatch, lp_solves):
    x, y, w = infeasible_first_set_instance()
    monkeypatch.setattr(lad, "WORKING_SET_SCALE", 1.0)
    linprog_reporting(monkeypatch, 4, on=range(1, 6))
    with pytest.raises(SolverStall, match="on all samples"):
        lad.dual_lp(x, y, w)
    assert [size for size, _, _ in lp_solves] == [15, 30, 60, 120, 200]


def test_linprog_lp_without_a_verdict_grows_the_set(monkeypatch):
    # linprog's status 4: the LP ended on numerical difficulties
    x, y, w = infeasible_first_set_instance()
    monkeypatch.setattr(lad, "WORKING_SET_SCALE", 1.0)
    runs = linprog_reporting(monkeypatch, 4, on={2})
    result = lad.dual_lp(x, y, w)
    assert runs[:2] == [2, 0] and len(runs) >= 3
    assert_optimum_of(result, x, y, w)


def test_em_lp_fit_goes_on_past_a_working_set_lp_without_a_verdict():
    # laplace-large's cell K = 3, d = 2, rep 2 at seed 1: with some BLAS
    # builds HiGHS ends one 1132-sample working-set LP of iteration 4 with
    # model status Unknown, which used to stop the fit in SolverStall
    seed = 18264043960806714598
    data = synth.generate(3, 2, 20000, LAPLACE, seed)
    trace = em.fit_em(data, 3, LAPLACE, SolverConfig(n_iterations=8, seed=seed), lad_path="lp")
    assert len(trace.log_liks) == 8
    # exact M-steps: EM's likelihood does not fall
    assert np.diff(trace.log_liks).min() >= -1e-9 * abs(trace.log_liks[-1])


def test_dual_lp_from_four_threads_equals_serial(monkeypatch):
    # more threads than cores, switching often, with every LP handed to linprog
    monkeypatch.setattr(lad, "VERTEX_CAP", 0)
    calls = mixed_calls() * 3
    serial = [lad.dual_lp(*call) for call in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda call: lad.dual_lp(*call), calls, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert_same_results(threaded, serial)


# Solves the calls saved in argv[1] from four threads in a fresh interpreter,
# whose first four calls, one per thread, load scipy's LP module together,
# with every LP handed to linprog, and saves the results to argv[2].
FOUR_THREADS = """
import sys, threading
from concurrent.futures import ThreadPoolExecutor
import numpy as np
from mlrfit import lad

assert "scipy.optimize" not in sys.modules, "scipy's LP module was loaded at import"
lad.VERTEX_CAP = 0
calls = np.load(sys.argv[1])
count = len(calls.files) // 3
together = threading.Barrier(4)

def solve(i):
    if i < 4:  # every thread's first call, none of them with linprog loaded yet
        together.wait(timeout=60)
    return lad.dual_lp(calls[f"x{i}"], calls[f"y{i}"], calls[f"w{i}"])

sys.setswitchinterval(1e-5)
with ThreadPoolExecutor(max_workers=4) as pool:
    solved = list(pool.map(solve, range(count), timeout=300))
results = {}
for i, (beta, objective) in enumerate(solved):
    results[f"beta{i}"], results[f"objective{i}"] = beta, objective
np.savez(sys.argv[2], **results)
"""


def test_first_lps_of_a_process_from_four_threads_equal_serial(tmp_path):
    # d >= 2, so every call solves at least one LP
    calls = [call for call in mixed_calls() if call[0].shape[1] > 1]
    assert len(calls) > 4
    arrays = {}
    for i, (x, y, w) in enumerate(calls):
        arrays.update({f"x{i}": x, f"y{i}": y, f"w{i}": w})
    np.savez(tmp_path / "calls.npz", **arrays)
    run_fresh(FOUR_THREADS, str(tmp_path / "calls.npz"), str(tmp_path / "results.npz"))
    with np.load(tmp_path / "results.npz") as saved:
        threaded = [(saved[f"beta{i}"], float(saved[f"objective{i}"]))
                    for i in range(len(calls))]
    assert_same_results(threaded, [dual_lp_backend(*call) for call in calls])


def test_irls_reaches_lp_optimum():
    rng = np.random.default_rng(4)
    for _ in range(15):
        x, y, w = random_instance(rng, d=int(rng.integers(2, 4)))
        delta = 1e-6 * (1.0 + float(np.std(y)))
        beta, iterations = lad.irls(x, y, w, delta)
        _, obj_lp = simplex(x, y, w)
        achieved = lad_objective(x, y, w, beta)
        assert achieved <= obj_lp * (1 + 1e-6) + 1e-12
        assert iterations >= 1


def test_irls_stall_raises(monkeypatch):
    rng = np.random.default_rng(5)
    x, y, w = random_instance(rng, n=60, d=3)
    monkeypatch.setattr(lad, "IRLS_MAX_ITERATIONS", 1)
    with pytest.raises(SolverStall):
        lad.irls(x, y, w, delta=1e-6)


def test_ridge_keeps_singular_gram_solvable():
    # duplicated column makes X^T X singular without the ridge
    x = np.ones((10, 2))
    y = np.linspace(0, 1, 10)
    solution = lad._weighted_lstsq(x, y, np.ones((1, 10)))
    assert np.isfinite(solution).all()


@pytest.mark.parametrize("n", [5, 200])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_weighted_lstsq_matches_per_row_normal_equations(k, d, n):
    rng = np.random.default_rng(1000 * k + 10 * d + n)
    x = rng.standard_normal((n, d))
    y = rng.standard_normal(n) * 2.0
    w = rng.uniform(0.05, 1.0, (k, n))
    beta = lad._weighted_lstsq(x, y, w)
    assert beta.shape == (d, k)
    for row in range(k):
        xw = x * w[row][:, None]
        expected = np.linalg.solve(lad.ridge_gram(xw.T @ x), xw.T @ y)
        scale = np.abs(expected).max()
        assert np.abs(beta[:, row] - expected).max() <= 1e-12 * scale


def test_weighted_lstsq_zero_weight_row_raises():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 2))
    y = rng.standard_normal(40)
    w = rng.uniform(0.05, 1.0, (3, 40))
    w[1] = 0.0  # a zero Gram matrix has a zero ridge: LU finds it singular
    with pytest.raises(SingularGram):
        lad._weighted_lstsq(x, y, w)


def test_overflowing_normal_equations_raise_non_finite():
    # finite covariates whose squares overflow: no pass may run on a NaN
    # system, and no RuntimeWarning escapes
    rng = np.random.default_rng(6)
    x = rng.standard_normal((50, 2)) * 1e160
    y = rng.standard_normal(50)
    w = rng.uniform(0.1, 1.0, 50)
    with pytest.raises(NonFiniteInput, match="overflowed"):
        lad._weighted_lstsq(x, y, w[None])
    with pytest.raises(NonFiniteInput, match="overflowed"):
        lad.irls(x, y, w, delta=1e-6)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernels_agree_on_either_layout(d):
    # a Dataset's x is column-major, but library callers may pass either
    rng = np.random.default_rng(70 + d)
    x = rng.standard_normal((300, d))
    y = rng.standard_normal(300) * 2.0
    w = rng.uniform(0.05, 1.0, (3, 300))
    rows, columns = np.ascontiguousarray(x), np.asfortranarray(x)

    def assert_close(got, expected):
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    assert_close(lad._weighted_lstsq(columns, y, w), lad._weighted_lstsq(rows, y, w))
    assert_close(lad.irls(columns, y, w[0], 1e-6)[0], lad.irls(rows, y, w[0], 1e-6)[0])
    for row in w:
        (beta_c, objective_c), (beta_r, objective_r) = (
            lad.dual_lp(columns, y, row), lad.dual_lp(rows, y, row)
        )
        assert_close(beta_c, beta_r)
        assert abs(objective_c - objective_r) <= 1e-12 * objective_r


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [300, 20000])
def test_irls_matches_allocating_oracle(n, d, order):
    # the workspace passes compute what fresh arrays did, bit for bit, in
    # the Dataset's column-major layout and in the row-major one alike
    rng = np.random.default_rng(n + 10 * d)
    x = np.asarray(rng.standard_normal((n, d)), order=order)
    y = x @ rng.standard_normal(d) + rng.laplace(size=n)
    w = rng.uniform(0.0, 1.0, n) ** 4  # membership-like, many rows near zero
    delta = em.irls_delta(y)
    beta, passes = lad.irls(x, y, w, delta)
    expected, expected_passes = allocating_irls(x, y, w, delta)
    assert np.array_equal(beta, expected)
    assert passes == expected_passes


def test_irls_result_outlives_the_workspace():
    rng = np.random.default_rng(15)
    x, y, w = random_instance(rng, n=200, d=2)
    first, _ = lad.irls(x, y, w, 1e-6)
    kept = first.copy()
    second, _ = lad.irls(x, -2.0 * y, w[::-1].copy(), 1e-6)
    assert not np.array_equal(second, kept)
    assert np.array_equal(first, kept)


def smoothed_objective(x, y, w, delta, beta):
    r = y - x @ beta
    return float(np.sum(w * np.sqrt(r * r + delta * delta)))


def plain_irls_step(x, y, w, delta, beta):
    """One plain IRLS step from ``beta``: the minimizer of the bound that touches there."""
    r = y - x @ beta
    return cholesky_gated_lstsq(x, y, (w / np.sqrt(r * r + delta * delta))[None])[:, 0]


def mixture_instance(seed, n, d):
    """An M-step's LAD problem: memberships of one of two components, as EM forms them."""
    rng = np.random.default_rng(seed)
    x = np.asfortranarray(rng.standard_normal((n, d)))
    beta = rng.standard_normal((d, 2))
    y = np.where(rng.random(n) < 0.5, x @ beta[:, 0], x @ beta[:, 1]) + rng.laplace(size=n)
    logd = -np.abs(y[:, None] - x @ (beta + 0.3 * rng.standard_normal((d, 2))))
    return x, y, np.exp(logd[:, 0] - np.logaddexp(logd[:, 0], logd[:, 1]))


def irls_instances():
    rng = np.random.default_rng(29)
    small = [random_instance(rng, d=int(rng.integers(2, 4))) for _ in range(20)]
    return small + [mixture_instance(seed, 2000, d) for seed in range(3) for d in (2, 3)]


def test_irls_result_passes_the_plain_stop_test():
    # only a plain step ends the over-relaxed loop, so one more plain step
    # from its result lowers the objective by less than the tolerance
    for x, y, w in irls_instances():
        delta = em.irls_delta(y)
        beta, _ = lad.irls(x, y, w, delta)
        before = smoothed_objective(x, y, w, delta, beta)
        after = smoothed_objective(x, y, w, delta, plain_irls_step(x, y, w, delta, beta))
        assert before - after < lad.IRLS_TOLERANCE * before


def test_irls_objective_is_no_higher_than_the_plain_loops():
    # Both loops stop on the same test, so neither reaches the exact
    # optimum; on these problems the over-relaxed one ends within 1e-7 of
    # the plain loop's objective, relative (on 200 problems like them,
    # N = 300, the largest excess measured was 2.1e-8), and mostly below it.
    for x, y, w in irls_instances():
        delta = em.irls_delta(y)
        beta, _ = lad.irls(x, y, w, delta)
        plain, _ = plain_irls(x, y, w, delta)
        reached = smoothed_objective(x, y, w, delta, plain)
        assert smoothed_objective(x, y, w, delta, beta) <= reached * (1.0 + 1e-7)


def test_irls_takes_fewer_passes_than_the_plain_loop():
    # N = 20000, past EM's LP cap, with memberships as EM's M-step sees them
    passes, plain_passes = [], []
    for seed in range(3):
        for d in (2, 3):
            x, y, w = mixture_instance(seed, 20000, d)
            delta = em.irls_delta(y)
            passes.append(lad.irls(x, y, w, delta)[1])
            plain_passes.append(plain_irls(x, y, w, delta)[1])
    assert all(p < q for p, q in zip(passes, plain_passes))
    assert sum(passes) < 0.5 * sum(plain_passes)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(10, 1000),
    d=st.integers(2, 3),
    spread=st.sampled_from([None, 1e-1, 1e-3, 1e-6]),
)
def test_irls_agrees_on_either_layout(seed, n, d, spread):
    # over-relaxed passes amplify rounding, so the two layouts must compute alike;
    # with a spread, d = 3 and the third column is nearly the first minus the second
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3 if spread else d))
    if spread:
        x[:, 2] = x[:, 0] - x[:, 1] + spread * rng.standard_normal(n)
    y = x @ rng.standard_normal(x.shape[1]) + rng.laplace(size=n)
    w = rng.uniform(0.0, 1.0, n) ** 4
    delta = em.irls_delta(y)
    beta_c, passes_c = lad.irls(np.asfortranarray(x), y, w, delta)
    beta_r, passes_r = lad.irls(np.ascontiguousarray(x), y, w, delta)
    assert np.abs(beta_c - beta_r).max() <= 1e-12 * np.abs(beta_r).max()
    assert passes_c == passes_r


def singular_gate_cases():
    """(x, y, w) stacks on and around the singular-Gram boundary."""
    rng = np.random.default_rng(17)
    n = 40
    x = rng.standard_normal((n, 3))
    y = rng.standard_normal(n)
    w = rng.uniform(0.05, 1.0, (3, n))
    zero_row = w.copy()
    zero_row[1] = 0.0
    zero_column = x.copy()
    zero_column[:, 1] = 0.0
    collinear = x.copy()
    collinear[:, 2] = 2.0 * x[:, 0]
    duplicated = np.repeat(x[:, :1], 3, axis=1)
    one_sample = np.zeros((3, n))
    one_sample[:, 5] = 1.0  # a rank-one Gram matrix
    tiny_row = w.copy()
    tiny_row[2] = 1e-300
    return {
        "regular": (x, y, w),
        "zero-weight row": (x, y, zero_row),
        "zero covariate column": (zero_column, y, w),
        "zero covariates": (np.zeros_like(x), y, w),
        "collinear columns": (collinear, y, w),
        "duplicated column": (duplicated, y, w),
        "one sample weighted": (x, y, one_sample),
        "weights of 1e-300": (x, y, np.full_like(w, 1e-300)),
        "one row of 1e-300": (x, y, tiny_row),
        "1e-300 on a zero column": (zero_column, y, np.full_like(w, 1e-300)),
        "1e-300 on collinear columns": (collinear, y, np.full_like(w, 1e-300)),
    }


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("case", sorted(singular_gate_cases()))
def test_lu_gate_agrees_with_cholesky_gate(case, order):
    # one LU factorization per solve raises SingularGram exactly where the
    # Cholesky-gated reference does, and solves the rest to the same coefficients
    x, y, w = singular_gate_cases()[case]
    x = np.asarray(x, order=order)

    def outcome(solve):
        try:
            return solve(x, y, w)
        except SingularGram:
            return None

    got, expected = outcome(lad._weighted_lstsq), outcome(cholesky_gated_lstsq)
    assert (got is None) == (expected is None)
    if expected is not None:
        assert np.array_equal(got, expected)


def test_irls_residual_overflow_raises_non_finite():
    # irls_delta's spread is finite, but the residuals of y near 1e155
    # square past the largest float: a typed error, no RuntimeWarning
    x = np.random.default_rng(9).standard_normal((20, 2))
    y = 1e155 + 1e150 * np.random.default_rng(9).standard_normal(20)
    delta = em.irls_delta(y)
    cfg = SolverConfig(n_iterations=3, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="overflowed"):
            lad.irls(x, y, np.ones(20), delta)
        with pytest.raises(NonFiniteInput, match="overflowed"):
            em.fit_em(Dataset(x, y), 2, LAPLACE, cfg, lad_path=em.LAD_PATH_IRLS)


def test_overflowing_right_hand_side_raises_non_finite():
    # X^T W X is finite but X^T W y overflows: the right-hand side is formed
    # under the Gram product's error state, so a typed error, no RuntimeWarning
    x = abs(np.random.default_rng(3).standard_normal((200, 2))) + 0.5
    y = 1e307 * np.ones(200)
    cfg = SolverConfig(n_iterations=3, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="system overflowed"):
            lad._weighted_lstsq(x, y, np.ones((1, 200)))
        with pytest.raises(NonFiniteInput, match="system overflowed"):
            lad.irls(x, y, np.ones(200), delta=1e-6)
        # dual_lp solves in units where max|y| lies in [0.5, 1), so its start
        # and its LPs stay finite, and the fit completes
        trace = em.fit_em(Dataset(x, y), 2, LAPLACE, cfg, lad_path=em.LAD_PATH_LP)
        assert np.isfinite(trace.params.beta).all()


def far_scale_instance(seed, n, d):
    """A draw whose y and w have largest entries near 1, inside dual_lp's band.

    y is rounded to 6 decimals and the coefficients are bounded away from
    0, so y * 2^m and the fitted coefficients stay normal floats for m down
    to -1000, where every power-of-two scaling is exact.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    beta = rng.choice([-1.0, 1.0], d) * rng.uniform(0.5, 2.0, d)
    y = np.round(x @ beta + rng.laplace(size=n) / 4, 6)
    return x, y, rng.uniform(0.05, 1.0, n)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(17, 600),
    d=st.integers(2, 3),
    m=st.integers(-1000, 1000),
    k=st.integers(-1000, 1000),
    far=st.lists(st.integers(-1000, -16) | st.integers(16, 1000), min_size=4, max_size=4),
)
def test_dual_lp_is_invariant_under_power_of_two_scaling(seed, n, d, m, k, far):
    # y * 2^m and w * 2^k leave the LAD problem's minimizers b * 2^m: scaled
    # back, dual_lp's coefficients reach the unit-scale optimum, and two
    # scalings out of the band solve the same LPs, bit for bit
    x, y, w = far_scale_instance(seed, n, d)
    optimum = lad_objective(x, y, w, lad.dual_lp(x, y, w)[0])
    beta, _ = lad.dual_lp(x, y * 2.0**m, w * 2.0**k)
    assert abs(lad_objective(x, y, w, beta / 2.0**m) - optimum) <= 1e-12 * optimum
    m1, k1, m2, k2 = far
    first = lad.dual_lp(x, y * 2.0**m1, w * 2.0**k1)[0] / 2.0**m1
    second = lad.dual_lp(x, y * 2.0**m2, w * 2.0**k2)[0] / 2.0**m2
    assert np.array_equal(first, second)


@pytest.mark.parametrize(
    "y_scale, w_scale",
    [(1e-300, 1.0), (1e-16, 1.0), (1e-8, 1.0), (1e16, 1.0), (1e24, 1.0), (1e300, 1.0),
     (1.0, 1e-12), (1.0, 1e20), (1e-200, 1e250)],
)
def test_dual_lp_is_exact_far_from_unit_scale(y_scale, w_scale):
    # HiGHS's tolerances are absolute: handed any of these y or w as they
    # are, it misses the optimum (small scales) or fails the solve (large)
    rng = np.random.default_rng(3)
    x = abs(rng.standard_normal((200, 2))) + 0.5
    y = x @ [1.0, -1.0] + rng.laplace(size=200) / 10
    w = rng.uniform(0.05, 1.0, 200)
    optimum = lad_objective(x, y, w, lad.dual_lp(x, y, w)[0])
    beta, objective = lad.dual_lp(x, y * y_scale, w * w_scale)
    # y * y_scale rounds, so the scaled optimum is the unit one within rounding
    assert lad_objective(x, y, w, beta / y_scale) == pytest.approx(optimum, rel=1e-12)
    assert objective == pytest.approx(optimum * y_scale * w_scale, rel=1e-12)


def test_dual_lp_objective_past_the_largest_float_is_inf():
    # the coefficients are finite, the weighted sum of |r| is not: inf, with
    # no RuntimeWarning (the tests' warning gate)
    rng = np.random.default_rng(3)
    x = abs(rng.standard_normal((200, 2))) + 0.5
    y = 1e307 * (x @ [1.0, -1.0] + rng.laplace(size=200))
    beta, objective = lad.dual_lp(x, y, np.ones(200))
    assert np.isfinite(beta).all() and objective == math.inf


@pytest.mark.parametrize("d", [1, 2])
def test_dual_lp_without_samples_raises_insufficient_data(d):
    with pytest.raises(InsufficientData, match="at least one sample"):
        lad.dual_lp(np.empty((0, d)), np.empty(0), np.empty(0))


def test_ridge_gram_stack_matches_each_matrix():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 3, 3))
    stack = a @ a.transpose(0, 2, 1)
    ridged = lad.ridge_gram(stack)
    for gram, expected in zip(stack, ridged):
        assert np.array_equal(lad.ridge_gram(gram), expected)
