import inspect
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    allocating_irls,
    brute_force_weighted_median,
    cholesky_gated_lstsq,
    ipm_lad,
    simplex,
    stable_solve_1d,
    stable_weighted_median,
)
import mlrfit
from mlrfit import em, lad, synth
from mlrfit.errors import IterationLimit, MlrError, NonFiniteInput, SingularGram, SolverStall
from mlrfit.model import Dataset, NoiseKind, NoiseModel, SolverConfig

LAPLACE = NoiseModel(NoiseKind.LAPLACIAN, 1.0)
# dual_lp as imported: some tests patch the module's name, and the reference
# route must not call the patch back
DUAL_LP = lad.dual_lp


def dual_lp_linprog(x, y, w):
    """``dual_lp`` with every working-set LP through ``linprog``: the reference."""
    backend = lad._solve_dual
    lad._solve_dual = lad._linprog_dual
    try:
        return DUAL_LP(x, y, w)
    finally:
        lad._solve_dual = backend


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

    Records the LPs of whichever backend ``dual_lp`` hands them to.
    """
    solves = []

    def spy(x, y, w, rhs, solve=lad._solve_dual):
        beta = solve(x, y, w, rhs)
        solves.append((y.size, bool(np.any(rhs)), beta is not None))
        return beta

    monkeypatch.setattr(lad, "_solve_dual", spy)
    return solves


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
        assert_routes_identical(x, y, w)
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


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(17, 3000),
    d=st.integers(2, 3),
    zero_share=st.sampled_from([0.0, 0.2]),
)
def test_routes_identical_on_working_sets(seed, n, d, zero_share):
    # N > 16: every call solves an LP on a working set with a non-zero right-hand side
    assert_routes_identical(*drawn_instance(seed, n, d, zero_share))


def assert_routes_identical(x, y, w):
    beta, objective = lad.dual_lp(x, y, w)
    beta_ref, objective_ref = dual_lp_linprog(x, y, w)
    assert np.array_equal(beta, beta_ref)
    assert objective == objective_ref


def test_dual_lp_matches_linprog_route_on_em_calls(monkeypatch):
    # every LP one EM-LP fit hands to dual_lp: 20 iterations x 3 components
    data = synth.generate(3, 2, 2000, LAPLACE, seed=21)
    calls = []

    def capture(x, y, w):
        calls.append((x, y, w.copy()))
        return dual_lp_linprog(x, y, w)

    monkeypatch.setattr(lad, "dual_lp", capture)
    em.fit_em(data, 3, LAPLACE, SolverConfig(n_iterations=20, seed=22), lad_path="lp")
    monkeypatch.undo()
    assert len(calls) == 60
    for x, y, w in calls:
        assert_routes_identical(x, y, w)


@pytest.mark.parametrize("d", [1, 3])
def test_dual_lp_matches_linprog_route_on_edge_inputs(d):
    rng = np.random.default_rng(6 + d)
    for _ in range(10):
        x, y, w = random_instance(rng, d=d)
        assert_routes_identical(x, y, w)
        x[rng.random(x.shape) < 0.3] = 0.0  # exact zeros leave the sparse matrix
        assert_routes_identical(x, y, w)
        w[rng.random(w.size) < 0.3] = 0.0
        assert_routes_identical(x, y, w)


def test_em_lp_trajectory_identical_through_linprog_route(monkeypatch):
    data = synth.generate(3, 2, 1000, LAPLACE, seed=23)
    cfg = SolverConfig(n_iterations=30, seed=24)
    direct = em.fit_em(data, 3, LAPLACE, cfg, lad_path="lp")
    monkeypatch.setattr(lad, "_solve_dual", lad._linprog_dual)
    reference = em.fit_em(data, 3, LAPLACE, cfg, lad_path="lp")
    assert np.array_equal(direct.params.beta, reference.params.beta)
    assert np.array_equal(direct.log_liks, reference.log_liks)


def solver_reuse_calls():
    """(x, y, w, WORKING_SET_SCALE) for a mixed sequence of dual_lp calls.

    Random instances of every d and of N from 3 to 3000, an infeasible
    first working set, a failed least-squares start and duplicated rows
    with ties, in a seeded shuffled order.
    """
    rng = np.random.default_rng(31)
    calls = [(*random_instance(rng, n=n, d=d), lad.WORKING_SET_SCALE)
             for n in (3, 16, 40, 300, 3000) for d in (1, 2, 3)]
    calls.append((*infeasible_first_set_instance(), 1.0))
    calls.append((*no_start_instance(), lad.WORKING_SET_SCALE))
    ties = np.random.default_rng(len("duplicated rows and ties"))
    calls += [(*edge_instance("duplicated rows and ties", ties), lad.WORKING_SET_SCALE)
              for _ in range(4)]
    return [calls[i] for i in rng.permutation(len(calls))]


def solve_each(calls, monkeypatch, solve):
    results = []
    for x, y, w, scale in calls:
        monkeypatch.setattr(lad, "WORKING_SET_SCALE", scale)
        results.append(solve(x, y, w))
    return results


def assert_same_results(results, reference):
    assert len(results) == len(reference)
    for (beta, objective), (beta_ref, objective_ref) in zip(results, reference):
        assert np.array_equal(beta, beta_ref)
        assert objective == objective_ref


def test_reused_solver_matches_stateless_route_on_mixed_calls(monkeypatch):
    calls = solver_reuse_calls()
    reference = solve_each(calls, monkeypatch, dual_lp_linprog)
    assert_same_results(solve_each(calls, monkeypatch, lad.dual_lp), reference)
    # again, on a solver that has already seen every one of them
    assert_same_results(solve_each(calls, monkeypatch, lad.dual_lp), reference)


# Imports mlrfit.lad as it imports on scipy < 1.15, where scipy.optimize has
# no _highspy module, solves the calls saved in argv[1] and saves the results
# to argv[2]. scipy.optimize is imported first: linprog itself runs on _highspy.
WITHOUT_HIGHSPY = """
import builtins, inspect, sys
import numpy as np
import scipy.optimize

real_import = builtins.__import__

def import_without_highspy(name, *args, **kwargs):
    if name == "scipy.optimize._highspy":
        raise ImportError("no scipy.optimize._highspy")
    return real_import(name, *args, **kwargs)

builtins.__import__ = import_without_highspy
from mlrfit import lad
builtins.__import__ = real_import

assert lad._highs is None
assert lad._solve_dual is lad._linprog_dual
assert inspect.isfunction(lad.dual_lp) and lad.dual_lp.__module__ == "mlrfit.lad"
calls = np.load(sys.argv[1])
results = {}
for i, scale in enumerate(calls["scales"]):
    lad.WORKING_SET_SCALE = float(scale)
    results[f"beta{i}"], results[f"objective{i}"] = lad.dual_lp(
        calls[f"x{i}"], calls[f"y{i}"], calls[f"w{i}"])
np.savez(sys.argv[2], **results)
"""


def test_linprog_backend_bound_when_highspy_is_missing(tmp_path, monkeypatch):
    # a patch or partial in place of the function would hide dual_lp from
    # tracers that wrap the module's plain functions
    assert inspect.isfunction(lad.dual_lp) and lad.dual_lp.__module__ == "mlrfit.lad"
    calls = solver_reuse_calls()
    assert {x.shape[1] for x, _, _, _ in calls} == {1, 2, 3}
    arrays = {"scales": np.array([scale for _, _, _, scale in calls])}
    for i, (x, y, w, _) in enumerate(calls):
        arrays.update({f"x{i}": x, f"y{i}": y, f"w{i}": w})
    np.savez(tmp_path / "calls.npz", **arrays)
    # the package under test comes first on the child's path
    src = os.path.dirname(os.path.dirname(mlrfit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", WITHOUT_HIGHSPY, str(tmp_path / "calls.npz"),
         str(tmp_path / "results.npz")],
        check=True, env={**os.environ, "PYTHONPATH": path},
    )
    with np.load(tmp_path / "results.npz") as saved:
        fallback = [(saved[f"beta{i}"], float(saved[f"objective{i}"]))
                    for i in range(len(calls))]
    assert_same_results(fallback, solve_each(calls, monkeypatch, DUAL_LP))


@pytest.mark.skipif(lad._highs is None, reason="no direct HiGHS route")
def test_solve_raising_midway_leaves_next_call_unaffected(monkeypatch):
    # the infeasible first set: the second LP of the call reports the limit
    # and leaves its model, basis and solution on the thread's solver
    x, y, w = infeasible_first_set_instance()
    monkeypatch.setattr(lad, "WORKING_SET_SCALE", 1.0)
    solver = lad._thread_solver()

    class LimitOnSecondRun:
        runs = 0

        def __getattr__(self, name):
            return getattr(solver, name)

        def run(self):
            self.runs += 1
            return solver.run()

        def getModelStatus(self):
            if self.runs < 2:
                return solver.getModelStatus()
            return lad._highs.HighsModelStatus.kIterationLimit

    proxy = LimitOnSecondRun()
    with monkeypatch.context() as patch:
        patch.setattr(lad, "_thread_solver", lambda: proxy)
        with pytest.raises(IterationLimit):
            lad.dual_lp(x, y, w)
    assert proxy.runs == 2
    assert_same_results([lad.dual_lp(x, y, w)], [dual_lp_linprog(x, y, w)])
    calls = solver_reuse_calls()
    assert_same_results(
        solve_each(calls, monkeypatch, lad.dual_lp),
        solve_each(calls, monkeypatch, dual_lp_linprog),
    )


def test_dual_lp_from_four_threads_equals_serial():
    # more threads than cores, switching often: a solver shared between
    # threads would mix their LPs
    calls = [call[:3] for call in solver_reuse_calls() if call[3] == lad.WORKING_SET_SCALE] * 3
    serial = [lad.dual_lp(*call) for call in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda call: lad.dual_lp(*call), calls, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert_same_results(threaded, serial)


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
        # dual_lp falls back from the failed start to the LP on all samples,
        # which the LP solver refuses, as in test_em's overflowing Gram case
        with pytest.raises(MlrError):
            em.fit_em(Dataset(x, y), 2, LAPLACE, cfg, lad_path=em.LAD_PATH_LP)


def test_ridge_gram_stack_matches_each_matrix():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 3, 3))
    stack = a @ a.transpose(0, 2, 1)
    ridged = lad.ridge_gram(stack)
    for gram, expected in zip(stack, ridged):
        assert np.array_equal(lad.ridge_gram(gram), expected)
