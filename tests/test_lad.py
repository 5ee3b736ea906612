import numpy as np
import pytest

from helpers import simplex
from mlrfit import em, lad, synth
from mlrfit.errors import SolverStall
from mlrfit.model import NoiseKind, NoiseModel, SolverConfig

LAPLACE = NoiseModel(NoiseKind.LAPLACIAN, 1.0)


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
    import scipy.sparse as sp
    from scipy.optimize import linprog

    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y, w = random_instance(rng)
        n, d = x.shape
        beta, objective = simplex(x, y, w)
        ident = sp.identity(n, format="csr")
        xs = sp.csr_matrix(x)
        a_ub = sp.vstack([sp.hstack([-xs, -ident]), sp.hstack([xs, -ident])])
        res = linprog(
            np.concatenate([np.zeros(d), w]),
            A_ub=a_ub,
            b_ub=np.concatenate([-y, y]),
            bounds=[(None, None)] * d + [(0, None)] * n,
            method="highs",
        )
        assert res.status == 0
        assert objective == pytest.approx(res.fun, rel=1e-9, abs=1e-9)
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


def assert_routes_identical(x, y, w):
    beta, objective = lad.dual_lp(x, y, w)
    beta_ref, objective_ref = lad._dual_lp_linprog(x, y, w)
    assert np.array_equal(beta, beta_ref)
    assert objective == objective_ref


def test_dual_lp_matches_linprog_route_on_em_calls(monkeypatch):
    # every LP one EM-LP fit hands to dual_lp: 20 iterations x 3 components
    data = synth.generate(3, 2, 2000, LAPLACE, seed=21)
    calls = []

    def capture(x, y, w):
        calls.append((x, y, w.copy()))
        return lad._dual_lp_linprog(x, y, w)

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
    monkeypatch.setattr(lad, "dual_lp", lad._dual_lp_linprog)
    reference = em.fit_em(data, 3, LAPLACE, cfg, lad_path="lp")
    assert np.array_equal(direct.params.beta, reference.params.beta)
    assert np.array_equal(direct.log_liks, reference.log_liks)


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
    solution = lad.solve_spd(x.T @ x, x.T @ y)
    assert np.isfinite(solution).all()
