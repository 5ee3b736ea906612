"""Invariance properties every solver route holds: row order, reruns, odd shapes.

The routes are EM under Gaussian noise (closed-form M-step), EM under
Laplacian noise on its exact LP and on IRLS, and ADMM under either noise.
"""

import math

import numpy as np
import pytest

from mlrfit import admm, em, synth
from mlrfit.model import Dataset, NoiseKind, NoiseModel, SolverConfig

GAUSS = NoiseModel(NoiseKind.GAUSSIAN, 1.0)
LAPLACE = NoiseModel(NoiseKind.LAPLACIAN, 1.0)

ROUTES = {
    "em-gaussian": (GAUSS, lambda *a: em.fit_em(*a)),
    "em-lp": (LAPLACE, lambda *a: em.fit_em(*a, lad_path="lp")),
    "em-irls": (LAPLACE, lambda *a: em.fit_em(*a, lad_path="irls")),
    "admm-gaussian": (GAUSS, admm.fit_admm),
    "admm-laplacian": (LAPLACE, admm.fit_admm),
}
# A row permutation reorders every sum over the samples, so β may move by
# rounding: at most this much relative to the largest |β|, over seeds 1-3
# (K = 3, d = 2, N = 300, 30 iterations, three permutations each). Measured:
# 0 on EM-LP, 9.3e-16 on Gaussian EM, 7.0e-15 on EM-IRLS, 2.3e-14 and
# 4.5e-14 on ADMM under Gaussian and Laplacian noise
PERMUTATION_TOLERANCE = 1e-13


def fit_route(route, data, k, n_iterations=30, seed=3):
    nm, fit = ROUTES[route]
    return fit(data, k, nm, SolverConfig(n_iterations=n_iterations, seed=seed))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_row_permutation_moves_beta_by_rounding_only(route, seed):
    data = synth.generate(3, 2, 300, ROUTES[route][0], seed)
    beta = fit_route(route, data, 3).params.beta
    rng = np.random.default_rng(seed)
    for _ in range(3):
        order = rng.permutation(data.n_samples)
        permuted = Dataset(x=data.x[order], y=data.y[order])
        moved = fit_route(route, permuted, 3).params.beta
        assert np.abs(moved - beta).max() <= PERMUTATION_TOLERANCE * np.abs(beta).max()


@pytest.mark.parametrize("route", ROUTES)
def test_rerun_is_bit_identical(route):
    data = synth.generate(3, 2, 300, ROUTES[route][0], 5)
    first, second = fit_route(route, data, 3), fit_route(route, data, 3)
    assert np.array_equal(first.params.beta, second.params.beta)
    assert np.array_equal(first.log_liks, second.log_liks)
    if first.primal_residuals is not None:
        assert np.array_equal(first.primal_residuals, second.primal_residuals)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("k, d, n", [(6, 2, 300), (3, 3, 4), (3, 2, 2), (2, 3, 1)])
def test_surplus_components_and_tiny_samples_end_with_a_finite_likelihood(route, k, d, n):
    """K = 6 on 2-component data, and N at or below d, neither crash nor
    end in a non-finite log-likelihood."""
    data = synth.generate(2 if k == 6 else k, d, n, ROUTES[route][0], 7)
    trace = fit_route(route, data, k, n_iterations=20)
    assert math.isfinite(trace.log_liks[-1])
    assert np.isfinite(trace.params.beta).all()
