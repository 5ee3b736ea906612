import math
import time
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    lam_form_admm,
    lam_form_beta_update,
    lam_form_z_update_gaussian,
    lam_form_z_update_laplacian,
    minimize_lhat,
    run_fresh,
    separated_seed,
    surrogate_value,
    three_branch_z_update_laplacian,
)
from mlrfit import admm, em, fit, scoring, synth
from mlrfit.errors import NonFiniteInput, SingularGram
from mlrfit.model import (
    Dataset,
    MlrParams,
    NoiseKind,
    NoiseModel,
    SolverConfig,
    initial_params,
)

GAUSS = NoiseModel(NoiseKind.GAUSSIAN, 1.0)
LAPLACE = NoiseModel(NoiseKind.LAPLACIAN, 1.0)


class Iterate(NamedTuple):
    """ADMM variables at one point: fitted values X b, Z, unscaled duals, penalty (K x N).

    The steps take the scaled duals u = lam / rho; the surrogate and the
    numerical oracle are written in lam.
    """

    fits: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    rho: float


def random_state(rng, n=6, d=2, k=2, rho=None, consistent_z=False):
    params = MlrParams(rng.standard_normal((d, k)))
    data = Dataset(x=rng.standard_normal((n, d)), y=rng.standard_normal(n) * 2)
    raw = rng.uniform(0.01, 1.0, (n, k))
    raw /= raw.sum(axis=1, keepdims=True)
    fits = (data.x @ params.beta).T
    z = fits if consistent_z else rng.standard_normal((n, k)).T
    state = Iterate(
        fits=fits,
        z=z,
        lam=rng.normal(0.0, 2.0, (n, k)).T,
        rho=rho or float(rng.uniform(0.2, 5.0)),
    )
    return state, raw.T, data


class TestZUpdateGaussian:
    def test_zero_weight_zero_dual_returns_fit(self):
        rng = np.random.default_rng(0)
        params = MlrParams(rng.standard_normal((2, 2)))
        data = Dataset(x=rng.standard_normal((4, 2)), y=rng.standard_normal(4))
        fits = params.beta.T @ data.x.T
        w = np.vstack([np.zeros(4), np.ones(4)])
        z = admm.z_update_gaussian(fits, np.zeros((2, 4)), 1.7, w, data.y, GAUSS)
        # the weightless row collapses to the pure quadratic center
        # (up to the one rounding of (s2 rho f) / (s2 rho))
        assert np.allclose(z[0], fits[0], rtol=1e-15, atol=0)
        expected = (data.y + GAUSS.sigma**2 * 1.7 * fits[1]) / (
            1.0 + GAUSS.sigma**2 * 1.7
        )
        assert np.allclose(z[1], expected, atol=1e-14)

    def test_consensus_fixed_point(self):
        x = np.array([[1.0], [2.0]])
        beta = np.array([[1.5]])
        y = (x @ beta)[:, 0]
        z = admm.z_update_gaussian(beta.T @ x.T, np.zeros((1, 2)), 0.9, np.ones((1, 2)), y, GAUSS)
        assert np.allclose(z[0], y, atol=1e-14)

    def test_matches_numerical_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            sigma = float(rng.uniform(0.5, 2.0))
            nm = NoiseModel(NoiseKind.GAUSSIAN, sigma)
            state, w, data = random_state(rng)
            u = state.lam / state.rho
            z = admm.z_update_gaussian(state.fits, u, state.rho, w, data.y, nm)
            i, k = rng.integers(0, data.n_samples), rng.integers(0, 2)
            expected = minimize_lhat(
                w[k, i], state.lam[k, i], state.rho, state.fits[k, i], data.y[i], nm
            )
            assert z[k, i] == pytest.approx(expected, abs=1e-8)


    def test_equals_the_formula_as_one_expression(self):
        """Computed in its output, the update keeps the formula's rounding."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            nm = NoiseModel(NoiseKind.GAUSSIAN, float(rng.uniform(0.1, 10.0)))
            state, w, data = random_state(rng, n=300, k=3)
            fits, _, lam, rho = state
            u = lam / rho
            z = admm.z_update_gaussian(fits, u, rho, w, data.y, nm)
            s2rho = nm.sigma * nm.sigma * rho
            expected = (data.y * w + s2rho * (fits + u)) / (w + s2rho)
            assert np.array_equal(z, expected)

    def test_matches_the_unscaled_form(self):
        """u = lam / rho gives lam's update up to rounding."""
        rng = np.random.default_rng(13)
        for _ in range(20):
            nm = NoiseModel(NoiseKind.GAUSSIAN, float(rng.uniform(0.1, 10.0)))
            state, w, data = random_state(rng, n=300, k=3)
            fits, _, lam, rho = state
            z = admm.z_update_gaussian(fits, lam / rho, rho, w, data.y, nm)
            expected = lam_form_z_update_gaussian(fits, lam, rho, w, data.y, nm)
            size = np.abs(fits) + np.abs(lam) / rho + np.abs(data.y)
            assert (np.abs(z - expected) <= 8 * np.spacing(size)).all()


class TestZUpdateLaplacian:
    def test_zero_weight_zero_dual_is_quadratic_minimum(self):
        x = np.array([[1.0], [1.0]])
        y = np.array([5.0, -5.0])  # fits sit below y[0] and above y[1]
        beta = np.array([[1.0, 0.0]])
        fits = beta.T @ x.T
        w = np.vstack([np.zeros(2), np.ones(2)])
        z = admm.z_update_laplacian(fits, np.zeros((2, 2)), 2.0, w, y, LAPLACE)
        assert np.array_equal(z[0], fits[0])

    def test_kink_fixed_point(self):
        x = np.array([[2.0]])
        beta = np.array([[0.75]])
        y = (x @ beta)[:, 0]
        z = admm.z_update_laplacian(beta.T @ x.T, np.zeros((1, 1)), 1.3, np.ones((1, 1)), y, LAPLACE)
        assert z[0, 0] == y[0]

    def test_matches_numerical_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            sigma = float(rng.uniform(0.5, 2.0))
            nm = NoiseModel(NoiseKind.LAPLACIAN, sigma)
            state, w, data = random_state(rng)
            u = state.lam / state.rho
            z = admm.z_update_laplacian(state.fits, u, state.rho, w, data.y, nm)
            i, k = rng.integers(0, data.n_samples), rng.integers(0, 2)
            expected = minimize_lhat(
                w[k, i], state.lam[k, i], state.rho, state.fits[k, i], data.y[i], nm
            )
            assert z[k, i] == pytest.approx(expected, abs=1e-8)

    def test_closed_form_regimes_exactly(self):
        nm = NoiseModel(NoiseKind.LAPLACIAN, math.sqrt(2.0))
        assert nm.b == 1.0  # zbar = f + (lam + w) / rho, ztil = f - (w - lam) / rho
        rho = 2.0
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
        # component 0 has unit mass; component 1 has none
        fits = np.vstack([[-3.0, 3.0, 0.25, 0.5, 1.5], [-3.0, 3.0, 0.25, 0.5, 1.5]])
        lam = np.vstack([[1.0, 0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.5, 1.0, -0.5]])
        w = np.vstack([np.ones(5), np.zeros(5)])
        z = admm.z_update_laplacian(fits, lam / rho, rho, w, y, nm)
        # below the kink (zbar = -2), above it (ztil = 2.5), between the
        # thresholds (zbar = 0.75, ztil = -0.25), zbar on y, ztil on y
        assert z[0].tolist() == [-2.0, 2.5, 0.0, 1.0, 1.0]
        assert np.array_equal(z[1], fits[1] + lam[1] / rho)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-6.0, 8.0),
        log_sigma=st.floats(-2.0, 2.0),
        log_rho=st.floats(-2.0, 2.0),
    )
    def test_within_ulps_of_three_branch_form(self, seed, log_scale, log_sigma, log_rho):
        """The clip against the case analysis, in floating point.

        f and lam / rho have magnitude 10**log_scale, and each y is drawn
        at that magnitude apart from the interval, inside or near it, or
        on one of its ends, c -+ w / (b rho); a tenth of the memberships
        are 0. Every entry is within 4 ulp of
        |f| + |lam| / rho + w / (b rho) + |y| of the reference, and exactly
        y_i wherever the reference returns y_i.
        """
        rng = np.random.default_rng(seed)
        nm = NoiseModel(NoiseKind.LAPLACIAN, 10.0**log_sigma)
        rho, scale, shape = 10.0**log_rho, 10.0**log_scale, (3, 50)
        fits = scale * rng.standard_normal(shape)
        lam = rho * scale * rng.standard_normal(shape)
        w = np.where(rng.random(shape) < 0.1, 0.0, rng.random(shape))
        centre, reach = fits + lam / rho, w / (nm.b * rho)
        mode = rng.integers(0, 3, shape)
        y = np.select(
            [mode == 0, mode == 1],
            [scale * rng.standard_normal(shape),
             centre + reach * rng.uniform(-2.0, 2.0, shape)],
            centre + reach * rng.choice([-1.0, 1.0], shape),
        )
        z = admm.z_update_laplacian(fits, lam / rho, rho, w, y, nm)
        expected = three_branch_z_update_laplacian(fits, lam, rho, w, y, nm)
        size = np.abs(fits) + np.abs(lam) / rho + reach + np.abs(y)
        assert (np.abs(z - expected) <= 4 * np.spacing(size)).all()
        kink = expected == y
        assert np.array_equal(z[kink], y[kink])

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        b_exp=st.integers(-6, 6),
        rho_exp=st.integers(-6, 6),
    )
    def test_equals_three_branch_form_on_exact_ties(self, seed, b_exp, rho_exp):
        """Dyadic inputs, where both forms round nothing, so ties are exact.

        b = 2**b_exp and rho = 2**rho_exp (sigma = b sqrt 2, so sigma and
        rho lie in [1e-2, 1e2]); f, lam and w are multiples of 2**-8. Each y
        is c, c - w / (b rho), c + w / (b rho) or an unrelated multiple of
        2**-8, and the two forms agree exactly, ties returning y_i.
        """
        rng = np.random.default_rng(seed)
        nm = NoiseModel(NoiseKind.LAPLACIAN, 2.0**b_exp * math.sqrt(2.0))
        assert nm.b == 2.0**b_exp
        rho, shape = 2.0**rho_exp, (3, 40)
        fits = rng.integers(-2**18, 2**18, shape) / 2**8
        lam = rng.integers(-2**18, 2**18, shape) / 2**8
        w = rng.integers(0, 2**8 + 1, shape) / 2**8
        centre, reach = fits + lam / rho, w / (nm.b * rho)
        ends = [centre, centre - reach, centre + reach, rng.integers(-2**18, 2**18, shape) / 2**8]
        y = np.choose(rng.integers(0, 4, shape), ends)
        z = admm.z_update_laplacian(fits, lam / rho, rho, w, y, nm)
        expected = three_branch_z_update_laplacian(fits, lam, rho, w, y, nm)
        assert np.array_equal(z, expected)
        tie = np.abs(y - centre) == reach
        assert tie.any() and np.array_equal(z[tie], y[tie])

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_clip_on_fresh_arrays(self, seed):
        # computed in three arrays, the clip of y to c -+ w / (b rho),
        # c = f + u, is the one its allocating form gives, bit for bit, and
        # lam's update up to the rounding of u = lam / rho
        rng = np.random.default_rng(seed)
        nm = NoiseModel(NoiseKind.LAPLACIAN, rng.uniform(0.1, 3.0))
        rho, shape = rng.uniform(0.1, 10.0), (3, 500)
        fits = rng.standard_normal(shape) * 3.0
        lam = rng.standard_normal(shape)
        w = rng.dirichlet(np.ones(3), 500).T
        y = rng.standard_normal(500) * 3.0
        u = lam / rho
        centre, reach = fits + u, w / (nm.b * rho)
        expected = np.clip(y, centre - reach, centre + reach)
        z = admm.z_update_laplacian(fits, u, rho, w, y, nm)
        assert np.array_equal(z, expected)
        unscaled = lam_form_z_update_laplacian(fits, lam, rho, w, y, nm)
        assert np.array_equal(unscaled, expected)  # c = lam / rho + f, the same sum


class TestBetaAndDualUpdates:
    def test_consistent_system_recovers_coefficients(self):
        rng = np.random.default_rng(4)
        data = Dataset(x=rng.standard_normal((40, 3)), y=rng.standard_normal(40))
        beta0 = rng.standard_normal((3, 2))
        z = (data.x @ beta0).T
        fitted = admm.beta_update(z, np.zeros_like(z), admm.gram_projection(data))
        assert np.allclose(fitted, beta0, atol=1e-10)

    def test_scalar_normal_equation(self):
        rng = np.random.default_rng(5)
        data = Dataset(x=rng.standard_normal((30, 1)), y=rng.standard_normal(30))
        z = rng.standard_normal((30, 1)).T
        u = rng.standard_normal((30, 1)).T
        fitted = admm.beta_update(z, u, admm.gram_projection(data))
        x = data.x[:, 0]
        expected = np.sum(x * (z[0] - u[0])) / np.sum(x * x)
        assert fitted[0, 0] == pytest.approx(expected, rel=1e-9)

    def test_matches_independent_solve(self):
        rng = np.random.default_rng(6)
        data = Dataset(x=rng.standard_normal((50, 3)), y=rng.standard_normal(50))
        z = rng.standard_normal((50, 2)).T
        lam = rng.standard_normal((50, 2)).T
        rho = 1.7
        from mlrfit import lad

        proj = admm.gram_projection(data)
        fitted = admm.beta_update(z, lam / rho, proj)
        gram = lad.ridge_gram(data.x.T @ data.x)
        expected = np.linalg.solve(gram, data.x.T @ (z - lam / rho).T)
        assert np.allclose(fitted, expected, atol=1e-10)
        # lam / rho is the unscaled refit's own first step, so it is the same bit for bit
        assert np.array_equal(fitted, lam_form_beta_update(z, lam, rho, proj))

    def test_non_finite_right_hand_side_raises(self, monkeypatch):
        # the refit is a bare matmul; the fit loop's check of each iterate is the gate
        rng = np.random.default_rng(8)
        data = Dataset(x=rng.standard_normal((20, 2)), y=rng.standard_normal(20))
        z = rng.standard_normal((2, 20))
        z[1, 3] = np.nan
        assert np.isnan(admm.beta_update(z, np.zeros_like(z), admm.gram_projection(data))).any()
        monkeypatch.setattr(admm, "z_update_gaussian", lambda *args: z)
        with pytest.raises(NonFiniteInput, match="iterate 1 "):
            admm.fit_admm(data, 2, GAUSS, SolverConfig(n_iterations=3, seed=8))

    def test_beta_update_stationarity(self):
        rng = np.random.default_rng(7)
        data = Dataset(x=rng.standard_normal((80, 3)), y=rng.standard_normal(80))
        z = rng.standard_normal((80, 2)).T
        u = rng.standard_normal((80, 2)).T
        fitted = admm.beta_update(z, u, admm.gram_projection(data))
        residual = data.x.T @ data.x @ fitted - data.x.T @ (z - u).T
        assert np.linalg.norm(residual) <= 1e-8 * (1.0 + np.linalg.norm(z))

    @pytest.mark.parametrize("nm", [GAUSS, LAPLACE], ids=["gaussian", "laplacian"])
    def test_hand_composed_iterations_match_fit(self, nm):
        """E-step, Z-update, coefficient solve and scaled dual step, composed by hand."""
        data = synth.generate(3, 2, 300, nm, seed=31)
        cfg = SolverConfig(n_iterations=3, seed=31)
        trace = admm.fit_admm(data, 3, nm, cfg)
        beta = initial_params(cfg, 2, 3).beta
        proj = admm.gram_projection(data)
        u = np.zeros((3, data.n_samples))
        log_liks, residuals = [], []
        for _ in range(3):
            fits = beta.T @ data.x.T
            w = em.e_step(fits, data.y, nm)
            if nm is GAUSS:
                z = admm.z_update_gaussian(fits, u, cfg.rho, w, data.y, nm)
            else:
                z = admm.z_update_laplacian(fits, u, cfg.rho, w, data.y, nm)
            beta = admm.beta_update(z, u, proj)
            gap = beta.T @ data.x.T - z
            u = u + gap
            log_liks.append(scoring.log_likelihood(MlrParams(beta), data, nm))
            residuals.append(math.sqrt(np.einsum("kn,kn->", gap, gap)))
        assert np.array_equal(trace.params.beta, beta)
        assert np.array_equal(trace.log_liks, log_liks)
        assert np.array_equal(trace.primal_residuals, residuals)


def recorded_iterates(data, k, nm, cfg, monkeypatch):
    """``admm.fit_admm``'s trace and every iterate's d x K coefficients, stacked."""
    betas = []
    run = fit.run

    def recording_run(steps, *args, **kwargs):
        def recorded(*start):
            iterates = steps(*start)
            it = next(iterates)
            while True:
                betas.append(it.beta)
                it = iterates.send((yield it))

        return run(recorded, *args, **kwargs)

    monkeypatch.setattr(fit, "run", recording_run)
    trace = admm.fit_admm(data, k, nm, cfg)
    monkeypatch.setattr(fit, "run", run)
    return trace, np.array(betas)


# The scaled duals' drift from the unscaled oracle, relative to the largest
# coefficient of each iterate and to |ll|: at most 1.3e-15 and 3.8e-16 on
# these 18 cells; it grows with the iterations (1.8e-13 in beta after 500).
BETA_DRIFT = 1e-12
LL_DRIFT = 1e-13


class TestScaledDualsAndWorkspace:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("nm", [GAUSS, LAPLACE], ids=["gaussian", "laplacian"])
    def test_tracks_the_unscaled_oracle(self, nm, k, d, monkeypatch):
        """Keeping u = lam / rho moves the trajectory by rounding only."""
        data = synth.generate(k, d, 300, nm, seed=10 * k + d)
        cfg = SolverConfig(n_iterations=60, seed=k + d)
        trace, betas = recorded_iterates(data, k, nm, cfg, monkeypatch)
        oracle_betas, oracle_lls = lam_form_admm(data, k, nm, cfg)
        assert betas.shape == oracle_betas.shape == (60, d, k)
        scale = np.abs(oracle_betas).max(axis=(1, 2), keepdims=True)
        assert (np.abs(betas - oracle_betas) <= BETA_DRIFT * scale).all()
        assert (np.abs(trace.log_liks - oracle_lls) <= LL_DRIFT * np.abs(oracle_lls)).all()
        assert np.array_equal(trace.params.beta, betas[-1])

    @pytest.mark.parametrize("nm", [GAUSS, LAPLACE], ids=["gaussian", "laplacian"])
    def test_steps_write_into_the_buffers_given(self, nm):
        """Each step computes in the buffers it is handed, every entry of
        them, and returns what it returns without them, bit for bit."""
        rng = np.random.default_rng(14)
        state, w, data = random_state(rng, n=200, k=3)
        u = state.lam / state.rho
        args = (state.fits, u, state.rho, w, data.y, nm)
        buffers = np.full((4, *state.fits.shape), np.nan)
        if nm is GAUSS:
            given = tuple(buffers[:2])
            z = admm.z_update_gaussian(*args, *given)
            expected = admm.z_update_gaussian(*args)
        else:
            given = tuple(buffers[:3])
            z = admm.z_update_laplacian(*args, *given)
            expected = admm.z_update_laplacian(*args)
        assert z is given[0] and np.array_equal(z, expected)
        for buffer in given:
            assert not np.isnan(buffer).any()
        proj = admm.gram_projection(data)
        work = buffers[3]
        beta = admm.beta_update(state.z, u, proj, work)
        assert np.array_equal(work, state.z - u)  # Z - u, written in place
        assert np.array_equal(beta, admm.beta_update(state.z, u, proj))
        for arg in (state.fits, u, w, state.z):
            assert not np.shares_memory(arg, buffers)  # the inputs are read, not written

    @pytest.mark.parametrize("nm", [GAUSS, LAPLACE], ids=["gaussian", "laplacian"])
    def test_one_workspace_per_fit(self, nm, monkeypatch):
        """Every iteration's steps compute in the same buffers: the duals, Z,
        the Z-update's scratch and the refit's work array, apart from each
        other and from the iteration's fresh fits and memberships."""
        z_attr = "z_update_gaussian" if nm is GAUSS else "z_update_laplacian"
        z_update, beta_update = getattr(admm, z_attr), admm.beta_update
        z_calls, beta_calls = [], []

        def z_spy(*args):
            z_calls.append(args)
            return z_update(*args)

        def beta_spy(*args):
            beta_calls.append(args)
            return beta_update(*args)

        monkeypatch.setattr(admm, z_attr, z_spy)
        monkeypatch.setattr(admm, "beta_update", beta_spy)
        data = synth.generate(3, 2, 200, nm, seed=44)
        admm.fit_admm(data, 3, nm, SolverConfig(n_iterations=5, seed=44))
        assert len(z_calls) == len(beta_calls) == 5
        u, z_buffers, work = z_calls[0][1], z_calls[0][6:], beta_calls[0][3]
        assert len(z_buffers) == (2 if nm is GAUSS else 3)
        for z_args, beta_args in zip(z_calls, beta_calls):
            assert z_args[1] is u and beta_args[1] is u
            assert all(a is b for a, b in zip(z_args[6:], z_buffers, strict=True))
            assert beta_args[0] is z_buffers[0] and beta_args[3] is work
            for fresh in (z_args[0], z_args[3]):  # the iteration's fits and memberships
                assert not any(np.shares_memory(fresh, b) for b in (u, *z_buffers, work))
        # four arrays in all: the Laplacian's upper bound goes in the refit's work array
        distinct = list({id(b): b for b in (u, *z_buffers, work)}.values())
        assert len(distinct) == 4
        for i, a in enumerate(distinct):
            assert not any(np.shares_memory(a, b) for b in distinct[i + 1:])


class TestSurrogate:
    def test_tight_at_anchor(self):
        rng = np.random.default_rng(10)
        for nm in (GAUSS, LAPLACE):
            state, _, data = random_state(rng, n=10, k=3, d=2)
            w = em.e_step(state.z, data.y, nm)
            pair = surrogate_value(*state, w, data.y, nm)
            assert pair.surrogate == pytest.approx(pair.lagrangian, abs=1e-9)

    def test_upper_bounds_for_posterior_weights(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            nm = GAUSS if rng.random() < 0.5 else LAPLACE
            state, _, data = random_state(rng, n=8, k=2)
            w = em.e_step(state.z, data.y, nm)
            z_eval = rng.standard_normal(state.z.T.shape).T * 2
            pair = surrogate_value(*state, w, data.y, nm, z=z_eval)
            assert pair.surrogate >= pair.lagrangian - 1e-9

    def test_single_component_gap_vanishes_everywhere(self):
        rng = np.random.default_rng(12)
        state, w, data = random_state(rng, n=7, k=1)
        w = np.ones((1, 7))
        for _ in range(10):
            z_eval = rng.standard_normal(state.z.T.shape).T
            pair = surrogate_value(*state, w, data.y, GAUSS, z=z_eval)
            assert pair.surrogate == pytest.approx(pair.lagrangian, abs=1e-9)


class TestFitAdmm:
    def test_shared_initialization_with_em(self):
        data = synth.generate(2, 2, 200, GAUSS, seed=21)
        cfg = SolverConfig(n_iterations=3, seed=21)
        start = initial_params(cfg, 2, 2)
        pinned = SolverConfig(n_iterations=3, seed=21, init_params=start)
        em_free = em.fit_em(data, 2, GAUSS, cfg)
        em_pinned = em.fit_em(data, 2, GAUSS, pinned)
        admm_free = admm.fit_admm(data, 2, GAUSS, cfg)
        admm_pinned = admm.fit_admm(data, 2, GAUSS, pinned)
        assert np.array_equal(em_free.params.beta, em_pinned.params.beta)
        assert np.array_equal(admm_free.params.beta, admm_pinned.params.beta)

    def test_all_zero_covariates_raise_singular_gram(self):
        data = Dataset(x=np.zeros((20, 2)), y=np.ones(20))
        with pytest.raises(SingularGram):
            admm.fit_admm(data, 2, GAUSS, SolverConfig(n_iterations=3, seed=1))

    @pytest.mark.parametrize("d", [1, 2])
    def test_overflowing_gram_raises_non_finite_input(self, d):
        # finite covariates whose X^T X overflows; no RuntimeWarning escapes
        rng = np.random.default_rng(9)
        x = rng.standard_normal((20, d))
        x[0, 0] = 1e160
        data = Dataset(x=x, y=rng.standard_normal(20))
        with pytest.raises(NonFiniteInput, match="overflowed"):
            admm.fit_admm(data, 2, GAUSS, SolverConfig(n_iterations=3, seed=1))

    def test_log_likelihood_past_the_largest_float_ends_the_fit_without_a_warning(self):
        # the fit is finite, the scored total is not: -inf, no RuntimeWarning
        x = abs(np.random.default_rng(3).standard_normal((200, 2))) + 0.5
        data = Dataset(x=x, y=np.full(200, 1e307))
        trace = admm.fit_admm(data, 2, LAPLACE, SolverConfig(n_iterations=3, seed=1))
        assert np.isfinite(trace.params.beta).all()
        assert (trace.log_liks == -math.inf).all()

    def test_overflowing_sigma_squared_raises_non_finite_input(self):
        # sigma**2 overflows as a Python float; EM fits the same data
        data = synth.generate(2, 2, 50, GAUSS, seed=3)
        scaled = Dataset(x=data.x, y=1e160 * data.y)
        nm = NoiseModel(NoiseKind.GAUSSIAN, 1e160)
        cfg = SolverConfig(n_iterations=5, seed=1)
        with pytest.raises(NonFiniteInput, match="sigma"):
            admm.fit_admm(scaled, 2, nm, cfg)
        assert np.isfinite(em.fit_em(scaled, 2, nm, cfg).log_liks).all()

    @pytest.mark.parametrize(
        "kind,sigma,rho,name",
        [
            (NoiseKind.GAUSSIAN, 1e150, 1e10, "sigma"),  # sigma^2 rho overflows
            (NoiseKind.LAPLACIAN, 1e-200, 1e-200, "b"),  # b rho underflows to 0
        ],
        ids=["gaussian-overflow", "laplacian-underflow"],
    )
    def test_step_constant_must_be_finite_and_positive(self, kind, sigma, rho, name):
        # sigma^2 and b are finite and positive on their own; only the product
        # with rho leaves the floats. No RuntimeWarning escapes (tier-1 turns
        # one into an error), and the check runs before the fit's first step.
        data = synth.generate(2, 2, 50, GAUSS, seed=3)
        scaled = Dataset(x=data.x, y=sigma * data.y)
        nm = NoiseModel(kind, sigma)
        cfg = SolverConfig(n_iterations=5, seed=1, rho=rho)
        with pytest.raises(NonFiniteInput, match=rf"{name}\W.*rho = .* step constant"):
            admm.fit_admm(scaled, 2, nm, cfg)
        # the same sigma with the default rho fits
        fitted = admm.fit_admm(scaled, 2, nm, SolverConfig(n_iterations=5, seed=1))
        assert np.isfinite(fitted.log_liks).all()

    @pytest.mark.parametrize("nm", [GAUSS, LAPLACE], ids=["gaussian", "laplacian"])
    def test_non_finite_projection_raises_non_finite_input(self, nm, monkeypatch):
        # a NaN in P makes the first refit's coefficients NaN; the fit loop stops it
        project = admm.gram_projection

        def poisoned(data):
            proj = project(data)
            proj[0, 3] = np.nan
            return proj

        monkeypatch.setattr(admm, "gram_projection", poisoned)
        data = synth.generate(2, 2, 100, nm, seed=6)
        with pytest.raises(NonFiniteInput, match="iterate 1 "):
            admm.fit_admm(data, 2, nm, SolverConfig(n_iterations=3, seed=6))

    def test_wall_seconds_counts_the_projection(self, monkeypatch):
        data = synth.generate(2, 2, 100, GAUSS, seed=5)
        cfg = SolverConfig(n_iterations=3, seed=5)
        plain = admm.fit_admm(data, 2, GAUSS, cfg)
        project = admm.gram_projection

        def slow_projection(data):
            time.sleep(0.05)
            return project(data)

        monkeypatch.setattr(admm, "gram_projection", slow_projection)
        slowed = admm.fit_admm(data, 2, GAUSS, cfg)
        assert slowed.wall_seconds >= 0.05
        assert np.array_equal(slowed.params.beta, plain.params.beta)
        assert np.array_equal(slowed.log_liks, plain.log_liks)
        assert np.array_equal(slowed.primal_residuals, plain.primal_residuals)

    def test_trace_deterministic(self):
        data = synth.generate(2, 2, 300, LAPLACE, seed=22)
        cfg = SolverConfig(n_iterations=30, seed=22)
        a = admm.fit_admm(data, 2, LAPLACE, cfg)
        b = admm.fit_admm(data, 2, LAPLACE, cfg)
        assert np.array_equal(a.log_liks, b.log_liks)
        assert np.array_equal(a.primal_residuals, b.primal_residuals)
        assert np.array_equal(a.params.beta, b.params.beta)

    def test_recovery_on_separated_gaussian_instance(self):
        best = np.inf
        for attempt in range(5):
            seed = separated_seed(2, 2, GAUSS, base=300 + attempt)
            data = synth.generate(2, 2, 2000, GAUSS, seed=seed)
            trace = admm.fit_admm(data, 2, GAUSS, SolverConfig(n_iterations=500, seed=seed))
            best = min(best, scoring.recovery_error(trace.params, data.true_params).error)
        assert best <= 0.15

    def test_primal_residual_collapses_on_gaussian_instance(self):
        seed = separated_seed(2, 2, GAUSS, base=400)
        data = synth.generate(2, 2, 2000, GAUSS, seed=seed)
        trace = admm.fit_admm(data, 2, GAUSS, SolverConfig(n_iterations=1000, seed=seed))
        assert trace.primal_residuals[-1] <= 0.01 * trace.primal_residuals[0]

    def test_paired_laplacian_admm_not_dominated(self):
        wins = 0
        for rep in range(20):
            seed = separated_seed(2, 2, LAPLACE, base=500 + rep)
            data = synth.generate(2, 2, 2000, LAPLACE, seed=seed)
            cfg = SolverConfig(n_iterations=500, seed=seed)
            em_err = scoring.recovery_error(
                em.fit_em(data, 2, LAPLACE, cfg, lad_path="lp").params, data.true_params
            ).error
            admm_err = scoring.recovery_error(
                admm.fit_admm(data, 2, LAPLACE, cfg).params, data.true_params
            ).error
            wins += int(admm_err <= em_err)
        assert wins >= 10

    def test_early_stop_flag(self):
        data = synth.generate(2, 2, 300, GAUSS, seed=23)
        cfg = SolverConfig(n_iterations=2000, seed=23)
        trace = admm.fit_admm(data, 2, GAUSS, cfg, stop_tol=1e-6)
        assert trace.n_iterations < 2000
        assert trace.primal_residuals[-1] <= 1e-6

    @pytest.mark.parametrize("stop_tol", [float("nan"), float("inf"), -1.0])
    def test_stop_tol_must_be_finite_non_negative(self, stop_tol):
        data = synth.generate(2, 1, 50, GAUSS, seed=24)
        with pytest.raises(ValueError):
            admm.fit_admm(data, 2, GAUSS, SolverConfig(n_iterations=5, seed=24), stop_tol=stop_tol)


# One Gaussian ADMM fit whose K x N gap is large enough for OpenBLAS to
# split a dot product across threads; prints every trace as hex bytes. On a
# one-core host OpenBLAS runs one thread either way, so the test cannot fail.
THREADED_FIT = """
import numpy as np
from mlrfit import admm, synth
from mlrfit.model import NoiseKind, NoiseModel, SolverConfig

nm = NoiseModel(NoiseKind.GAUSSIAN, 1.0)
data = synth.generate(3, 2, 6000, nm, seed=7)
trace = admm.fit_admm(data, 3, nm, SolverConfig(n_iterations=20, seed=11))
for values in (trace.primal_residuals, trace.log_liks, trace.params.beta):
    print(np.ascontiguousarray(values).tobytes().hex())
"""


def test_trace_does_not_depend_on_the_blas_thread_count():
    outputs = []
    for threads in ("1", "2"):
        env = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads}
        outputs.append(run_fresh(THREADED_FIT, env=env).split())
    residuals = np.frombuffer(bytes.fromhex(outputs[0][0]))
    assert residuals.shape == (20,) and np.isfinite(residuals).all()
    assert outputs[0] == outputs[1]
