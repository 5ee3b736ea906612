import numpy as np
import pytest

from helpers import (
    density,
    lad_lp_oracle,
    min_pairwise_gap,
    sample_major_e_step,
    separated_seed,
)
from mlrfit import admm, em, lad, scoring, synth
from mlrfit.errors import CollapsedComponent, DegenerateRow, MlrError, NonFiniteInput, SingularGram
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


def hard_label_responsibilities(labels, k):
    w = np.zeros((k, labels.size))
    w[labels, np.arange(labels.size)] = 1.0
    return w


def posterior_at(params, data, nm):
    return em.e_step(params.beta.T @ data.x.T, data.y, nm)


class TestEStep:
    def test_identical_components_split_evenly(self):
        rng = np.random.default_rng(0)
        data = Dataset(x=rng.standard_normal((20, 2)), y=rng.standard_normal(20))
        params = MlrParams(np.column_stack([np.ones(2), np.ones(2)]))
        w = posterior_at(params, data, GAUSS)
        assert np.allclose(w, 0.5, atol=1e-14)

    def test_single_component_weight_one(self):
        rng = np.random.default_rng(1)
        data = Dataset(x=rng.standard_normal((10, 1)), y=rng.standard_normal(10))
        w = posterior_at(MlrParams(np.array([[0.3]])), data, LAPLACE)
        assert np.array_equal(w, np.ones((1, 10)))

    def test_matches_direct_ratio_formula(self):
        x = np.array([[1.0], [2.0], [-1.0]])
        y = np.array([0.5, -1.0, 2.0])
        params = MlrParams(np.array([[1.0, -2.0]]))
        data = Dataset(x=x, y=y)
        for nm in (GAUSS, LAPLACE):
            w = posterior_at(params, data, nm)
            dens = density(nm, y[:, None] - x @ params.beta)
            expected = dens / dens.sum(axis=1, keepdims=True)
            assert np.allclose(w.T, expected, atol=1e-12)

    def test_log_space_survives_huge_residuals(self):
        x = np.ones((3, 1))
        y = np.array([0.0, 500.0, 1000.0])
        params = MlrParams(np.array([[0.0, 1000.0]]))
        w = posterior_at(params, Dataset(x=x, y=y), GAUSS)
        assert np.allclose(w.sum(axis=0), 1.0, atol=1e-12)
        assert np.isfinite(w).all()


    @staticmethod
    def layouts(k, nm, seed):
        """K x N memberships from em.e_step and N x K ones from the reference."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((500, 3)) * rng.uniform(0.1, 30.0)
        y = rng.standard_normal(500) * 3.0
        fits = x @ rng.standard_normal((3, k))
        return em.e_step(np.ascontiguousarray(fits.T), y, nm), sample_major_e_step(fits, y, nm)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("nm", [GAUSS, LAPLACE], ids=["gaussian", "laplacian"])
    def test_component_major_layout_is_bit_identical(self, k, nm):
        for seed in range(5):
            w, reference = self.layouts(k, nm, seed)
            assert w.shape == (k, 500)
            assert np.array_equal(w, reference.T)

    @pytest.mark.parametrize("k", [8, 14])
    @pytest.mark.parametrize("nm", [GAUSS, LAPLACE], ids=["gaussian", "laplacian"])
    def test_component_major_layout_from_eight_components(self, k, nm):
        """From K = 8 numpy's row sum is unrolled 8 ways, so the last bit may move."""
        for seed in range(5):
            w, reference = self.layouts(k, nm, seed)
            assert np.abs(w - reference.T).max() <= 1e-15


class TestMStepGaussian:
    def test_single_component_is_ols(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        data = Dataset(x=x, y=y)
        w = np.ones((1, 40))
        fitted = em.m_step_gaussian(w, data).beta[:, 0]
        reference = np.linalg.lstsq(x, y, rcond=None)[0]
        assert np.allclose(fitted, reference, atol=1e-8)

    def test_hard_labels_noiseless_recover_truth(self):
        data = synth.generate(2, 2, 300, NoiseModel(NoiseKind.GAUSSIAN, 1e-9), seed=3)
        w = hard_label_responsibilities(data.labels, 2)
        fitted = em.m_step_gaussian(w, data)
        assert np.abs(fitted.beta - data.true_params.beta).max() < 1e-8

    def test_hand_instance_matches_normal_equations(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 2))
        y = rng.standard_normal(5)
        raw = rng.uniform(0.1, 0.9, (5, 2))
        raw /= raw.sum(axis=1, keepdims=True)
        data = Dataset(x=x, y=y)
        fitted = em.m_step_gaussian(raw.T, data)
        for k in range(2):
            gram = sum(raw[i, k] * np.outer(x[i], x[i]) for i in range(5))
            rhs = sum(raw[i, k] * y[i] * x[i] for i in range(5))
            expected = np.linalg.solve(gram, rhs)
            assert np.allclose(fitted.beta[:, k], expected, atol=1e-8)

    def test_stationarity_residual(self):
        rng = np.random.default_rng(5)
        data = synth.generate(3, 2, 500, GAUSS, seed=6)
        params = MlrParams(rng.standard_normal((2, 3)))
        w = posterior_at(params, data, GAUSS)
        fitted = em.m_step_gaussian(w, data)
        scale = 1e-8 * (1.0 + np.linalg.norm(data.y))
        for k in range(3):
            grad = data.x.T @ (w[k] * (data.y - data.x @ fitted.beta[:, k]))
            assert np.linalg.norm(grad) <= scale


class TestMStepLaplacian:
    def test_constant_covariate_equals_weighted_median(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(31) * 2
        raw = rng.uniform(0.05, 1.0, (31, 2))
        raw /= raw.sum(axis=1, keepdims=True)
        data = Dataset(x=np.ones((31, 1)), y=y)
        fitted = em.m_step_laplacian(raw.T, data)
        for k in range(2):
            assert fitted.beta[0, k] == lad.weighted_median(y, raw[:, k])

    def test_hard_labels_noiseless_recover_truth(self):
        data = synth.generate(2, 2, 200, NoiseModel(NoiseKind.LAPLACIAN, 1e-9), seed=8)
        w = hard_label_responsibilities(data.labels, 2)
        fitted = em.m_step_laplacian(w, data)
        assert np.abs(fitted.beta - data.true_params.beta).max() < 1e-6

    @pytest.mark.parametrize("path", ["irls", "lp"])
    def test_objective_matches_lp_oracle(self, path):
        rng = np.random.default_rng(9)
        data = synth.generate(2, 2, 20, LAPLACE, seed=10)
        params = MlrParams(rng.standard_normal((2, 2)))
        w = posterior_at(params, data, LAPLACE)
        fitted = em.m_step_laplacian(w, data, path=path)
        for k in range(2):
            _, best = lad_lp_oracle(w[k], data.x, data.y)
            achieved = float(np.sum(w[k] * np.abs(data.y - data.x @ fitted.beta[:, k])))
            assert achieved <= best * (1 + 1e-6) + 1e-12

    def test_zero_mass_component_rejected(self):
        data = synth.generate(1, 1, 5, LAPLACE, seed=11)
        with pytest.raises(ValueError):
            em.m_step_laplacian(
                np.vstack([np.ones(5), np.zeros(5)]), data
            )


class TestCollapsedComponent:
    """A component whose responsibilities underflow to exactly 0 keeps its coefficients.

    Shifting the covariates far from the origin makes the seeded start put
    all 500 samples on one component. Under Gaussian noise x + 30 is enough;
    the Laplacian density decays only linearly, so it needs x + 1000.
    """

    @pytest.mark.parametrize(
        "nm,path,shift,collapses",
        [
            (GAUSS, "irls", 30.0, True),
            (LAPLACE, "lp", 30.0, False),
            (LAPLACE, "irls", 30.0, False),
            (LAPLACE, "lp", 1000.0, True),
            (LAPLACE, "irls", 1000.0, True),
        ],
    )
    def test_fit_survives_and_keeps_previous_coefficients(self, nm, path, shift, collapses):
        data = synth.generate(3, 2, 500, GAUSS, seed=5)
        shifted = Dataset(x=data.x + shift, y=data.y)
        cfg = SolverConfig(n_iterations=50, seed=3)
        start = initial_params(cfg, 2, 3)
        collapsed = posterior_at(start, shifted, nm).sum(axis=1) == 0.0
        assert collapsed.any() == collapses
        one = em.fit_em(shifted, 3, nm, SolverConfig(n_iterations=1, seed=3), lad_path=path)
        assert np.array_equal(one.params.beta[:, collapsed], start.beta[:, collapsed])
        trace = em.fit_em(shifted, 3, nm, cfg, lad_path=path)
        assert np.isfinite(trace.params.beta).all()
        assert np.isfinite(trace.log_liks).all()
        if path == "irls" and nm is LAPLACE:
            allowance = em.irls_delta(shifted.y) * shifted.n_samples / nm.b
        else:
            allowance = 1e-9 * abs(trace.log_liks[-1])
        assert np.diff(trace.log_liks).min() >= -allowance

    def test_without_previous_coefficients_collapse_raises(self):
        data = synth.generate(1, 1, 5, GAUSS, seed=11)
        w = np.vstack([np.ones(5), np.zeros(5), np.full(5, 0.5)])
        w[2, 0] = 0.25
        previous = MlrParams(np.array([[0.0, 7.0, -3.0]]))
        with pytest.raises(SingularGram):
            em.m_step_gaussian(w, data)
        kept = em.m_step_gaussian(w, data, previous=previous).beta
        assert kept[0, 1] == 7.0
        # the rows that factorize get the kernel's own per-row solve
        for row in (0, 2):
            alone = lad._weighted_lstsq(data.x, data.y, w[row][None])[:, 0]
            assert np.abs(kept[:, row] - alone).max() <= 1e-13 * np.abs(alone).max()
        for path in ("lp", "irls"):
            with pytest.raises(CollapsedComponent):
                em.m_step_laplacian(w, data, path=path)
            kept = em.m_step_laplacian(w, data, path=path, previous=previous)
            assert kept.beta[0, 1] == 7.0


class TestLadLpOracle:
    def test_single_point(self):
        beta, objective = lad_lp_oracle(np.array([1.0]), np.array([1.0]), np.array([3.0]))
        assert beta[0] == pytest.approx(3.0, abs=1e-12)
        assert objective == pytest.approx(0.0, abs=1e-12)

    def test_two_point_tie(self):
        beta, objective = lad_lp_oracle(
            np.array([1.0, 1.0]), np.array([1.0, 1.0]), np.array([0.0, 10.0])
        )
        assert objective == pytest.approx(10.0, abs=1e-10)

    def test_scale_guard(self):
        with pytest.raises(ValueError):
            lad_lp_oracle(np.ones(300), np.ones((300, 1)), np.zeros(300))


class TestFitEm:
    def test_single_component_gaussian_is_ols_after_one_iteration(self):
        data = synth.generate(1, 2, 100, GAUSS, seed=12)
        cfg = SolverConfig(n_iterations=1, seed=12)
        trace = em.fit_em(data, 1, GAUSS, cfg)
        x = data.x
        # one component: unit memberships, so the M-step is the kernel on unit weights
        expected = lad._weighted_lstsq(x, data.y, np.ones((1, 100)))
        assert np.array_equal(trace.params.beta[:, 0], expected[:, 0])
        # least squares on X stacked over sqrt(ridge) * I: the same ridge, no normal equations
        ridge = lad.RIDGE_SCALE * np.sum(x * x) / 2
        stacked = np.vstack([x, np.sqrt(ridge) * np.eye(2)])
        ols = np.linalg.lstsq(stacked, np.concatenate([data.y, np.zeros(2)]), rcond=None)[0]
        assert np.abs(trace.params.beta[:, 0] - ols).max() <= 1e-12 * np.abs(ols).max()

    def test_gaussian_log_likelihood_non_decreasing(self):
        seed = separated_seed(2, 2, GAUSS, base=100)
        data = synth.generate(2, 2, 500, GAUSS, seed=seed)
        trace = em.fit_em(data, 2, GAUSS, SolverConfig(n_iterations=60, seed=seed))
        assert np.diff(trace.log_liks).min() >= -1e-9

    @pytest.mark.parametrize("d,path", [(1, "irls"), (2, "lp")])
    def test_laplacian_log_likelihood_non_decreasing_exact_paths(self, d, path):
        seed = separated_seed(2, d, LAPLACE, base=101)
        data = synth.generate(2, d, 400, LAPLACE, seed=seed)
        trace = em.fit_em(data, 2, LAPLACE, SolverConfig(n_iterations=40, seed=seed), lad_path=path)
        assert np.diff(trace.log_liks).min() >= -1e-9

    def test_laplacian_irls_path_monotone_within_smoothing_allowance(self):
        seed = separated_seed(2, 2, LAPLACE, base=102)
        data = synth.generate(2, 2, 400, LAPLACE, seed=seed)
        trace = em.fit_em(data, 2, LAPLACE, SolverConfig(n_iterations=40, seed=seed), lad_path="irls")
        # smoothing can cost at most delta per unit of responsibility mass
        allowance = em.irls_delta(data.y) * data.n_samples / LAPLACE.b
        assert np.diff(trace.log_liks).min() >= -allowance

    def test_recovery_on_separated_gaussian_instance(self):
        best = np.inf
        for attempt in range(5):
            seed = separated_seed(2, 2, GAUSS, base=200 + attempt)
            data = synth.generate(2, 2, 2000, GAUSS, seed=seed)
            assert min_pairwise_gap(data.true_params.beta) >= 2.0
            trace = em.fit_em(data, 2, GAUSS, SolverConfig(n_iterations=200, seed=seed))
            best = min(best, scoring.recovery_error(trace.params, data.true_params).error)
        assert best <= 0.15

    def test_permutation_equivariance(self):
        data = synth.generate(3, 2, 300, GAUSS, seed=13)
        init = MlrParams(np.random.default_rng(14).standard_normal((2, 3)))
        permuted = MlrParams(init.beta[:, [2, 0, 1]])
        base = em.fit_em(data, 3, GAUSS, SolverConfig(n_iterations=25, seed=0, init_params=init))
        swapped = em.fit_em(data, 3, GAUSS, SolverConfig(n_iterations=25, seed=0, init_params=permuted))
        assert np.allclose(swapped.params.beta, base.params.beta[:, [2, 0, 1]], atol=1e-10)

    @pytest.mark.parametrize(
        "nm,path", [(GAUSS, "irls"), (LAPLACE, "irls"), (LAPLACE, "lp")]
    )
    def test_hand_composed_iterations_match_fit(self, nm, path):
        """E-step then M-step, composed by hand, reproduce the fit bit for bit."""
        data = synth.generate(3, 2, 300, nm, seed=32)
        cfg = SolverConfig(n_iterations=3, seed=32)
        trace = em.fit_em(data, 3, nm, cfg, lad_path=path)
        params = initial_params(cfg, 2, 3)
        log_liks = []
        for _ in range(3):
            w = em.e_step(params.beta.T @ data.x.T, data.y, nm)
            if nm is GAUSS:
                params = em.m_step_gaussian(w, data, previous=params)
            else:
                params = em.m_step_laplacian(w, data, path=path, previous=params)
            log_liks.append(scoring.log_likelihood(params, data, nm))
        assert np.array_equal(trace.params.beta, params.beta)
        assert np.array_equal(trace.log_liks, log_liks)
        assert trace.primal_residuals is None

    def test_trace_is_deterministic(self):
        data = synth.generate(2, 2, 200, LAPLACE, seed=15)
        cfg = SolverConfig(n_iterations=15, seed=15)
        a = em.fit_em(data, 2, LAPLACE, cfg)
        b = em.fit_em(data, 2, LAPLACE, cfg)
        assert np.array_equal(a.log_liks, b.log_liks)
        assert np.array_equal(a.params.beta, b.params.beta)

    def test_auto_path_resolution(self):
        # auto is the LP up to DEFAULT_LP_CAP samples and IRLS one sample beyond
        cfg = SolverConfig(n_iterations=2, seed=16)
        for n, route in ((em.DEFAULT_LP_CAP, "lp"), (em.DEFAULT_LP_CAP + 1, "irls")):
            data = synth.generate(2, 1, n, LAPLACE, seed=16)
            assert em.fit_em(data, 2, LAPLACE, cfg, lad_path="auto").lad_path == route
        assert em.fit_em(data, 2, GAUSS, cfg).lad_path == "n/a"

    @pytest.mark.parametrize("nm", [GAUSS, LAPLACE], ids=["gaussian", "laplacian"])
    @pytest.mark.parametrize("path", ["bogus"], ids=["unknown-path"])
    def test_lad_route_checked_for_either_noise(self, nm, path):
        data = synth.generate(2, 1, 50, nm, seed=16)
        with pytest.raises(ValueError):
            em.fit_em(data, 2, nm, SolverConfig(n_iterations=2, seed=16), lad_path=path)
        with pytest.raises(ValueError):
            em.resolve_lad_path(path, nm, 50)


@pytest.mark.parametrize("fit", [em.fit_em, admm.fit_admm], ids=["em", "admm"])
def test_component_count_must_be_positive(fit):
    data = synth.generate(2, 1, 50, GAUSS, seed=17)
    with pytest.raises(ValueError):
        fit(data, 0, GAUSS, SolverConfig(n_iterations=2, seed=17))


@pytest.mark.parametrize("fit", [em.fit_em, admm.fit_admm], ids=["em", "admm"])
def test_degenerate_row_names_the_sample(fit):
    # squaring a residual of 1e160 overflows, so sample 0 has no mass
    # anywhere: a typed error, and no RuntimeWarning under the tests' gate
    data = synth.generate(2, 2, 200, GAUSS, seed=1)
    y = data.y.copy()
    y[0] = 1e160
    far = Dataset(x=data.x, y=y, labels=data.labels, true_params=data.true_params)
    with pytest.raises(DegenerateRow, match="sample 0 "):
        fit(far, 2, GAUSS, SolverConfig(n_iterations=5, seed=1))


@pytest.mark.parametrize(
    "fit, route",
    [(em.fit_em, {"lad_path": "lp"}), (em.fit_em, {"lad_path": "irls"}), (admm.fit_admm, {})],
    ids=["em-lp", "em-irls", "admm"],
)
def test_laplacian_residual_past_the_largest_float_ends_in_degenerate_row(fit, route):
    # |y_0| / b overflows for y_0 = 1.7e308 and b = 1 / sqrt(2): the start's
    # log-density is -inf in every component, with no RuntimeWarning
    x = np.random.default_rng(9).standard_normal((20, 2))
    y = np.random.default_rng(9).standard_normal(20)
    y[0] = 1.7e308
    with pytest.raises(DegenerateRow, match="sample 0 "):
        fit(Dataset(x=x, y=y), 2, LAPLACE, SolverConfig(n_iterations=3, seed=1), **route)


@pytest.mark.parametrize(
    "path, error", [("irls", NonFiniteInput), ("lp", MlrError)], ids=["irls", "lp"]
)
def test_overflowing_weighted_gram_ends_in_a_typed_error(path, error):
    # every weighted X^T W X overflows, and the tests' warning gate
    # (pyproject.toml) fails on a RuntimeWarning. The lp route meets the
    # overflow in dual_lp's least-squares start and falls back to the LP on
    # all samples, which the LP solver then refuses.
    x = np.random.default_rng(9).standard_normal((20, 2))
    x[0, 0] = 1e160
    data = Dataset(x=x, y=np.random.default_rng(9).standard_normal(20))
    with pytest.raises(error):
        em.fit_em(data, 2, LAPLACE, SolverConfig(n_iterations=3, seed=1), lad_path=path)


def test_irls_on_a_y_whose_spread_overflows_raises_non_finite_input():
    # std(y) squares |y_0| = 1e200 past the largest float; the tests' warning
    # gate fails on numpy's RuntimeWarning. The lp route, which needs no
    # spread, fits the same data.
    x = np.random.default_rng(9).standard_normal((20, 2))
    y = np.random.default_rng(9).standard_normal(20)
    y[0] = 1e200
    data = Dataset(x=x, y=y)
    cfg = SolverConfig(n_iterations=3, seed=1)
    with pytest.raises(NonFiniteInput, match="spread of y"):
        em.fit_em(data, 2, LAPLACE, cfg, lad_path="irls")
    assert np.isfinite(em.fit_em(data, 2, LAPLACE, cfg, lad_path="lp").log_liks).all()
    # where the spread squares finitely, delta keeps its bits
    assert em.irls_delta(x[:, 0]) == 1e-6 * (1.0 + float(np.std(x[:, 0])))
