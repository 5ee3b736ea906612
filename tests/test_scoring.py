import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_assignment,
    density,
    log_density,
    log_kernel,
    logsumexp_log_likelihood,
    logsumexp_terms,
    peak_shifted_e_step,
    within_membership_tolerance,
)
from mlrfit import em, scoring
from mlrfit.errors import DegenerateRow, DimensionMismatch, InsufficientData, ZeroVariance
from mlrfit.model import Dataset, MlrParams, NoiseKind, NoiseModel

GAUSS = NoiseModel(NoiseKind.GAUSSIAN, 1.0)
LAPLACE = NoiseModel(NoiseKind.LAPLACIAN, 1.0)


class TestLogLikelihood:
    def test_single_component_reduces_to_log_density_sum(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((25, 2))
        y = rng.standard_normal(25)
        params = MlrParams(rng.standard_normal((2, 1)))
        data = Dataset(x=x, y=y)
        value = scoring.log_likelihood(params, data, GAUSS)
        expected = float(np.sum(log_density(GAUSS, y - x @ params.beta[:, 0])))
        assert value == pytest.approx(expected, rel=1e-13)

    def test_duplicated_components_collapse(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 2))
        y = rng.standard_normal(30)
        data = Dataset(x=x, y=y)
        b = rng.standard_normal((2, 1))
        single = scoring.log_likelihood(MlrParams(b), data, LAPLACE)
        doubled = scoring.log_likelihood(
            MlrParams(np.column_stack([b, b])), data, LAPLACE
        )
        assert doubled == pytest.approx(single, rel=1e-13)

    def test_hand_instance_matches_direct_sum(self):
        x = np.array([[1.0], [2.0], [-1.0], [0.5]])
        y = np.array([0.3, -0.7, 1.1, 0.0])
        params = MlrParams(np.array([[0.8, -1.2]]))
        data = Dataset(x=x, y=y)
        for nm in (GAUSS, LAPLACE):
            value = scoring.log_likelihood(params, data, nm)
            direct = sum(
                math.log(
                    0.5 * density(nm, y[i] - x[i, 0] * 0.8)
                    + 0.5 * density(nm, y[i] - x[i, 0] * -1.2)
                )
                for i in range(4)
            )
            assert value == pytest.approx(direct, rel=1e-12)


    @pytest.mark.parametrize("n", [1, 7, 2000, 20000])
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    @pytest.mark.parametrize("nm", [GAUSS, LAPLACE], ids=["gaussian", "laplacian"])
    def test_matches_logsumexp_reference(self, n, k, nm):
        rng = np.random.default_rng(n + k)
        x = rng.standard_normal((n, 2)) * 4.0
        data = Dataset(x=x, y=rng.standard_normal(n) * 3.0)
        params = MlrParams(rng.standard_normal((2, k)))
        value = scoring.log_likelihood(params, data, nm)
        assert value == pytest.approx(logsumexp_log_likelihood(params, data, nm), rel=1e-12)

    def test_sample_without_mass_in_any_component_scores_minus_infinity(self):
        """Like logsumexp: -inf, and the reduction adds no warning of its own.

        A residual of 1e200 squares past the largest float, so its Gaussian
        log-density is -inf for every component; numpy's overflow warning
        for that square is silenced, any other warning is an error.
        """
        x = np.ones((3, 1))
        data = Dataset(x=x, y=np.array([0.0, 1.0, -1e200]))
        params = MlrParams(np.array([[0.0, 1.0, 2.0]]))
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            assert scoring.log_likelihood(params, data, GAUSS) == -math.inf
            assert logsumexp_log_likelihood(params, data, GAUSS) == -math.inf
            kept = Dataset(x=x[:2], y=data.y[:2])
            value = scoring.log_likelihood(params, kept, GAUSS)
        assert math.isfinite(value)
        assert value == pytest.approx(logsumexp_log_likelihood(params, kept, GAUSS), rel=1e-12)

    def test_total_past_the_largest_float_is_minus_infinity(self):
        # every sample's log-likelihood is finite, near -1e307, and their sum
        # overflows: -inf, with no RuntimeWarning (the tests' warning gate),
        # from the parameters and from the fit loop's fits and memberships
        x = abs(np.random.default_rng(3).standard_normal((200, 2))) + 0.5
        data = Dataset(x=x, y=np.full(200, 1e307))
        params = MlrParams(np.array([[1.0, -1.0], [2.0, 0.5]]))
        assert scoring.log_likelihood(params, data, LAPLACE) == -math.inf
        fits = params.beta.T @ x.T
        memberships = np.empty_like(fits)
        value = scoring.log_likelihood(None, data, LAPLACE, fits=fits, memberships=memberships)
        assert value == -math.inf
        assert np.array_equal(memberships, scoring.e_step(fits, data.y, LAPLACE))

    def test_memberships_must_be_k_by_n(self):
        data = Dataset(x=np.ones((4, 1)), y=np.zeros(4))
        params = MlrParams(np.array([[0.0, 1.0]]))
        with pytest.raises(DimensionMismatch):
            scoring.log_likelihood(params, data, GAUSS, memberships=np.empty((4, 2)))


    @pytest.mark.parametrize("n", [1, 2000])
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    @pytest.mark.parametrize("nm", [GAUSS, LAPLACE], ids=["gaussian", "laplacian"])
    def test_given_fits_score_as_the_three_argument_call(self, nm, k, n):
        """``fits`` = (X b)^T gives the same value and memberships, bit for bit."""
        rng = np.random.default_rng(100 * k + n)
        data = Dataset(x=rng.standard_normal((n, 2)), y=rng.standard_normal(n))
        params = MlrParams(rng.standard_normal((2, k)))
        plain = scoring.log_likelihood(params, data, nm)
        expected = np.full((k, n), np.nan)
        filled = scoring.log_likelihood(params, data, nm, memberships=expected)
        assert filled == plain
        fits = params.beta.T @ data.x.T
        for given in (params, None):
            w = np.full((k, n), np.nan)
            value = scoring.log_likelihood(given, data, nm, fits=fits, memberships=w)
            assert value == plain
            assert np.array_equal(w, expected)
            assert scoring.log_likelihood(given, data, nm, fits=fits) == plain
        assert np.array_equal(fits, params.beta.T @ data.x.T)  # read, not written

    @pytest.mark.parametrize("nm", [GAUSS, LAPLACE], ids=["gaussian", "laplacian"])
    def test_given_memberships_hold_the_whole_pass(self, nm):
        """With ``memberships`` the pass computes the residuals and their
        log-densities in that buffer: its largest allocation is a length-N
        row, not a K x N array."""
        k, n = 8, 5000
        rng = np.random.default_rng(17)
        data = Dataset(x=rng.standard_normal((n, 2)), y=rng.standard_normal(n))
        fits = rng.standard_normal((2, k)).T @ data.x.T
        w = np.empty((k, n))
        expected = scoring.log_likelihood(None, data, nm, fits=fits)
        tracemalloc.start()
        try:
            value = scoring.log_likelihood(None, data, nm, fits=fits, memberships=w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == expected
        assert np.array_equal(w, em.e_step(fits, data.y, nm))
        assert peak < k * n * w.itemsize  # about four rows of N

    @pytest.mark.parametrize("shape", [(3, 5), (2, 4), (5, 2), (5,), (1, 2, 5), ()])
    def test_fits_must_be_k_by_n(self, shape):
        data = Dataset(x=np.ones((5, 1)), y=np.zeros(5))
        params = MlrParams(np.array([[0.0, 1.0]]))
        for given in (params, None):
            if given is None and shape == (3, 5):
                continue  # without params any K x N is a mixture's fits
            with pytest.raises(DimensionMismatch, match="fits must be K x N"):
                scoring.log_likelihood(given, data, GAUSS, fits=np.zeros(shape))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nm=st.sampled_from([GAUSS, LAPLACE]),
    k=st.integers(1, 5),
    d=st.integers(1, 3),
    n=st.integers(1, 500),
    offsets=st.lists(st.sampled_from([0.0, 1.0, 60.0, 1e4]), min_size=5, max_size=5),
    far_sample=st.booleans(),
)
def test_memberships_are_the_e_step_posterior(seed, nm, k, d, n, offsets, far_sample):
    """The likelihood's memberships are ``em.e_step``'s, and its value is unchanged.

    A component shifted by 60 or more leaves some samples with densities
    that underflow next to the nearest component's; a response of 1e200
    leaves its sample no Gaussian mass at all (its square overflows, and
    that warning is silenced), and then both raise DegenerateRow.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    beta = rng.standard_normal((d, k)) + np.asarray(offsets[:k])
    y = x @ beta[:, 0] + rng.standard_normal(n)
    if far_sample:
        y[rng.integers(n)] = 1e200
    data, params = Dataset(x=x, y=y), MlrParams(beta)
    out = np.full((k, n), np.nan)
    with np.errstate(over="ignore"):
        plain = scoring.log_likelihood(params, data, nm)
        try:
            posterior = em.e_step(params.beta.T @ data.x.T, data.y, nm)
        except DegenerateRow as exc:
            with pytest.raises(DegenerateRow, match=str(exc)):
                scoring.log_likelihood(params, data, nm, memberships=out)
            assert plain == -math.inf
            return
        filled = scoring.log_likelihood(params, data, nm, memberships=out)
    assert filled == plain
    assert np.array_equal(out, posterior)


# Samples of ``mixed_samples`` that fall back to the peak-shifted arithmetic:
# every component 1e3 sigma off, where each exp of the kernel underflows to
# 0 although the squared residual is finite, and a few about 37 sigma
# (Gaussian) or 480 sigma (Laplacian) off, whose mass is a normal number
# below MASS_FLOOR; DEAD's residual gives a kernel of -inf in every component.
FAR, NEAR_FLOOR, DEAD = [3, 11, 29], [7, 20], 33
# the mixture log-likelihood stays this close to logsumexp's, relative to
# the sum of the per-sample terms' magnitudes: the terms can cancel, and a
# float sum holds the total only that well (at sigma = 1e-61.75 forty terms
# of about 141 nats sum to 18.7)
LL_TOLERANCE = 1e-14


def mixed_samples(nm, seed=0, dead=True):
    """A K = 3 problem whose one scorer call mixes three kinds of sample.

    Returns (params, data): ordinary samples near the first component,
    the FAR and NEAR_FLOOR samples above, and, with ``dead``, the sample
    DEAD, whose residual is 1e160 sigma (its Gaussian square overflows)
    or 1e309 sigma (its Laplacian quotient does), capped at 1e308. Every
    length is in units of sigma, so any sigma gives the same kernels.
    """
    rng = np.random.default_rng(seed)
    n = 40
    x = rng.standard_normal((n, 2)) * nm.sigma
    params = MlrParams(rng.standard_normal((2, 3)))
    fits = params.beta.T @ x.T
    y = fits[0] + rng.standard_normal(n) * nm.sigma
    near = 37.0 if nm.kind is NoiseKind.GAUSSIAN else 480.0
    y[FAR] = fits[:, FAR].max(axis=0) + 1e3 * nm.sigma
    y[NEAR_FLOOR] = fits[:, NEAR_FLOOR].min(axis=0) - near * nm.sigma
    if dead:
        ratio = 1e160 if nm.kind is NoiseKind.GAUSSIAN else 1e309
        y[DEAD] = min(ratio * nm.sigma, 1e308)
    return params, Dataset(x=x, y=y)


def peak_shifted(params, data, nm):
    """Peak-shifted memberships over the log-densities, and the peaks."""
    fits = params.beta.T @ data.x.T
    with np.errstate(over="ignore", invalid="ignore"):
        logd = log_density(nm, data.y - fits)
        return peak_shifted_e_step(fits, data.y, nm), logd.max(axis=0)


def fallback_samples(params, data, nm):
    """The samples whose mass sum_k exp(kernel_k) falls below MASS_FLOOR."""
    with np.errstate(over="ignore"):
        kernel = log_kernel(nm, data.y - params.beta.T @ data.x.T)
    return np.flatnonzero(~(np.exp(kernel).sum(axis=0) >= scoring.MASS_FLOOR))


def check_fallback(params, data, nm):
    """The scorer and the E-step on ``mixed_samples``, with any RuntimeWarning an error.

    A sample whose largest log-density is not finite raises
    DegenerateRow naming the first such sample when memberships are
    requested and scores -inf otherwise. Without one, the fallback
    columns are the peak-shifted oracle's on the kernels bit for bit,
    every column sums to 1, every membership lies within the tolerance
    of the peak-shifted ones, and the value lies within LL_TOLERANCE
    sum_i |l_i| of logsumexp's, whose per-sample terms l_i are summed
    exactly.
    """
    fits = params.beta.T @ data.x.T
    expected, peak = peak_shifted(params, data, nm)
    k, n = fits.shape
    w = np.full((k, n), np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = scoring.log_likelihood(params, data, nm)
        dead = np.flatnonzero(~np.isfinite(peak))
        if dead.size:
            assert value == -math.inf
            for call in (lambda: scoring.e_step(fits, data.y, nm),
                         lambda: scoring.log_likelihood(params, data, nm, memberships=w)):
                with pytest.raises(DegenerateRow, match=f"^sample {dead[0]} has no"):
                    call()
            return dead
        posterior = scoring.e_step(fits, data.y, nm)
        assert scoring.log_likelihood(params, data, nm, memberships=w) == value
    assert np.array_equal(w, posterior)
    low = fallback_samples(params, data, nm)
    with np.errstate(over="ignore"):
        oracle = peak_shifted_e_step(fits, data.y, nm, log=log_kernel)
    assert np.array_equal(w[:, low], oracle[:, low])
    assert np.abs(w.sum(axis=0) - 1.0).max() <= 2.0**-52 * k
    assert within_membership_tolerance(w, expected, peak)
    with np.errstate(over="ignore"):
        terms = logsumexp_terms(params, data, nm)
    assert abs(value - math.fsum(terms)) <= LL_TOLERANCE * math.fsum(np.abs(terms))
    return low


class TestFallback:
    @pytest.mark.parametrize("nm", [GAUSS, LAPLACE], ids=["gaussian", "laplacian"])
    def test_fallback_columns_are_the_peak_shifted_softmax(self, nm):
        params, data = mixed_samples(nm, dead=False)
        low = check_fallback(params, data, nm)
        assert low.tolist() == sorted(FAR + NEAR_FLOOR)
        fits = params.beta.T @ data.x.T
        w = scoring.e_step(fits, data.y, nm)
        # 1e3 sigma off, each sample still goes to its nearest component
        assert np.array_equal(w[:, FAR].argmax(axis=0), fits[:, FAR].argmax(axis=0))

    @pytest.mark.parametrize(
        "nm", [GAUSS, NoiseModel(NoiseKind.LAPLACIAN, 1e-300)], ids=["gaussian", "laplacian"]
    )
    def test_sample_without_mass_raises_or_scores_minus_infinity(self, nm):
        params, data = mixed_samples(nm)
        assert check_fallback(params, data, nm).tolist() == [DEAD]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(list(NoiseKind)),
    log_sigma=st.floats(-150.0, 150.0),
    dead=st.booleans(),
)
# 40 terms of about 141 nats cancel to 18.7: the scorer is 1.1e-14 off the
# exact value there, relative, and logsumexp's float sum was 6.6e-14 off
@example(seed=1, kind=NoiseKind.LAPLACIAN, log_sigma=-61.75, dead=False)
def test_fallback_holds_across_sigma(seed, kind, log_sigma, dead):
    """The same checks with every length scaled by sigma from 1e-150 to 1e150.

    The dead sample dies wherever its log-density is -inf: always
    under Gaussian noise, and under Laplacian noise only below sigma of
    about 0.79, where its residual over b passes the largest float; above
    it the sample falls back like the FAR ones.
    """
    nm = NoiseModel(kind, 10.0**log_sigma)
    params, data = mixed_samples(nm, seed, dead)
    samples = check_fallback(params, data, nm)
    gaussian_dead = dead and kind is NoiseKind.GAUSSIAN
    if gaussian_dead:
        assert samples.tolist() == [DEAD]
    elif not dead:
        assert samples.tolist() == sorted(FAR + NEAR_FLOOR)


class TestRecoveryError:
    def test_exact_match(self):
        b = MlrParams(np.array([[1.0, 2.0], [3.0, 4.0]]))
        report = scoring.recovery_error(b, b)
        assert report.error == 0.0
        assert report.assignment == (0, 1)

    def test_column_swap_is_free(self):
        truth = MlrParams(np.array([[1.0, 2.0], [3.0, 4.0]]))
        swapped = MlrParams(truth.beta[:, [1, 0]])
        report = scoring.recovery_error(swapped, truth)
        assert report.error == pytest.approx(0.0, abs=1e-14)
        assert report.assignment == (1, 0)

    def test_matches_brute_force_on_k6(self):
        rng = np.random.default_rng(3)
        est = MlrParams(rng.standard_normal((3, 6)))
        truth = MlrParams(rng.standard_normal((3, 6)))
        report = scoring.recovery_error(est, truth)
        cost = np.array(
            [
                [np.linalg.norm(truth.beta[:, i] - est.beta[:, j]) for j in range(6)]
                for i in range(6)
            ]
        )
        _, best = brute_force_assignment(cost)
        assert report.error == pytest.approx(best, rel=1e-12)

    def test_symmetry_and_permutation_invariance(self):
        rng = np.random.default_rng(4)
        a = MlrParams(rng.standard_normal((2, 4)))
        b = MlrParams(rng.standard_normal((2, 4)))
        assert scoring.recovery_error(a, b).error == pytest.approx(
            scoring.recovery_error(b, a).error, rel=1e-12
        )
        perm = [2, 0, 3, 1]
        both = scoring.recovery_error(
            MlrParams(a.beta[:, perm]), MlrParams(b.beta[:, perm])
        )
        assert both.error == pytest.approx(scoring.recovery_error(a, b).error, rel=1e-12)

    def test_zero_error_iff_columns_permute(self):
        rng = np.random.default_rng(5)
        truth = MlrParams(rng.standard_normal((3, 4)))
        shuffled = MlrParams(truth.beta[:, [3, 1, 0, 2]])
        assert scoring.recovery_error(shuffled, truth).error < 1e-12
        nudged = truth.beta.copy()
        nudged[0, 0] += 1e-3
        assert scoring.recovery_error(MlrParams(nudged), truth).error > 1e-4

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            scoring.recovery_error(
                MlrParams(np.zeros((2, 2))), MlrParams(np.zeros((2, 3)))
            )


class TestPairedTTest:
    def test_all_positive_is_significant(self):
        rng = np.random.default_rng(6)
        diffs = 1.0 + 0.01 * rng.standard_normal(30)
        result = scoring.paired_t_test(diffs)
        assert result.significant and result.t_statistic > result.critical_value

    def test_alternating_signs_not_significant(self):
        diffs = np.array([1.0, -1.0] * 15)
        result = scoring.paired_t_test(diffs)
        assert abs(result.t_statistic) < 0.2
        assert not result.significant

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(7)
        diffs = rng.standard_normal(30) * 2 + 0.3
        result = scoring.paired_t_test(diffs)
        mean = diffs.sum() / 30
        sample_var = np.sum((diffs - mean) ** 2) / 29
        expected = mean / math.sqrt(sample_var / 30)
        assert result.t_statistic == pytest.approx(expected, abs=1e-10)

    def test_critical_values(self):
        import scipy.stats

        small = scoring.paired_t_test(np.array([0.1, 0.2, -0.05, 0.3, 0.15]))
        assert small.critical_value == pytest.approx(scipy.stats.t.ppf(0.95, 4), rel=1e-12)
        rng = np.random.default_rng(8)
        big = scoring.paired_t_test(rng.standard_normal(500))
        assert big.critical_value == 1.645
        # the Student quantile is exactly scipy.stats' up to n = 200, then 1.645
        diffs = rng.standard_normal(201)
        for n in range(2, 201):
            expected = float(scipy.stats.t.ppf(0.95, n - 1))
            assert scoring.paired_t_test(diffs[:n]).critical_value == expected, n
        assert scoring.paired_t_test(diffs).critical_value == 1.645

    def test_error_conditions(self):
        with pytest.raises(InsufficientData):
            scoring.paired_t_test(np.array([1.0]))
        with pytest.raises(ZeroVariance):
            scoring.paired_t_test(np.full(10, 3.3))
