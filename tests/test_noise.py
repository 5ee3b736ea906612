import math

import numpy as np
import pytest

from helpers import density, log_density
from mlrfit import noise
from mlrfit.model import NoiseKind, NoiseModel
from mlrfit.rng import stream

GAUSS = NoiseModel(NoiseKind.GAUSSIAN, 1.0)
LAPLACE = NoiseModel(NoiseKind.LAPLACIAN, 1.0)


def test_gaussian_density_at_zero():
    assert density(GAUSS, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-14)


def test_laplacian_density_at_zero():
    # 1 / (2b) with b = 1/sqrt(2)
    assert density(LAPLACE, 0.0) == pytest.approx(math.sqrt(2) / 2, rel=1e-14)


def test_gaussian_density_sigma_two():
    nm = NoiseModel(NoiseKind.GAUSSIAN, 2.0)
    expected = (1.0 / (2.0 * math.sqrt(2 * math.pi))) * math.exp(-0.5)
    assert density(nm, 2.0) == pytest.approx(expected, rel=1e-14)


def test_log_density_analytic_values():
    gauss = noise.log_density_in_place(GAUSS, np.array([0.0]))[0]
    laplace = noise.log_density_in_place(LAPLACE, np.array([1.0]))[0]
    assert gauss == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-14)
    assert laplace == pytest.approx(math.log(math.sqrt(2) / 2) - math.sqrt(2), rel=1e-14)


def test_density_symmetry_exact():
    eps = np.linspace(0.0, 8.0, 101)
    for nm in (GAUSS, LAPLACE):
        assert np.array_equal(density(nm, eps), density(nm, -eps))


def test_density_positive_log_density_finite():
    # density underflows to 0.0 past ~38 sigma in doubles; the log form never does
    moderate = np.linspace(-30.0, 30.0, 601)
    extreme = np.array([-500.0, -50.0, 50.0, 500.0])
    for nm in (GAUSS, LAPLACE):
        assert (density(nm, moderate) > 0).all()
        eps = np.concatenate([moderate, extreme])
        assert np.isfinite(noise.log_density_in_place(nm, eps)).all()


@pytest.mark.parametrize("sigma", [1.0, 0.3, 2.7])
@pytest.mark.parametrize("kind", list(NoiseKind))
def test_log_density_in_place_is_log_density(kind, sigma):
    """The in-place form writes the oracle's array bit for bit over its argument.

    Half the residuals are odd 27-bit mantissas, whose squares are ties
    in double precision, and half span forty orders of magnitude.
    """
    nm = NoiseModel(kind, sigma)
    rng = np.random.default_rng(5)
    ties = (rng.integers(2**26, 2**27, 500) | 1) * 2.0**-26
    spread = rng.standard_normal(500) * np.exp(rng.uniform(-46.0, 46.0, 500))
    eps = np.concatenate([ties, -ties, spread]).reshape(2, -1)
    before = eps.copy()
    expected = log_density(nm, eps)
    assert np.array_equal(eps, before)  # the oracle leaves its argument alone
    work = eps.copy()
    assert noise.log_density_in_place(nm, work) is work
    assert np.array_equal(work, expected)
    for value in (0.0, 1.5, -2.5):  # exact squares: a scalar is the array's entry
        scalar = log_density(nm, value)
        assert type(scalar) is float
        assert scalar == log_density(nm, np.array([value]))[0]


# sqrt(2) / 2 gives b = 0.5 and log(2b) = 0, so the log-density is the
# quotient itself, signed zeros included
@pytest.mark.parametrize("sigma", [math.sqrt(2.0) / 2.0, 1.0, 0.3, 2.7, 1e-300, 1e300, 5e-324])
def test_laplacian_in_place_is_the_negated_quotient(sigma):
    """|eps| / (-b) in one division is -|eps| / b, bit for bit, and
    the oracle ``helpers.log_density`` keeps that formula.

    Rounding to nearest is symmetric in sign, so the quotient of a negated
    divisor is the negated quotient, for signed zeros, infinities, the
    largest floats and subnormals too.
    """
    nm = NoiseModel(NoiseKind.LAPLACIAN, sigma)
    rng = np.random.default_rng(6)
    special = np.array([0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 1.7976931348623157e308,
                        5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0])
    spread = rng.standard_normal(400) * np.exp(rng.uniform(-700.0, 700.0, 400))
    eps = np.concatenate([special, spread])
    with np.errstate(over="ignore", under="ignore"):
        expected = -np.abs(eps) / nm.b - math.log(2.0 * nm.b)
        assert np.array_equal(log_density(nm, eps), expected)
        work = noise.log_density_in_place(nm, eps.copy())
    assert np.array_equal(work, expected)
    assert np.array_equal(np.signbit(work), np.signbit(expected))


def test_gaussian_sample_moments():
    draws = noise.sample(GAUSS, stream(7), size=100000)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.02


def test_laplacian_sample_moments():
    draws = noise.sample(LAPLACE, stream(8), size=100000)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.03


def test_families_share_variance_within_three_se():
    n = 200000
    for nm, kurtosis in ((GAUSS, 3.0), (LAPLACE, 6.0)):
        draws = noise.sample(nm, stream(9), size=n)
        var = draws.var()
        se = nm.sigma**2 * math.sqrt((kurtosis - 1.0) / n)
        assert abs(var - nm.sigma**2) < 3 * se


def test_sampler_determinism():
    for nm in (GAUSS, LAPLACE):
        a = noise.sample(nm, stream(11), size=1000)
        b = noise.sample(nm, stream(11), size=1000)
        assert np.array_equal(a, b)


def test_scalar_sample_is_float():
    value = noise.sample(LAPLACE, stream(3))
    assert isinstance(value, float)
