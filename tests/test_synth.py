import numpy as np
import pytest

from mlrfit import synth
from mlrfit.model import NoiseKind, NoiseModel


def test_noiseless_limit_residuals_vanish():
    nm = NoiseModel(NoiseKind.GAUSSIAN, 1e-9)
    data = synth.generate(3, 2, 500, nm, seed=1)
    fits = np.einsum("nd,dn->n", data.x, data.true_params.beta[:, data.labels])
    assert np.abs(data.y - fits).max() < 1e-6


def test_single_component_labels():
    nm = NoiseModel(NoiseKind.LAPLACIAN, 1.0)
    data = synth.generate(1, 3, 200, nm, seed=2)
    assert (data.labels == 0).all()


def test_label_frequencies_near_uniform():
    nm = NoiseModel(NoiseKind.GAUSSIAN, 1.0)
    data = synth.generate(4, 1, 100000, nm, seed=3)
    freqs = np.bincount(data.labels, minlength=4) / data.n_samples
    assert np.abs(freqs - 0.25).max() < 0.01


def test_determinism_bit_identical():
    nm = NoiseModel(NoiseKind.LAPLACIAN, 0.7)
    a = synth.generate(3, 2, 1000, nm, seed=99)
    b = synth.generate(3, 2, 1000, nm, seed=99)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.true_params.beta, b.true_params.beta)


def test_residual_moments_match_noise():
    n = 50000
    for kind, kurtosis in ((NoiseKind.GAUSSIAN, 3.0), (NoiseKind.LAPLACIAN, 6.0)):
        nm = NoiseModel(kind, 1.0)
        data = synth.generate(2, 2, n, nm, seed=5)
        fits = np.einsum("nd,dn->n", data.x, data.true_params.beta[:, data.labels])
        resid = data.y - fits
        assert abs(resid.mean()) < 3.0 * nm.sigma / np.sqrt(n)
        se_var = nm.sigma**2 * np.sqrt((kurtosis - 1.0) / n)
        assert abs(resid.var() - nm.sigma**2) < 3.0 * se_var


def test_true_params_depend_only_on_seed_not_n():
    nm = NoiseModel(NoiseKind.GAUSSIAN, 1.0)
    small = synth.generate(3, 2, 1, nm, seed=17)
    large = synth.generate(3, 2, 5000, nm, seed=17)
    assert np.array_equal(small.true_params.beta, large.true_params.beta)


def test_invalid_sizes_rejected():
    nm = NoiseModel(NoiseKind.GAUSSIAN, 1.0)
    with pytest.raises(ValueError):
        synth.generate(0, 2, 10, nm, seed=0)
    with pytest.raises(ValueError):
        synth.generate(2, 2, 0, nm, seed=0)
    with pytest.raises(ValueError):
        synth.generate(2, 0, 10, nm, seed=0)
    # the seed rule SolverConfig and --seed apply
    for seed in (-1, 2**64, 1.9, np.nan, np.inf):
        with pytest.raises(ValueError):
            synth.generate(2, 2, 10, nm, seed=seed)
    # fractional sizes are rejected, not truncated
    for sizes in ((2.9, 1, 3), (2, 1.5, 3), (2, 1, 3.2), (2, 1, np.inf)):
        with pytest.raises(ValueError):
            synth.generate(*sizes, nm, seed=1)


def test_largest_seed_accepted():
    nm = NoiseModel(NoiseKind.GAUSSIAN, 1.0)
    assert synth.generate(2, 1, 3, nm, seed=2**64 - 1).n_samples == 3
    assert synth.generate(2.0, 1.0, 3.0, nm, seed=7.0).n_samples == 3
