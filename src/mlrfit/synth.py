"""Synthetic mixed-linear-regression data generation."""

import numpy as np

from . import noise
from .model import Dataset, MlrParams, NoiseModel, check_int, check_seed
from .rng import DOMAIN_DATA, stream


def generate(k: int, d: int, n: int, nm: NoiseModel, seed: int) -> Dataset:
    """Draw an n-sample dataset from a K-component model.

    True coefficients have i.i.d. standard normal entries, component
    labels are uniform, covariate rows are i.i.d. standard normal and
    y_i is the chosen component's fit plus one noise draw.

    The draw order from the seeded stream is fixed and documented:
    coefficients (d x k), then labels, then covariates, then noise.
    The result is therefore a pure function of (k, d, n, nm, seed), and
    the true coefficients depend on (k, d, seed) only.
    """
    k, d, n = check_int("k", k), check_int("d", d), check_int("n", n)
    gen = stream(check_seed("seed", seed), DOMAIN_DATA)
    beta = gen.standard_normal((d, k))
    labels = gen.integers(0, k, size=n)
    x = gen.standard_normal((n, d))
    eps = noise.sample(nm, gen, size=n)
    y = np.einsum("nd,dn->n", x, beta[:, labels]) + eps
    return Dataset(x=x, y=y, labels=labels, true_params=MlrParams(beta))
