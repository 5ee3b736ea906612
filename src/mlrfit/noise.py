"""Log-densities and samplers for the two noise families."""

import math

import numpy as np

from .model import NoiseKind, NoiseModel

_LOG_2PI = math.log(2.0 * math.pi)


def log_density_in_place(nm: NoiseModel, eps: np.ndarray) -> np.ndarray:
    """log f(eps) for a float array ``eps``, written over it.

    Gaussian: -eps^2 / (2 sigma^2) - log(2 pi sigma^2) / 2.
    Laplacian: -|eps| / b - log(2 b) with b = sigma / sqrt(2).

    Each numpy operation writes into ``eps``, so the log-densities cost no
    temporaries; the tests hold it bit for bit to the same operations, in
    the same order, on fresh arrays. The Laplacian's -|eps| / b is one
    division, |eps| / (-b): rounding to nearest is symmetric in sign, so
    every value, signed zeros and infinities included, is the same.
    Returns ``eps``.
    """
    if nm.kind is NoiseKind.GAUSSIAN:
        np.divide(eps, nm.sigma, out=eps)
        np.square(eps, out=eps)  # what ** 2 runs on an array
        np.multiply(-0.5, eps, out=eps)
        np.subtract(eps, 0.5 * _LOG_2PI, out=eps)
        np.subtract(eps, math.log(nm.sigma), out=eps)
    else:
        np.abs(eps, out=eps)
        np.divide(eps, -nm.b, out=eps)  # IEEE division is sign-symmetric: -|e| / b
        np.subtract(eps, math.log(2.0 * nm.b), out=eps)
    return eps


def sample(nm: NoiseModel, gen: np.random.Generator, size=None):
    """Draw from f using the supplied generator.

    Laplacian draws invert the CDF of a single uniform: with
    u ~ Uniform(-1/2, 1/2), eps = -b * sign(u) * log(1 - 2|u|). The
    log argument is clamped away from zero so the tail draw stays finite.
    """
    if nm.kind is NoiseKind.GAUSSIAN:
        out = nm.sigma * gen.standard_normal(size)
    else:
        u = gen.random(size) - 0.5
        tail = np.maximum(1.0 - 2.0 * np.abs(u), np.finfo(float).tiny)
        out = -nm.b * np.sign(u) * np.log(tail)
    return out if size is not None else float(out)
