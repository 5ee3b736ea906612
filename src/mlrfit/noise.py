"""Log-kernels, their constants and samplers for the two noise families.

The log-density splits as log f(eps) = kernel(eps) + constant, where the
kernel carries every dependence on eps and is never positive, so
exp(kernel) lies in [0, 1] and cannot overflow. The scorer exponentiates
kernels and adds the constant once per call, not once per entry.
"""

import math

import numpy as np

from .model import NoiseKind, NoiseModel

_LOG_2PI = math.log(2.0 * math.pi)


def log_kernel_in_place(nm: NoiseModel, eps: np.ndarray) -> np.ndarray:
    """log f(eps) - ``log_constant(nm)`` for a float array ``eps``, written over it.

    Gaussian: -(eps / sigma)^2 / 2.
    Laplacian: -|eps| / b with b = sigma / sqrt(2).

    Each numpy operation writes into ``eps``, so the kernel costs no
    temporaries; the tests hold it bit for bit to the same operations, in
    the same order, on fresh arrays. The Laplacian's -|eps| / b is one
    division, |eps| / (-b): rounding to nearest is symmetric in sign, so
    every value, signed zeros and infinities included, is the same.
    A residual past the largest float, or one that overflows when divided
    or squared, gives -inf, the kernel's value to working precision.
    Returns ``eps``.
    """
    if nm.kind is NoiseKind.GAUSSIAN:
        np.divide(eps, nm.sigma, out=eps)
        np.square(eps, out=eps)  # what ** 2 runs on an array
        np.multiply(-0.5, eps, out=eps)
    else:
        np.abs(eps, out=eps)
        np.divide(eps, -nm.b, out=eps)  # IEEE division is sign-symmetric: -|e| / b
    return eps


def log_constant(nm: NoiseModel) -> float:
    """log f(0), the part of the log-density that does not depend on eps.

    Gaussian: -log(2 pi sigma^2) / 2. Laplacian: -log(2 b).
    """
    if nm.kind is NoiseKind.GAUSSIAN:
        return -0.5 * _LOG_2PI - math.log(nm.sigma)
    return -math.log(2.0 * nm.b)


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
