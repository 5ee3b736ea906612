"""ADMM-based maximum-likelihood solver for mixed linear regression.

The mixture log-likelihood is rewritten over auxiliary per-sample fits
z_ik constrained to equal <x_i, b_k>. Each iteration updates memberships
from the current fitted values X b, minimizes a separable upper bound of
the augmented Lagrangian in Z in closed form per coordinate (a weighted
average of y_i and the shifted fit under Gaussian noise; under Laplacian
noise y_i clipped to the interval of half-width w/(b rho) around
c = Xb + lam/rho, the proximal operator of |.|, Boyd et al. 2011, section
4.4.3), refits the coefficients by one matmul with the least-squares
projection P = (X^T X)^-1 X^T, which depends on X alone and is formed
once per fit (Boyd et al. 2011, section 4.2), and ascends the duals,
lam + rho (X b - Z) (Boyd et al. 2011, section 3.1). X b is computed once
per iteration, right after the coefficient refit, and serves the primal
residual, the dual step, the fit loop's likelihood and the next
iteration's Z-update. Like EM's, the per-iteration arrays (fitted values,
memberships, Z and the duals) are component-major, K x N, so y
broadcasts along each component's row. ``fit_admm`` hands the iteration
to the loop in ``mlrfit.fit``, which both solvers share: each iteration
yields one ``fit.Iterate`` record of the plain d x K coefficients, their
fitted values and the primal residual, and the loop checks and scores it
and computes every membership: the start's through ``scoring.e_step``,
EM's E-step, and each later one in the pass its likelihood makes over
the same log-densities.
"""

import math
import time
from typing import Optional

import numpy as np

from . import fit, lad
from .errors import NonFiniteInput, SingularGram
from .fit import FitTrace
from .model import Dataset, NoiseKind, NoiseModel, SolverConfig


def gram_projection(data: Dataset) -> np.ndarray:
    """The d x N least-squares projection P = ridge_gram(X^T X)^-1 X^T.

    Raises NonFiniteInput if X^T X overflows, the check of
    ``lad.gated_gram``, and SingularGram if its ridge-stabilized form is
    singular, which the LU factorization of the inverse finds. The d x d
    inverse then costs less than solving against the N columns of X^T.
    """
    xt = data.x.T
    try:
        inverse = np.linalg.inv(lad.gated_gram(xt, data.x))
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"Gram matrix singular: {exc}") from exc
    return inverse @ xt


def z_update_gaussian(
    fits: np.ndarray,
    lam: np.ndarray,
    rho: float,
    w: np.ndarray,
    y: np.ndarray,
    nm: NoiseModel,
) -> np.ndarray:
    """Closed-form minimizer of each coordinate's surrogate, Gaussian noise.

    z_ki = (y_i w_ki + s^2 rho <x_i, b_k> + s^2 lam_ki) / (w_ki + s^2 rho),
    with K x N ``fits`` = (X b)^T and memberships ``w``; the denominator is
    always positive. Computed in its output and one scratch array, in the
    order the formula reads.
    """
    s2 = nm.sigma**2
    z = np.multiply(y, w)
    scratch = np.multiply(s2 * rho, fits)
    z += scratch
    z += np.multiply(s2, lam, out=scratch)
    z /= np.add(w, s2 * rho, out=scratch)
    return z


def z_update_laplacian(
    fits: np.ndarray,
    lam: np.ndarray,
    rho: float,
    w: np.ndarray,
    y: np.ndarray,
    nm: NoiseModel,
) -> np.ndarray:
    """Closed-form minimizer of each coordinate's surrogate, Laplacian noise.

    The surrogate w |y_i - z| / b - lam z + rho/2 (f - z)^2 is minimized by
    y_i clipped to [c - w/(b rho), c + w/(b rho)], c = f + lam/rho, the
    proximal operator of |.|; all arrays are K x N. Computed in three
    arrays besides the inputs: c, the reach w/(b rho) and the upper bound,
    which the clip overwrites with its result.
    """
    centre = lam / rho
    centre += fits
    reach = w / (nm.b * rho)
    hi = centre + reach
    centre -= reach
    return np.clip(y, centre, hi, out=hi)


def beta_update(z: np.ndarray, lam: np.ndarray, rho: float, proj: np.ndarray) -> np.ndarray:
    """Least-squares coefficient refit b = P (Z - lam / rho)^T, a d x K array.

    ``z`` and ``lam`` are K x N and ``proj`` is ``gram_projection``'s P. The
    refit is a bare matmul: a non-finite result raises NonFiniteInput in
    the fit loop, which checks every iterate.
    """
    return proj @ (z - lam / rho).T


def fit_admm(
    data: Dataset,
    k: int,
    nm: NoiseModel,
    cfg: SolverConfig,
    stop_tol: Optional[float] = None,
) -> FitTrace:
    """Run the fixed ADMM iteration budget and record the trace.

    Starts from the shared initialization policy with zero duals.
    ``stop_tol`` optionally stops early once the consensus
    residual ||X b - Z||_F drops to it; by default the full budget runs,
    matching the fixed-iteration protocol of the EM benchmark. Under
    Gaussian noise a sigma whose square overflows raises NonFiniteInput.
    """
    if nm.kind is NoiseKind.GAUSSIAN and not math.isfinite(nm.sigma * nm.sigma):
        # checked once here, so z_update_gaussian's s^2 never overflows
        raise NonFiniteInput(f"sigma**2 overflowed for sigma = {nm.sigma!r}")
    started = time.perf_counter()  # the fit's wall time counts the projection
    proj = gram_projection(data)
    xt, y, rho = data.x.T, data.y, cfg.rho

    def steps(start, fits, w):
        lam = np.zeros_like(fits)
        while True:
            if nm.kind is NoiseKind.GAUSSIAN:
                z = z_update_gaussian(fits, lam, rho, w, y, nm)
            else:
                z = z_update_laplacian(fits, lam, rho, w, y, nm)
            beta = beta_update(z, lam, rho, proj)
            fits = beta.T @ xt
            consensus_gap = fits - z
            lam += rho * consensus_gap
            # ||gap||_F without BLAS, whose threaded dot products round by thread count
            residual = math.sqrt(np.einsum("kn,kn->", consensus_gap, consensus_gap))
            w = yield fit.Iterate(beta, fits, residual)

    return fit.run(steps, data, k, nm, cfg, stop_tol=stop_tol, started=started)
