"""ADMM-based maximum-likelihood solver for mixed linear regression.

The mixture log-likelihood is rewritten over auxiliary per-sample fits
z_ik constrained to equal <x_i, b_k>. Each iteration updates memberships
from the current fitted values X b, minimizes a separable upper bound of
the augmented Lagrangian in Z in closed form per coordinate (a weighted
average of y_i and the shifted fit under Gaussian noise, a soft
threshold about y_i under Laplacian noise, Boyd et al. 2011, section
4.4.3), refits the coefficients by one pre-factorized least-squares
solve, and ascends the duals, lam + rho (X b - Z) (Boyd et al. 2011,
section 3.1). X b is computed once per iteration, right after the
coefficient solve, and serves the primal residual, the dual step and the
next iteration's memberships and Z-update. Like EM's, the per-iteration
arrays (fitted values, memberships, Z and the duals) are component-major,
K x N, so y broadcasts along each component's row. ``fit_admm`` hands
the iteration to the loop in ``mlrfit.fit``, which both solvers share.
"""

from typing import Optional

import numpy as np
import scipy.linalg

from . import fit, lad
from .em import e_step
from .fit import FitTrace
from .model import Dataset, MlrParams, NoiseKind, NoiseModel, SolverConfig

# Membership computation is the same posterior as EM's E-step.
responsibilities = e_step


def gram_cholesky(data: Dataset):
    """Cholesky factor of the ridge-stabilized X^T X, reusable across iterations."""
    return lad._ridge_cholesky(data.x.T @ data.x)


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
    always positive.
    """
    s2 = nm.sigma**2
    return (y * w + s2 * rho * fits + s2 * lam) / (w + s2 * rho)


def z_update_laplacian(
    fits: np.ndarray,
    lam: np.ndarray,
    rho: float,
    w: np.ndarray,
    y: np.ndarray,
    nm: NoiseModel,
) -> np.ndarray:
    """Closed-form minimizer of each coordinate's surrogate, Laplacian noise.

    The surrogate w |y_i - z| / b - lam z + rho/2 (f - z)^2 is convex with
    one kink at y_i, so its minimizer is a soft threshold about y_i: the
    below-branch stationary point zbar = f + (lam b + w) / (b rho) if it
    lies below y_i, the above-branch one ztil = f - (w - lam b) / (b rho)
    if it lies above y_i, and y_i otherwise. Since w >= 0, zbar >= ztil,
    so at most one of the two conditions holds. All arrays are K x N.
    """
    b = nm.b
    zbar = fits + (lam * b + w) / (b * rho)
    ztil = fits - (w - lam * b) / (b * rho)
    return np.where(zbar < y, zbar, np.where(ztil > y, ztil, y))


def beta_update(
    z: np.ndarray, lam: np.ndarray, data: Dataset, rho: float, chol
) -> MlrParams:
    """Least-squares coefficient refit b = (X^T X)^-1 X^T (Z - lam / rho)^T.

    ``z`` and ``lam`` are K x N. The right-hand side is transposed into a
    contiguous N x K copy, so X^T multiplies the same memory layout it
    would for N x K arrays, rounding included. ``chol`` was checked when
    it was built, so the solve skips scipy's finiteness scan; a non-finite
    result still raises NonFiniteInput in ``MlrParams``.
    """
    rhs = data.x.T @ np.ascontiguousarray((z - lam / rho).T)
    return MlrParams(scipy.linalg.cho_solve(chol, rhs, check_finite=False))


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
    matching the fixed-iteration protocol of the EM benchmark.
    """
    chol = gram_cholesky(data)
    xt, y, rho = data.x.T, data.y, cfg.rho

    def steps(params):
        fits = params.beta.T @ xt
        lam = np.zeros_like(fits)
        while True:
            w = responsibilities(fits, y, nm)
            if nm.kind is NoiseKind.GAUSSIAN:
                z = z_update_gaussian(fits, lam, rho, w, y, nm)
            else:
                z = z_update_laplacian(fits, lam, rho, w, y, nm)
            params = beta_update(z, lam, data, rho, chol)
            fits = params.beta.T @ xt
            consensus_gap = fits - z
            lam = lam + rho * consensus_gap
            yield params, float(np.linalg.norm(consensus_gap))

    return fit.run(steps, data, k, nm, cfg, stop_tol=stop_tol)
