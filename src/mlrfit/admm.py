"""ADMM-based maximum-likelihood solver for mixed linear regression.

The mixture log-likelihood is rewritten over auxiliary per-sample fits
z_ik constrained to equal <x_i, b_k>. Each iteration updates memberships
from the current fitted values X b, minimizes a separable upper bound of
the augmented Lagrangian in Z in closed form per coordinate (a weighted
average of y_i and the shifted fit under Gaussian noise; under Laplacian
noise y_i clipped to the interval of half-width w/(b rho) around
c = Xb + lam/rho, the proximal operator of |.|, Boyd et al. 2011, section
4.4.3), refits the coefficients by one pre-factorized least-squares
solve, and ascends the duals, lam + rho (X b - Z) (Boyd et al. 2011,
section 3.1). X b is computed once per iteration, right after the
coefficient solve, and serves the primal residual, the dual step and the
next iteration's Z-update. Like EM's, the per-iteration arrays (fitted
values, memberships, Z and the duals) are component-major, K x N, so y
broadcasts along each component's row. ``fit_admm`` hands the iteration
to the loop in ``mlrfit.fit``, which both solvers share; after the first,
the memberships come from the pass that loop's likelihood makes over the
same log-densities.
"""

from typing import Optional

import numpy as np
import scipy.linalg

from . import fit, lad
from .em import e_step
from .errors import SingularGram
from .fit import FitTrace
from .model import Dataset, MlrParams, NoiseKind, NoiseModel, SolverConfig

# Membership computation is the same posterior as EM's E-step.
responsibilities = e_step


def gram_cholesky(data: Dataset):
    """Cholesky factor of the ridge-stabilized X^T X; SingularGram if it has none."""
    try:
        return scipy.linalg.cho_factor(lad.ridge_gram(data.x.T @ data.x))
    except scipy.linalg.LinAlgError as exc:
        raise SingularGram(f"Gram matrix not positive definite: {exc}") from exc


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

    The surrogate w |y_i - z| / b - lam z + rho/2 (f - z)^2 is minimized by
    y_i clipped to [c - w/(b rho), c + w/(b rho)], c = f + lam/rho, the
    proximal operator of |.|; all arrays are K x N.
    """
    centre = fits + lam / rho
    reach = w / (nm.b * rho)
    return np.clip(y, centre - reach, centre + reach)


def beta_update(
    z: np.ndarray, lam: np.ndarray, data: Dataset, rho: float, chol
) -> MlrParams:
    """Least-squares coefficient refit b = (X^T X)^-1 X^T (Z - lam / rho)^T.

    ``z`` and ``lam`` are K x N. ``chol`` was checked when it was built, so
    the solve skips scipy's finiteness scan; a non-finite result still
    raises NonFiniteInput in ``MlrParams``.
    """
    rhs = data.x.T @ (z - lam / rho).T
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
        w = responsibilities(fits, y, nm)
        while True:
            if nm.kind is NoiseKind.GAUSSIAN:
                z = z_update_gaussian(fits, lam, rho, w, y, nm)
            else:
                z = z_update_laplacian(fits, lam, rho, w, y, nm)
            params = beta_update(z, lam, data, rho, chol)
            fits = params.beta.T @ xt
            consensus_gap = fits - z
            lam += rho * consensus_gap
            w = yield params, float(np.linalg.norm(consensus_gap))

    return fit.run(steps, data, k, nm, cfg, stop_tol=stop_tol)
