"""ADMM-based maximum-likelihood solver for mixed linear regression.

The mixture log-likelihood is rewritten over auxiliary per-sample fits
z_ik constrained to equal <x_i, b_k>. The iteration keeps the duals in
scaled form, u = lam / rho (Boyd et al. 2011, section 3.1.1), so no step
divides the duals by rho or multiplies the gap by it. Each iteration
updates memberships from the current fitted values X b, minimizes a
separable upper bound of the augmented Lagrangian in Z in closed form per
coordinate around the centre c = Xb + u (a weighted average of y_i and
c under Gaussian noise; under Laplacian noise y_i clipped to the interval
of half-width w/(b rho) around c, the proximal operator of |.|, Boyd et
al. 2011, section 4.4.3), refits the coefficients by one matmul with the
least-squares projection P = (X^T X)^-1 X^T of Z - u, which depends on X
alone and is formed once per fit (Boyd et al. 2011, section 4.2), and
ascends the scaled duals, u + (X b - Z). X b is computed once per
iteration, right after the coefficient refit, and serves the primal
residual, the dual step, the fit loop's likelihood and the next
iteration's Z-update. Like EM's, the per-iteration arrays (fitted values,
memberships, Z and the duals) are component-major, K x N, so y
broadcasts along each component's row. The scaled duals, Z, the
Z-update's scratch and one array that holds Z - u and then the gap are
allocated once per fit and every step writes into them; the fitted
values and the memberships stay fresh arrays each iteration, since the
fit loop and the solver may keep them. The step constants,
sigma^2 rho and b rho, are checked once per fit to be finite and
positive. ``fit_admm`` hands the iteration
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
from .model import Dataset, NoiseKind, NoiseModel, SolverConfig, fitted_values


def gram_projection(data: Dataset) -> np.ndarray:
    """The d x N least-squares projection P = ridge_gram(X^T X)^-1 X^T.

    X^T X is formed under an error state that turns an overflow into
    NonFiniteInput, with no RuntimeWarning, and the LU factorization of the
    inverse raises SingularGram if the ridge-stabilized matrix is singular
    (see ``lad.ridge_gram``). The d x d inverse then costs less than
    solving against the N columns of X^T.
    """
    xt = data.x.T
    try:
        with np.errstate(over="raise", invalid="raise"):
            inverse = np.linalg.inv(lad.ridge_gram(xt @ data.x))
    except FloatingPointError as exc:
        raise NonFiniteInput(f"Gram matrix overflowed: {exc}") from None
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"Gram matrix singular: {exc}") from exc
    return inverse @ xt


def _step_constant(nm: NoiseModel, rho: float) -> float:
    """The Z-update's constant: sigma^2 rho under Gaussian noise, b rho under Laplacian."""
    return nm.sigma * nm.sigma * rho if nm.kind is NoiseKind.GAUSSIAN else nm.b * rho


def z_update_gaussian(
    fits: np.ndarray,
    u: np.ndarray,
    rho: float,
    w: np.ndarray,
    y: np.ndarray,
    nm: NoiseModel,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Closed-form minimizer of each coordinate's surrogate, Gaussian noise.

    z_ki = (y_i w_ki + s^2 rho c_ki) / (w_ki + s^2 rho), c = f + u, with K x N
    ``fits`` f = (X b)^T, scaled duals ``u`` = lam / rho and memberships
    ``w``; the denominator is positive when s^2 rho is, which ``fit_admm``
    checks once per fit. Computed in ``out`` and ``scratch``, K x N arrays
    that are allocated if not given. Returns ``out``.
    """
    s2rho = _step_constant(nm, rho)
    z = np.multiply(y, w, out=out)
    centre = np.add(fits, u, out=scratch)
    centre *= s2rho
    z += centre
    z /= np.add(w, s2rho, out=centre)
    return z


def z_update_laplacian(
    fits: np.ndarray,
    u: np.ndarray,
    rho: float,
    w: np.ndarray,
    y: np.ndarray,
    nm: NoiseModel,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
    hi: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Closed-form minimizer of each coordinate's surrogate, Laplacian noise.

    The surrogate w |y_i - z| / b - rho u z + rho/2 (f - z)^2 is minimized
    by y_i clipped to [c - w/(b rho), c + w/(b rho)], c = f + u, the
    proximal operator of |.|; all arrays are K x N. The centre c goes into
    ``out``, the reach w/(b rho) into ``scratch`` and the upper bound into
    ``hi``; the lower bound overwrites c and the clip writes its result
    over it, in ``out``. Each is allocated if not given. Returns ``out``.
    """
    centre = np.add(fits, u, out=out)
    reach = np.divide(w, _step_constant(nm, rho), out=scratch)
    hi = np.add(centre, reach, out=hi)
    centre -= reach
    return np.clip(y, centre, hi, out=centre)


def beta_update(
    z: np.ndarray, u: np.ndarray, proj: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Least-squares coefficient refit b = P (Z - u)^T, a d x K array.

    ``z`` and the scaled duals ``u`` are K x N, and Z - u is written into
    ``out`` if given; ``proj`` is ``gram_projection``'s P. The refit is a
    bare matmul: a non-finite result raises NonFiniteInput in the fit loop,
    which checks every iterate.
    """
    return proj @ np.subtract(z, u, out=out).T


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
    matching the fixed-iteration protocol of the EM benchmark. A step
    constant, sigma^2 rho under Gaussian noise or b rho under Laplacian,
    that is not finite and positive raises NonFiniteInput before the
    first iteration.
    """
    rho = cfg.rho
    constant = _step_constant(nm, rho)
    if not (math.isfinite(constant) and constant > 0.0):
        # checked once here, so no Z-update divides by 0 or by infinity
        name = "sigma**2 * rho" if nm.kind is NoiseKind.GAUSSIAN else "b * rho"
        raise NonFiniteInput(
            f"{name} = {constant!r} is not a finite positive step constant "
            f"(sigma = {nm.sigma!r}, rho = {rho!r})"
        )
    started = time.perf_counter()  # the fit's wall time counts the projection
    proj = gram_projection(data)
    xt, y = data.x.T, data.y

    def steps(start, fits, w):
        # every K x N array but the fresh fits and memberships, allocated once
        # per fit: the scaled duals, Z, the Z-update's scratch and one array
        # that holds the Laplacian upper bound, then Z - u, then the gap
        u = np.zeros_like(fits)
        z, scratch, work = np.empty((3, *fits.shape))
        while True:
            if nm.kind is NoiseKind.GAUSSIAN:
                z = z_update_gaussian(fits, u, rho, w, y, nm, z, scratch)
            else:
                z = z_update_laplacian(fits, u, rho, w, y, nm, z, scratch, work)
            beta = beta_update(z, u, proj, work)
            fits = fitted_values(beta, xt)
            consensus_gap = np.subtract(fits, z, out=work)
            u += consensus_gap
            # ||gap||_F without BLAS, whose threaded dot products round by thread count
            residual = math.sqrt(np.einsum("kn,kn->", consensus_gap, consensus_gap))
            w = yield fit.Iterate(beta, fits, residual)

    return fit.run(steps, data, k, nm, cfg, stop_tol=stop_tol, started=started)
