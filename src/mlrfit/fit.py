"""The iteration loop shared by the EM and ADMM solvers, and its trace.

A solver supplies a generator of iterates; ``run`` draws the start from
the shared initialization policy, advances the generator once per
iteration, scores each iterate with the mixture log-likelihood, applies
the optional early stop on the primal residual, and times the loop.

The likelihood and the E-step both need log f(y - X b) at the same
coefficients, so they share one pass: the generator computes the
memberships at the start itself, and from then on ``run`` sends it the
memberships ``scoring.log_likelihood`` produced while scoring the iterate
the generator just yielded. The final iterate, the last of the budget or
the one that meets the early stop, is scored without them.
"""

import time
from dataclasses import dataclass
from typing import Callable, Generator, Optional, Tuple

import numpy as np

from . import scoring
from .errors import DimensionMismatch
from .model import Dataset, MlrParams, NoiseModel, SolverConfig, initial_params
from .model import check_int, check_non_negative

LAD_PATH_NA = "n/a"

# Called with the start, a generator of iterates: the coefficients and the
# primal residual, None where the solver has no consensus constraint. Each
# ``yield`` receives the K x N memberships at the iterate it yielded, a
# fresh array every time, so the solver may keep views of it.
Steps = Callable[[MlrParams], Generator[Tuple[MlrParams, Optional[float]], np.ndarray, None]]


@dataclass(frozen=True)
class FitTrace:
    """Per-iteration log-likelihoods plus the fitted coefficients.

    ``lad_path`` is the Laplacian M-step route EM ran ("n/a" otherwise);
    ``primal_residuals`` holds ADMM's ||X b - Z||_F per iteration and is
    None for EM.
    """

    params: MlrParams
    log_liks: np.ndarray
    wall_seconds: float
    lad_path: str = LAD_PATH_NA
    primal_residuals: Optional[np.ndarray] = None

    def __post_init__(self):
        lls = np.array(self.log_liks, dtype=float)
        lls.flags.writeable = False
        object.__setattr__(self, "log_liks", lls)
        if self.primal_residuals is not None:
            res = np.array(self.primal_residuals, dtype=float)
            if res.shape != lls.shape:
                raise DimensionMismatch("one residual per recorded likelihood")
            res.flags.writeable = False
            object.__setattr__(self, "primal_residuals", res)

    @property
    def n_iterations(self) -> int:
        return self.log_liks.shape[0]


def run(
    steps: Steps,
    data: Dataset,
    k: int,
    nm: NoiseModel,
    cfg: SolverConfig,
    lad_path: str = LAD_PATH_NA,
    stop_tol: Optional[float] = None,
) -> FitTrace:
    """Run ``cfg.n_iterations`` iterates of ``steps`` from the shared start.

    ``stop_tol`` stops the loop once an iterate's primal residual is at
    most that value; it must be a finite non-negative real. A sample with
    no probability mass at an iterate the loop goes on from raises
    DegenerateRow; at the final iterate it only scores -inf.
    """
    if stop_tol is not None:
        check_non_negative("stop_tol", stop_tol)
    params = initial_params(cfg, data.dim, check_int("k", k))
    log_liks = np.empty(cfg.n_iterations)
    residuals = np.empty(cfg.n_iterations)
    started = time.perf_counter()
    iterates = steps(params)
    params, residual = next(iterates)
    for t in range(cfg.n_iterations):
        if residual is not None:
            residuals[t] = residual
        last = t + 1 == cfg.n_iterations or (
            stop_tol is not None and residual is not None and residual <= stop_tol
        )
        # a fresh array each time: the solver may keep views of the last one
        w = None if last else np.empty((params.k_components, data.n_samples))
        log_liks[t] = scoring.log_likelihood(params, data, nm, memberships=w)
        if last:
            break
        params, residual = iterates.send(w)
    wall = time.perf_counter() - started
    return FitTrace(
        params=params,
        log_liks=log_liks[: t + 1],
        wall_seconds=wall,
        lad_path=lad_path,
        primal_residuals=None if residual is None else residuals[: t + 1],
    )
