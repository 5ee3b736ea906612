"""The iteration loop shared by the EM and ADMM solvers, and its trace.

A solver supplies a generator of iterates; ``run`` draws the start from
the shared initialization policy, advances the generator once per
iteration, scores each iterate with the mixture log-likelihood, applies
the optional early stop on the primal residual, and times the loop.
"""

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from . import scoring
from .errors import DimensionMismatch
from .model import Dataset, MlrParams, NoiseModel, SolverConfig, initial_params
from .model import check_int, check_non_negative

LAD_PATH_NA = "n/a"

# An iterate: the coefficients and the primal residual, None where the
# solver has no consensus constraint.
Steps = Callable[[MlrParams], Iterator[Tuple[MlrParams, Optional[float]]]]


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
    most that value; it must be a finite non-negative real.
    """
    if stop_tol is not None:
        check_non_negative("stop_tol", stop_tol)
    params = initial_params(cfg, data.dim, check_int("k", k))
    log_liks = np.empty(cfg.n_iterations)
    residuals = np.empty(cfg.n_iterations)
    started = time.perf_counter()
    iterates = itertools.islice(steps(params), cfg.n_iterations)
    for t, (params, residual) in enumerate(iterates):
        log_liks[t] = scoring.log_likelihood(params, data, nm)
        if residual is not None:
            residuals[t] = residual
            if stop_tol is not None and residual <= stop_tol:
                break
    wall = time.perf_counter() - started
    return FitTrace(
        params=params,
        log_liks=log_liks[: t + 1],
        wall_seconds=wall,
        lad_path=lad_path,
        primal_residuals=None if residual is None else residuals[: t + 1],
    )
