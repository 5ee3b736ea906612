"""The iteration loop shared by the EM and ADMM solvers, and its trace.

A solver supplies a generator of iterates; ``run`` draws the start from
the shared initialization policy, advances the generator once per
iteration, checks and scores each iterate with the mixture
log-likelihood, applies the optional early stop on the primal residual,
and times the loop.

Each iterate is one ``Iterate`` record: the plain d x K coefficients,
their K x N fitted values (X b)^T and the primal residual. ``run`` scores
the record's fitted values, so X b is formed once per iteration, by the
solver, and builds the ``MlrParams`` of the result once, at the end.

``run`` hands the generator the start's fitted values (X b)^T and their
memberships, ``scoring.e_step``, then sends it the memberships that
``scoring.log_likelihood`` produced while scoring the iterate it just
yielded: the likelihood and the E-step share one pass, which
exponentiates the log-kernels of y - X b, adds the density's constant
once, and redoes with a peak shift only the samples far from every
component. The final iterate, the last of the budget or the one that
meets the early stop, is scored without them.
"""

import math
import time
from dataclasses import dataclass
from typing import Callable, Generator, NamedTuple, Optional

import numpy as np

from . import scoring
from .errors import DimensionMismatch, NonFiniteInput
from .model import Dataset, MlrParams, NoiseModel, SolverConfig, initial_params
from .model import check_int, check_non_negative, fitted_values

LAD_PATH_NA = "n/a"


class Iterate(NamedTuple):
    """One iterate of a solver: the d x K coefficients ``beta``, their K x N
    fitted values ``fits`` = (X b)^T, and the primal residual, None without
    a consensus constraint."""

    beta: np.ndarray
    fits: np.ndarray
    residual: Optional[float] = None


# Called with the start and its K x N fitted values and memberships, a
# generator of iterates. Each ``yield`` receives the memberships at its
# iterate, a fresh array every time, so the solver may keep views of it.
Iterates = Generator[Iterate, np.ndarray, None]
Steps = Callable[[MlrParams, np.ndarray, np.ndarray], Iterates]


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
    started: Optional[float] = None,
) -> FitTrace:
    """Run ``cfg.n_iterations`` iterates of ``steps`` from the shared start.

    ``stop_tol`` stops the loop once an iterate's primal residual is at
    most that value; it must be a finite non-negative real. An iterate
    with a NaN or infinite coefficient raises NonFiniteInput before it is
    scored. A sample with no probability mass at an iterate the loop goes
    on from raises DegenerateRow; at the final iterate it only scores
    -inf. ``started`` is the ``time.perf_counter()`` reading taken before
    a solver's per-fit setup, so ``wall_seconds`` counts it; by default
    the clock starts here.
    """
    if stop_tol is not None:
        check_non_negative("stop_tol", stop_tol)
    k = check_int("k", k)
    start = initial_params(cfg, data.dim, k)
    log_liks = np.empty(cfg.n_iterations)
    residuals = np.empty(cfg.n_iterations)
    if started is None:
        started = time.perf_counter()
    fits = fitted_values(start.beta, data.x.T)
    iterates = steps(start, fits, scoring.e_step(fits, data.y, nm))
    del fits  # the generator holds them alone, so it can drop them
    it = next(iterates)
    for t in range(cfg.n_iterations):
        # d x K entries: a Python pass costs less than a ufunc and its reduction
        if not all(map(math.isfinite, it.beta.flat)):
            raise NonFiniteInput(f"iterate {t + 1} has NaN or infinite coefficients")
        if it.residual is not None:
            residuals[t] = it.residual
        last = t + 1 == cfg.n_iterations or (
            stop_tol is not None and it.residual is not None and it.residual <= stop_tol
        )
        # a fresh array each time: the solver may keep views of the last one
        w = None if last else np.empty((k, data.n_samples))
        log_liks[t] = scoring.log_likelihood(None, data, nm, fits=it.fits, memberships=w)
        if last:
            break
        it = iterates.send(w)
    params = MlrParams(it.beta)
    wall = time.perf_counter() - started
    return FitTrace(
        params=params,
        log_liks=log_liks[: t + 1],
        wall_seconds=wall,
        lad_path=lad_path,
        primal_residuals=None if it.residual is None else residuals[: t + 1],
    )
