"""Core value types shared by the solvers and the benchmark harness.

All types are immutable after construction (backing arrays are copied and
marked read-only), so they can be shared freely across workers. Component
indices are 0-based everywhere in memory; file formats are 1-based and
converted at the I/O boundary.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput
from .rng import DOMAIN_INIT, stream


def _locked_array(values, dtype=float, ndim=None, name="array") -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-dimensional, got {arr.ndim}")
    arr.flags.writeable = False
    return arr


def _require_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteInput(f"{name} contains NaN or infinite entries")


# Input rules, each stated once: the types below, synth, the solvers, the
# benchmark grid and the CLI flags all call these. A non-finite value raises
# NonFiniteInput (itself a ValueError), an out-of-range or fractional one
# ValueError.

# The EM Laplacian M-step routes a caller may ask for.
LAD_PATHS = (LAD_PATH_AUTO, LAD_PATH_LP, LAD_PATH_IRLS) = ("auto", "lp", "irls")


def _exact_int(name: str, value) -> int:
    """``value`` as an int, never rounded: ints, numpy ints and integral floats."""
    if not isinstance(value, numbers.Integral):  # int() of an int is exact at any size
        real = float(value)
        if not math.isfinite(real):
            raise NonFiniteInput(f"{name} must be an integer, got {real}")
        if not real.is_integer():
            raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def check_int(name: str, value) -> int:
    """``value`` as an int of at least 1."""
    value = _exact_int(name, value)
    if value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value}")
    return value


def _check_real(name: str, value, rule: str, in_range) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteInput(f"{name} must be a {rule}, got {value}")
    if not in_range(value):
        raise ValueError(f"{name} must be a {rule}, got {value}")
    return value


def check_positive(name: str, value) -> float:
    """``value`` as a positive finite float (sigma, rho)."""
    return _check_real(name, value, "positive finite real", lambda v: v > 0.0)


def check_non_negative(name: str, value) -> float:
    """``value`` as a finite non-negative float (stop_tol)."""
    return _check_real(name, value, "finite non-negative real", lambda v: v >= 0.0)


def check_seed(name: str, value) -> int:
    """``value`` as an int that fits in an unsigned 64-bit integer."""
    value = _exact_int(name, value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must be in [0, 2**64), got {value}")
    return value


def check_lad_route(path: str) -> None:
    """Check an EM LAD route, whatever the noise."""
    if path not in LAD_PATHS:
        raise ValueError(f"unknown LAD path {path!r}")


class NoiseKind(enum.Enum):
    GAUSSIAN = "gaussian"
    LAPLACIAN = "laplacian"


@dataclass(frozen=True)
class MlrParams:
    """Coefficients of a K-component mixed linear model.

    ``beta`` has shape (d, K); column k holds the coefficient vector of
    component k.
    """

    beta: np.ndarray

    def __post_init__(self):
        beta = _locked_array(self.beta, ndim=2, name="beta")
        if beta.shape[0] < 1 or beta.shape[1] < 1:
            raise DimensionMismatch("beta must be a non-empty d x K matrix")
        _require_finite(beta, "beta")
        object.__setattr__(self, "beta", beta)

    @property
    def dim(self) -> int:
        return self.beta.shape[0]

    @property
    def k_components(self) -> int:
        return self.beta.shape[1]


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise family with known standard deviation.

    Both families are parameterized by sigma, the standard deviation; the
    Laplace scale is the derived quantity b = sigma / sqrt(2), which makes
    the variance sigma**2 in both cases.
    """

    kind: NoiseKind
    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kind", NoiseKind(self.kind))
        object.__setattr__(self, "sigma", check_positive("sigma", self.sigma))

    @property
    def b(self) -> float:
        """Laplace scale, sigma / sqrt(2)."""
        return self.sigma / math.sqrt(2.0)


@dataclass(frozen=True)
class Dataset:
    """Observed covariates and responses, optionally with ground truth.

    ``x`` is (N, d) with one sample per row, ``y`` is (N,). ``labels``
    holds 0-based generating-component indices when known, and
    ``true_params`` the generating coefficients.
    """

    x: np.ndarray
    y: np.ndarray
    labels: Optional[np.ndarray] = None
    true_params: Optional[MlrParams] = None

    def __post_init__(self):
        x = _locked_array(self.x, ndim=2, name="x")
        y = _locked_array(self.y, ndim=1, name="y")
        _require_finite(x, "x")
        _require_finite(y, "y")
        if x.shape[0] != y.shape[0]:
            raise DimensionMismatch(
                f"x has {x.shape[0]} rows but y has {y.shape[0]} entries"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if self.labels is not None:
            labels = _locked_array(self.labels, dtype=np.int64, ndim=1, name="labels")
            if labels.shape[0] != y.shape[0]:
                raise DimensionMismatch("labels length must match y")
            if labels.size and labels.min() < 0:
                raise ValueError("labels must be 0-based component indices")
            object.__setattr__(self, "labels", labels)
        if self.true_params is not None:
            if not isinstance(self.true_params, MlrParams):
                raise TypeError("true_params must be an MlrParams")
            if self.true_params.dim != x.shape[1]:
                raise DimensionMismatch("true_params dimension disagrees with x")
            if self.labels is not None and self.labels.size:
                if int(self.labels.max()) >= self.true_params.k_components:
                    raise ValueError("labels exceed the number of true components")

    @property
    def n_samples(self) -> int:
        return self.y.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, penalty and seeding shared by both solvers.

    ``rho`` is the ADMM penalty and is ignored by EM; the default of 5.0
    keeps the Laplacian consensus iteration from settling into poor
    stationary points at moderate sample sizes (the Gaussian iteration is
    insensitive over this range). ``init_params`` overrides the seeded random
    initialization when given.
    """

    n_iterations: int
    rho: float = 5.0
    seed: int = 0
    init_params: Optional[MlrParams] = None

    def __post_init__(self):
        object.__setattr__(self, "n_iterations", check_int("n_iterations", self.n_iterations))
        object.__setattr__(self, "rho", check_positive("rho", self.rho))
        object.__setattr__(self, "seed", check_seed("seed", self.seed))
        if self.init_params is not None and not isinstance(self.init_params, MlrParams):
            raise TypeError("init_params must be an MlrParams")


def validate_problem(params: MlrParams, data: Dataset) -> None:
    """Raise unless the parameter and data dimensions agree."""
    if params.dim != data.dim:
        raise DimensionMismatch(
            f"params have dimension {params.dim} but data has {data.dim}"
        )


def initial_params(cfg: SolverConfig, dim: int, k_components: int) -> MlrParams:
    """Starting coefficients shared by every solver.

    Either the explicit ``cfg.init_params`` or i.i.d. standard normal
    entries drawn from the initialization stream of ``cfg.seed``, so two
    solvers handed the same config always start from the same point.
    """
    if cfg.init_params is not None:
        given = cfg.init_params
        if given.dim != dim or given.k_components != k_components:
            raise DimensionMismatch("init_params shape disagrees with the problem")
        return given
    gen = stream(cfg.seed, DOMAIN_INIT)
    return MlrParams(gen.standard_normal((dim, k_components)))
