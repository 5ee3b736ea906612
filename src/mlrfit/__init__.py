"""Mixed linear regression estimation via EM and an ADMM-based solver."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    Dataset,
    MlrParams,
    NoiseKind,
    NoiseModel,
    SolverConfig,
    initial_params,
    validate_problem,
)
