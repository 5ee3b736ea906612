"""Exception types shared across the package."""


class MlrError(Exception):
    """Base class for all mlrfit errors."""


class DimensionMismatch(MlrError):
    """Shapes of related objects disagree."""


class NonFiniteInput(MlrError, ValueError):
    """An input contains NaN or infinite entries."""


class DegenerateRow(MlrError):
    """A responsibility row lost all probability mass."""


class CollapsedComponent(MlrError, ValueError):
    """A mixture component has no responsibility mass left to fit."""


class SingularGram(MlrError):
    """A ridge-stabilized Gram matrix could not be factorized."""


class SolverStall(MlrError):
    """An inner iterative solver stopped short of its tolerance."""


class IterationLimit(MlrError):
    """An iterative routine exhausted its pivot or iteration budget."""


class InsufficientData(MlrError):
    """Too few observations for the requested statistic."""


class ZeroVariance(MlrError):
    """A statistic is undefined because the sample variance is zero."""
