"""Exception types shared across the package.

Exit codes 3, 4, 5 and 7 each have exactly one class here, which carries
its code as the class attribute ``exit_code``; ``cli._exit_code`` returns
it. Any other ``ValueError`` or ``OSError`` exits 2, and anything else
exits 1, which is a bug. Raising the right class is part of the public
contract.
"""


class DimensionError(ValueError):
    """Matrix/vector shapes do not conform."""


class AsymmetryError(ValueError):
    """A matrix required to be symmetric is asymmetric beyond tolerance."""


class RankDeficiencyError(ValueError):
    """A least-squares system is rank deficient.

    ``triangle`` is an upper triangle R with R^T R = A^T A, so its right
    singular vectors are A's.
    """

    def __init__(self, message: str, rank: int, triangle):
        super().__init__(message)
        self.rank = rank
        self.triangle = triangle


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance, or the ADMM residual is not finite.

    The Riccati refinement raises it when a step fails to lower a residual above
    its rounding bound, or when the residual is not finite.
    """

    exit_code = 5


class StabilityError(RuntimeError):
    """No stabilizing solution exists or could be found."""

    exit_code = 7


class LearnabilityError(ValueError):
    """Sampling interval too coarse for the plant: its sampled data alias A."""

    exit_code = 3


class IdentifiabilityError(ValueError):
    """Dataset cannot identify the model, or its fitted R is not positive definite."""

    exit_code = 4


class DatasetFormatError(ValueError):
    """A dataset file is malformed."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ConfigError(ValueError):
    """A scenario/config file is invalid."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
