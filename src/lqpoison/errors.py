"""Exception types shared across the package.

Each class with its own CLI exit code carries it as the class attribute
``exit_code``, which ``cli._exit_code`` returns; any other ``ValueError``
(``OSError``, ``KeyError``) exits 2, anything else 1. Raising the right
class is part of the public contract.
"""


class DimensionError(ValueError):
    """Matrix/vector shapes do not conform."""


class AsymmetryError(ValueError):
    """A matrix required to be symmetric is asymmetric beyond tolerance."""


class RankDeficiencyError(ValueError):
    """A least-squares system is rank deficient."""

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""

    exit_code = 5


class StabilityError(RuntimeError):
    """No stabilizing solution exists or could be found."""

    exit_code = 7


class LearnabilityError(ValueError):
    """Sampling interval too coarse for the plant: its sampled data alias A."""

    exit_code = 3


class IdentifiabilityError(ValueError):
    """Dataset cannot identify the model: too little excitation, or a mode too fast for dt."""

    exit_code = 4


class EstimationError(RuntimeError):
    """A fitted quantity violates its required structure (e.g. R not PD)."""

    exit_code = 4


class AdmmDivergenceError(RuntimeError):
    """ADMM residual blew up; a larger penalty parameter usually helps."""

    exit_code = 5


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
