"""Exception types shared across the package.

The CLI maps these onto stable exit codes, so raising the right class is
part of the public contract.
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

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class StabilityError(RuntimeError):
    """No stabilizing solution exists or could be found."""


class LearnabilityError(ValueError):
    """Sampling interval too coarse for the plant: its sampled data alias A."""


class IdentifiabilityError(ValueError):
    """Dataset cannot identify the model: too little excitation, or a mode too fast for dt."""


class EstimationError(RuntimeError):
    """A fitted quantity violates its required structure (e.g. R not PD)."""


class AdmmDivergenceError(RuntimeError):
    """ADMM residual blew up; a larger penalty parameter usually helps."""


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
