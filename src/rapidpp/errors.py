"""Exception types shared across the package."""


class RapidppError(Exception):
    """Base class for all package-specific errors."""


class GeneratorValidationError(RapidppError):
    """A proposed transition-rate matrix is not a usable generator."""


class NonSquareError(GeneratorValidationError):
    pass


class NegativeOffDiagonalError(GeneratorValidationError):
    pass


class RowSumError(GeneratorValidationError):
    """Some row of the rate matrix does not sum to zero."""


class ReducibleError(GeneratorValidationError):
    """The chain is not irreducible (its positive-rate graph is not strongly connected)."""


class SingularSystemError(RapidppError):
    """A linear system or a matrix exponential that should be computable turned
    out numerically degenerate, a first-order pmf left double range (an infinite
    excess times a zero difference of the baseline, say), or a result holds a
    number JSON cannot write."""


class ZeroMeanRateError(RapidppError):
    """The long-run average arrival rate is zero, so no analysis is possible."""


class DegenerateMeanError(RapidppError, ValueError):
    """A baseline mean that must be positive is not (t = 0, or a rate times t that
    underflows to zero).

    It is a ValueError, like every other unusable argument value.
    """


class EnumerationTooLargeError(RapidppError):
    """An exact table or grid would exceed its supported size."""


class ConfigError(RapidppError):
    """A configuration document is malformed or inconsistent.

    ``path`` locates the offending field, e.g. ``"model.generator[1][0]"``.
    """

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class ArgumentError(ConfigError, ValueError):
    """An unusable argument value; ``path`` names the parameter, which is
    also the config field that feeds it (``eps``, ``eps_grid``, ``t``, ``reps``).
    """
