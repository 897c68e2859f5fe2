"""Exception types shared across the package.

The CLI maps one class to each exit code: :class:`ConfigError` to 2,
:class:`SingularSystemError` to 3 and :class:`EnumerationTooLargeError` to 4.
A :class:`GeneratorValidationError` reaches it as a ConfigError, which the
config parser raises in its place.
"""


class RapidppError(Exception):
    """Base class for all package-specific errors."""


class GeneratorValidationError(RapidppError):
    """A proposed transition-rate matrix is not a usable generator."""


class SingularSystemError(RapidppError):
    """A linear system or a matrix exponential that should be computable turned
    out numerically degenerate, the long-run rate pi . f is zero, a first-order pmf
    left double range (an infinite excess times a zero difference of the baseline,
    say), or a result holds a number JSON cannot write."""


class NotANumberError(SingularSystemError, ValueError):
    """A computed quantity is NaN, as sigma2 is when its sum meets an inf and a -inf
    term.  It is a ValueError to the function handed it, like every other unusable
    argument value."""


class DegenerateMeanError(SingularSystemError, ValueError):
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
