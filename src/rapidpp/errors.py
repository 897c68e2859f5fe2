"""Exception types shared across the package.

The CLI maps one class to each exit code: :class:`ConfigError` to 2,
:class:`SingularSystemError` to 3 and :class:`EnumerationTooLargeError` to 4.
:class:`ArgumentError` and :class:`SingularSystemError` are also ValueErrors,
as numpy's ``LinAlgError`` is, so a library caller sees any unusable value as
a ValueError; a generator that fails validation raises a plain ValueError,
which the config parser reports as a ConfigError.
"""


class RapidppError(Exception):
    """Base class for all package-specific errors."""


class SingularSystemError(RapidppError, ValueError):
    """A linear system or a matrix exponential that should be computable turned
    out numerically degenerate, the long-run rate pi . f or a baseline mean is not
    positive, a first-order pmf left double range (an infinite excess times a zero
    difference of the baseline, say), sigma2 is NaN, or a result holds a number
    JSON cannot write."""


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
    also the config field that feeds it (``eps``, ``eps_grid``, ``t``, ``reps``,
    ``kmax``, ``workers``, ``truncation_mass``).
    """
