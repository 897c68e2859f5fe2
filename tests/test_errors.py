"""The exception taxonomy: one class per CLI exit code, and which of them are ValueErrors."""

import inspect
import math

import pytest

from rapidpp import (
    CtmcModel,
    ExponentialService,
    analyze,
    corrected_count_pmf,
    eta_squared,
    errors,
    validate_generator,
)
from rapidpp.errors import (
    ArgumentError,
    ConfigError,
    EnumerationTooLargeError,
    RapidppError,
    SingularSystemError,
)

EXIT_CLASSES = (ConfigError, SingularSystemError, EnumerationTooLargeError)
CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, BaseException) and cls.__module__ == errors.__name__
]


def test_every_class_has_one_exit_code():
    assert {cls.__name__ for cls in CLASSES} == {
        "RapidppError", "ConfigError", "ArgumentError", "SingularSystemError",
        "EnumerationTooLargeError",
    }
    for cls in CLASSES:
        if cls is not RapidppError:
            assert sum(issubclass(cls, exit_cls) for exit_cls in EXIT_CLASSES) == 1, cls


def test_the_value_errors_are_argument_and_singular_system():
    assert {cls for cls in CLASSES if issubclass(cls, ValueError)} == {
        ArgumentError, SingularSystemError,
    }


# a generator whose deviation (g) solve meets an exactly zero pivot
SINGULAR_G = [
    [-3.102650262030696e+89, 3.102650262030696e+89, 4.579338463350663e-59],
    [3.9642084446920263e-231, -3.9642084446920263e-231, 0.0],
    [11593.1635103564, 0.0, -11593.1635103564],
]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: corrected_count_pmf(1.0, 0.0, 1.0, 0.1, 0.0), "lambda_star \\* t must be positive"),
        (lambda: eta_squared(math.nan, ExponentialService(1.0), 1.0), "sigma2 is not a number"),
        (lambda: analyze(CtmcModel(validate_generator(SINGULAR_G), [1, 0.5, 2])),
         "the deviation \\(g\\) solve is singular"),
    ],
    ids=["degenerate-mean", "nan-sigma2", "singular-solve"],
)
def test_numerical_failures_are_singular_system_value_errors(call, message):
    with pytest.raises(SingularSystemError, match=message) as info:
        call()
    assert isinstance(info.value, ValueError)
