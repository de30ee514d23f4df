"""Exception types and warning categories shared across the package."""

import os
import sys
import warnings

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


class FflqrError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FflqrError):
    """Invalid configuration value or inconsistent option combination."""


class DataError(FflqrError):
    """Malformed or incompatible input data (CSV parsing, grid mismatches)."""


class NumericalError(FflqrError):
    """A numerical routine failed to converge or a factorization broke down."""


class RankDeficiencyWarning(UserWarning):
    """Design matrix columns were linearly dependent; some coefficients were zeroed."""


def _warn_rank(message: str) -> None:
    """Emit a ``RankDeficiencyWarning`` naming the first caller outside the
    package; call depth differs per entry point, so no fixed stacklevel can."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RankDeficiencyWarning, stacklevel=level)
