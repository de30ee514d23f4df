"""Exception types and warning categories shared across the package."""

import os
import sys
import warnings

__all__ = ["FflqrError", "ConfigError", "DataError", "NumericalError", "RankDeficiencyWarning"]

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
    """Emit a ``RankDeficiencyWarning`` naming the first caller that is
    neither in the package nor in ``runpy`` (which calls in under
    ``python -m``, frozen or not), ``threading`` or
    ``concurrent.futures.thread`` (which start a worker thread's call), or
    the outermost package frame if no such caller exists; call depth differs
    per entry point, so no fixed stacklevel can."""
    frame, level, outermost = sys._getframe(1), 2, 2
    while frame is not None:
        if frame.f_code.co_filename.startswith(_PACKAGE_DIR):
            outermost = level
        elif frame.f_globals.get("__name__") not in ("runpy", "threading",
                                                      "concurrent.futures.thread"):
            break
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RankDeficiencyWarning, stacklevel=outermost if frame is None else level)
