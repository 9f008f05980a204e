"""Exception hierarchy shared across the package, and the one range check
that the run config and the trainers apply to numeric options.

The CLI maps these onto exit codes: configuration problems exit 2,
data/parse problems exit 3, numerical failures exit 4.
"""

import math


class KarnetError(Exception):
    """Base class for all package errors."""


class ConfigError(KarnetError):
    """Invalid run configuration (bad flag combination, k > m, ...)."""


class DimensionError(KarnetError):
    """Matrix shapes do not conform for the requested operation."""


class DataError(KarnetError):
    """Dataset parsing or content problem, with an optional location."""

    def __init__(self, message, row=None, column=None):
        loc = []
        if row is not None:
            loc.append(f"row {row}")
        if column is not None:
            loc.append(f"column {column}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.row = row
        self.column = column


class NumericalError(KarnetError):
    """Numerical failure (SVD breakdown, non-finite values, divergence)."""


class RankDeficiencyError(NumericalError):
    """A least-squares solve or pseudoinverse found no usable singular values."""


def check_finite(name: str, value: float | None, positive: bool) -> None:
    """Raise ConfigError unless ``value`` is None or finite and >= 0 (> 0
    when ``positive``); NaN fails too."""
    if value is None:
        return
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        raise ConfigError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value}")
