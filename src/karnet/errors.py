"""Exception hierarchy shared across the package, and the range checks on
numeric options and seeds that the config, spec, solvers and trainers share.

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


def check_seed(seed: int) -> None:
    """Raise ConfigError unless ``seed`` is in [0, 2**64), as numpy and a weights file need."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")


def check_scale_eps(epsilon: float) -> None:
    """Raise ConfigError unless the scaling margin ``epsilon`` is in (0, 0.5)."""
    if not 0.0 < epsilon < 0.5:
        raise ConfigError(f"scaling epsilon must be in (0, 0.5), got {epsilon}")
