"""The network's one activation, f = logit on (0, 1), and its inverse
phi = sigmoid, applied elementwise with domain clamping.

Inputs to logit are clamped into the band ``[LO, HI]`` so that every output
stays finite even for targets sitting exactly on the domain boundary (e.g.
indicator targets of 0 and 1); sigmoid outputs are clamped into the same
band so that a subsequent logit never sees a boundary value.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ACTIVATION", "CLAMP_EPS", "LO", "HI", "clamp", "logit", "logit_deriv",
           "apply_logit", "apply_sigmoid"]

ACTIVATION = "logit-sigmoid"  # the name weights files record
CLAMP_EPS = 1e-7
LO, HI = CLAMP_EPS, 1.0 - CLAMP_EPS


def clamp(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Clamp into the band ``[LO, HI]``, into ``out`` when one is given."""
    return np.clip(m, LO, HI, out=out)


def logit(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(a / (1 - a)) of already-clamped values, into ``out`` when one is
    given (``a`` itself among them) and else into one new buffer; out=
    keeps a 0-d input an array."""
    r = np.subtract(1.0, a, out=np.empty_like(a))
    r = np.divide(a, r, out=r if out is None else out)
    return np.log(r, out=r)


def logit_deriv(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (a (1 - a)), logit's derivative at already-clamped values."""
    r = np.subtract(1.0, a, out=np.empty_like(a) if out is None else out)
    np.multiply(a, r, out=r)
    return np.divide(1.0, r, out=r)


def apply_logit(m) -> np.ndarray:
    """Clamp into the band, then apply logit elementwise."""
    return logit(clamp(np.asarray(m, dtype=np.float64)))


def apply_sigmoid(m, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the sigmoid elementwise, then clamp into the band, into ``out``
    when one is given (``m`` itself among them)."""
    a = np.asarray(m, dtype=np.float64)
    # 1 / (1 + exp(-z)) in the clip's buffer; the clip keeps exp from overflowing
    z = np.clip(a, -700.0, 700.0, out=np.empty_like(a) if out is None else out)
    np.negative(z, out=z)
    np.exp(z, out=z)
    np.add(1.0, z, out=z)
    np.divide(1.0, z, out=z)
    return clamp(z, out=z)
