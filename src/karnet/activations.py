"""Invertible activation pairs applied elementwise with domain clamping.

A pair couples a forward function f with its inverse phi.  Networks use
one pair, ``LOGIT_SIGMOID``: f = logit on (0, 1) with phi = sigmoid.  Inputs to f are clamped
into ``[lo + eps, hi - eps]`` so that every output stays finite even for
targets sitting exactly on the domain boundary (e.g. indicator targets of
0 and 1); outputs of phi are clamped into the same band so that a
subsequent f never sees a boundary value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

try:  # the clip ufunc without np.clip's wrappers, which cost more than a small clamp
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

__all__ = ["ActivationPair", "apply_f", "apply_phi", "LOGIT_SIGMOID"]

DEFAULT_CLAMP_EPS = 1e-7


@dataclass(frozen=True)
class ActivationPair:
    """Forward function, its inverse, and the open domain of the forward.

    ``forward_deriv`` is the derivative of the forward function, evaluated
    on already-clamped values and written into ``out`` when one is given;
    iterative trainers need it.  ``forward`` and ``inverse`` return a new
    array and never write to their argument, so ``apply_phi`` may clamp the
    inverse's result in place.
    """

    name: str
    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    forward_deriv: Callable[..., np.ndarray]
    lo: float
    hi: float
    clamp_eps: float = DEFAULT_CLAMP_EPS

    def clamp(self, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return _clip(m, self.lo + self.clamp_eps, self.hi - self.clamp_eps, out=out)


def apply_f(pair: ActivationPair, m) -> np.ndarray:
    """Apply the forward function elementwise, clamping into the domain."""
    a = pair.clamp(np.asarray(m, dtype=np.float64))
    return pair.forward(a)


def apply_phi(pair: ActivationPair, m) -> np.ndarray:
    """Apply the inverse transform elementwise; outputs stay inside the domain."""
    a = pair.inverse(np.asarray(m, dtype=np.float64))
    return pair.clamp(a, out=a)


def _logit(a: np.ndarray) -> np.ndarray:
    # log(a / (1 - a)) in one new buffer; out= keeps a 0-d input an array
    r = np.subtract(1.0, a, out=np.empty_like(a))
    np.divide(a, r, out=r)
    return np.log(r, out=r)


def _sigmoid(a: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-z)) in the clip's buffer; the clip keeps exp from overflowing
    z = np.clip(a, -700.0, 700.0, out=np.empty_like(a))
    np.negative(z, out=z)
    np.exp(z, out=z)
    np.add(1.0, z, out=z)
    return np.divide(1.0, z, out=z)


def _logit_deriv(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    r = np.subtract(1.0, a, out=np.empty_like(a) if out is None else out)
    np.multiply(a, r, out=r)
    return np.divide(1.0, r, out=r)


LOGIT_SIGMOID = ActivationPair(
    name="logit-sigmoid",
    forward=_logit,
    inverse=_sigmoid,
    lo=0.0,
    hi=1.0,
    forward_deriv=_logit_deriv,
)
