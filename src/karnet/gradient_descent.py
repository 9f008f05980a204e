"""Full-batch gradient-descent baseline over the same network model.

Backpropagation differentiates the network exactly as computed, including
the domain clamp: the activation derivative is evaluated at the clamped
pre-activation and zeroed where the clamp was active, so the analytic
gradient matches central finite differences of the actual forward pass.
The activation's derivative explodes near the domain edges, hence the
optional global gradient-norm clip.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .activations import HI, LO, apply_sigmoid, logit_deriv
from .errors import ConfigError, NumericalError, check_finite
from .network import Network, NetworkSpec, forward
from .training import TrainReport, _check_spec, _finish_report

__all__ = [
    "GdConfig",
    "initial_network",
    "train_gd",
    "GradientCheck",
    "check_gradient",
    "sse_and_gradients",
]


@dataclass(frozen=True)
class GdConfig:
    """Gradient-descent settings; learning_rate finite and >= 0, max_iters
    >= 1 and a gradient_clip, when set, finite and > 0."""

    spec: NetworkSpec
    learning_rate: float = 0.01
    max_iters: int = 500
    gradient_clip: float | None = None

    def __post_init__(self):
        check_finite("learning_rate", self.learning_rate, positive=False)
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        check_finite("gradient_clip", self.gradient_clip, positive=True)


def initial_network(cfg: GdConfig) -> Network:
    """Starting point for descent: signed random directions centered so
    pre-activations land near mid-domain.

    Positive-only weights drive every pre-activation past the activation
    domain (the clamp then zeroes the gradient) and give all hidden units
    nearly identical responses, so descent stalls on a constant predictor.
    Instead each unit takes a signed uniform direction scaled by fan-in,
    with its bias weight placed so the pre-activation of a mid-domain
    input sits at the domain center.
    """
    rng = np.random.default_rng(cfg.spec.seed)
    mid = 0.5  # the centre of logit's domain (0, 1)
    weights = []
    for k, (rows, cols) in enumerate(cfg.spec.weight_shapes):
        scale = 0.5 / np.sqrt(rows - 1)
        node = rng.uniform(-1.0, 1.0, size=(rows - 1, cols)) * scale
        # layer 1 sees domain-centered features; later layers see roughly
        # zero-centered activation values
        in_mid = mid if k == 0 else 0.0
        bias = mid - in_mid * node.sum(axis=0)
        weights.append(np.vstack([bias, node]))
    return Network(spec=cfg.spec, weights=weights)


def _sse_and_gradients(net: Network, xm: np.ndarray, ym: np.ndarray, cache: list, scratch: list):
    """SSE and gradients at ``net`` on checked ``xm`` and ``ym``: one forward
    pass that refills ``cache``, one backprop through ``scratch``, whose
    buffers it allocates when given an empty list.  The gradients are new."""
    resid = forward(net, xm, cache)
    resid -= ym
    if not scratch:
        # per layer: f'(c) * delta * mask and its two masks; the delta passed down
        scratch += [(np.empty(c.shape), np.empty(c.shape, bool), np.empty(c.shape, bool), np.empty(a.shape))
                    for a, c in zip(cache[::2], cache[1::2])]
    loss = float(np.add.reduce(np.multiply(resid, resid, out=scratch[-1][0]), axis=None))
    # f'(c) at each layer's clamped pre-activation c, zeroed where the clamp
    # was active; testing c against the band equals testing the unclamped value
    delta = np.multiply(2.0, resid, out=resid)
    grads = [None] * len(net.weights)
    for k in range(len(net.weights) - 1, -1, -1):
        a, c = cache[2 * k], cache[2 * k + 1]
        d, above, below, down = scratch[k]
        np.multiply(delta, logit_deriv(c, out=d), out=d)
        mask = np.bitwise_and(np.greater(c, LO, out=above), np.less(c, HI, out=below), out=above)
        np.multiply(d, mask, out=d)
        grads[k] = a.T @ d
        if k > 0:
            delta = np.matmul(d, net.weights[k].T, out=down)[:, 1:]
    return loss, grads


def sse_and_gradients(net: Network, x, y):
    """Output-space SSE and its gradient with respect to every weight; ``x``
    and ``y`` must fit ``net.spec`` as for ``train_gd``."""
    xm, ym = _check_spec(net.spec, x, y)
    return _sse_and_gradients(net, xm, ym, [], [])


def train_gd(x, y, cfg: GdConfig) -> tuple[Network, TrainReport]:
    """Full-batch descent on output-space SSE for ``max_iters`` steps; the
    forward cache and backprop buffers are allocated once per fit."""
    t0 = time.perf_counter()
    xm, ym = _check_spec(cfg.spec, x, y)
    net = initial_network(cfg)
    cache, scratch = [], []
    for it in range(cfg.max_iters):
        loss, grads = _sse_and_gradients(net, xm, ym, cache, scratch)
        if not math.isfinite(loss):
            raise NumericalError(f"non-finite loss at iteration {it}")
        if cfg.gradient_clip is not None:
            gnorm = np.sqrt(sum(float(np.add.reduce(g * g, axis=None)) for g in grads))
            if gnorm > cfg.gradient_clip:
                grads = [g * (cfg.gradient_clip / gnorm) for g in grads]
        for w, g in zip(net.weights, grads):
            w -= np.multiply(cfg.learning_rate, g, out=g)
    forward(net, xm, cache)
    return net, _finish_report(
        net, cache[-2], apply_sigmoid(ym), ym, t0, trainer="gd",
        iterations=cfg.max_iters, init_style="uniform(-1,1)*0.5/sqrt(fan_in), centred bias",
    )


class GradientCheck(NamedTuple):
    """Worst relative error, nonzero backprop entries and entries compared;
    with no nonzero entry the check compared only zeros and tested nothing."""

    max_relative_error: float
    nonzero: int
    compared: int


def check_gradient(net: Network, x, y, step: float = 1e-5) -> GradientCheck:
    """Compare backprop with central finite differences, entry by entry.

    Intended for small networks; refuses more than 200 total weights.
    """
    total = sum(w.size for w in net.weights)
    if total > 200:
        raise ConfigError(f"gradient check limited to 200 weights, got {total}")
    xm, ym = _check_spec(net.spec, x, y)
    _, grads = sse_and_gradients(net, xm, ym)
    worst = 0.0
    for w, g in zip(net.weights, grads):
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + step
            up = sse_and_gradients(net, xm, ym)[0]
            w[idx] = orig - step
            dn = sse_and_gradients(net, xm, ym)[0]
            w[idx] = orig
            numeric = (up - dn) / (2.0 * step)
            worst = max(worst, abs(numeric - g[idx]) / max(abs(numeric), abs(g[idx]), 1e-8))
    nonzero = sum(int(np.count_nonzero(g)) for g in grads)
    return GradientCheck(worst, nonzero, total)
