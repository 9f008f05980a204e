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
from typing import NamedTuple

import numpy as np

from .activations import HI, LO, apply_sigmoid, clamp, logit, logit_deriv
from .errors import ConfigError, NumericalError, check_finite
from .network import Network, NetworkSpec
from .training import TrainReport, _check_spec, _finish_report

__all__ = ["initial_network", "train_gd", "GradientCheck", "check_gradient"]


def initial_network(spec: NetworkSpec) -> Network:
    """Starting point for descent: signed random directions centered so
    pre-activations land near mid-domain.

    Positive-only weights drive every pre-activation past the activation
    domain (the clamp then zeroes the gradient) and give all hidden units
    nearly identical responses, so descent stalls on a constant predictor.
    Instead each unit takes a signed uniform direction scaled by fan-in,
    with its bias weight placed so the pre-activation of a mid-domain
    input sits at the domain center.
    """
    rng = np.random.default_rng(spec.seed)
    mid = 0.5  # the centre of logit's domain (0, 1)
    weights = []
    for k, (rows, cols) in enumerate(spec.weight_shapes):
        scale = 0.5 / np.sqrt(rows - 1)
        node = rng.uniform(-1.0, 1.0, size=(rows - 1, cols)) * scale
        # layer 1 sees domain-centered features; later layers see roughly
        # zero-centered activation values
        in_mid = mid if k == 0 else 0.0
        bias = mid - in_mid * node.sum(axis=0)
        weights.append(np.vstack([bias, node]))
    return Network(spec=spec, weights=weights)


def _buffers(spec: NetworkSpec, xm: np.ndarray) -> list[tuple]:
    """The arrays a descent step fills, allocated once per fit.  Per layer:
    its input ``[1, G_{k-1}]``, layer 1's holding ``xm`` already; its
    clamped pre-activation c; f'(c) * delta * mask and its two masks; and
    the delta passed down."""
    m = xm.shape[0]
    bufs = [(np.ones((m, rows)), np.empty((m, cols)), np.empty((m, cols)),
             np.empty((m, cols), bool), np.empty((m, cols), bool), np.empty((m, rows)))
            for rows, cols in spec.weight_shapes]
    bufs[0][0][:, 1:] = xm
    return bufs


def _fill(net: Network, bufs: list) -> np.ndarray:
    """One forward pass through ``bufs``: each layer's clamped
    pre-activation, whose logit goes straight into the next layer's input.
    Backprop reads the clamped values, so ``network.activate``, which takes
    logit over them in place, does not serve here.  Returns the output, a
    new array."""
    for k, (w, (a, c, *_)) in enumerate(zip(net.weights, bufs), start=1):
        clamp(np.matmul(a, w, out=c), out=c)
        g = logit(c, out=bufs[k][0][:, 1:] if k < len(bufs) else None)
    return g


def _sse_and_gradients(net: Network, ym: np.ndarray, bufs: list):
    """SSE and gradients at ``net`` against checked ``ym``: one forward pass
    and one backprop through ``bufs``, which ``_buffers`` made for this
    net's sizes and inputs.  The gradients are new."""
    resid = _fill(net, bufs)
    resid -= ym
    loss = float(np.add.reduce(np.multiply(resid, resid, out=bufs[-1][2]), axis=None))
    # f'(c) at each layer's clamped pre-activation c, zeroed where the clamp
    # was active; testing c against the band equals testing the unclamped value
    delta = np.multiply(2.0, resid, out=resid)
    grads = [None] * len(net.weights)
    for k in range(len(net.weights) - 1, -1, -1):
        a, c, d, above, below, down = bufs[k]
        np.multiply(delta, logit_deriv(c, out=d), out=d)
        mask = np.bitwise_and(np.greater(c, LO, out=above), np.less(c, HI, out=below), out=above)
        np.multiply(d, mask, out=d)
        grads[k] = a.T @ d
        if k > 0:
            delta = np.matmul(d, net.weights[k].T, out=down)[:, 1:]
    return loss, grads


def check_options(learning_rate: float, max_iters: int, gradient_clip: float | None) -> None:
    """Raise ConfigError unless ``max_iters`` >= 1, ``learning_rate`` is
    finite and >= 0 and ``gradient_clip`` is None or finite and > 0."""
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    check_finite("learning_rate", learning_rate, positive=False)
    check_finite("gradient_clip", gradient_clip, positive=True)


def train_gd(
    x, y, spec: NetworkSpec, *, learning_rate: float = 0.01, max_iters: int = 500,
    gradient_clip: float | None = None,
) -> tuple[Network, TrainReport]:
    """Full-batch descent on output-space SSE: ``max_iters`` steps of size
    ``learning_rate``, the gradient's global norm clipped to ``gradient_clip``
    when set, each filling the one set of ``_buffers`` the fit allocates."""
    t0 = time.perf_counter()
    check_options(learning_rate, max_iters, gradient_clip)
    xm, ym = _check_spec(spec, x, y)
    net = initial_network(spec)
    bufs = _buffers(spec, xm)
    for it in range(max_iters):
        loss, grads = _sse_and_gradients(net, ym, bufs)
        if not math.isfinite(loss):
            raise NumericalError(f"non-finite loss at iteration {it}")
        if gradient_clip is not None:
            gnorm = np.sqrt(sum(float(np.add.reduce(g * g, axis=None)) for g in grads))
            if gnorm > gradient_clip:
                grads = [g * (gradient_clip / gnorm) for g in grads]
        for w, g in zip(net.weights, grads):
            w -= np.multiply(learning_rate, g, out=g)
    _fill(net, bufs)
    return net, _finish_report(
        net, bufs[-1][0], apply_sigmoid(ym), ym, t0, trainer="gd",
        iterations=max_iters, init_style="uniform(-1,1)*0.5/sqrt(fan_in), centred bias",
    )


class GradientCheck(NamedTuple):
    """Worst relative error, nonzero backprop entries and entries compared;
    with no nonzero entry the check compared only zeros and tested nothing."""

    max_relative_error: float
    nonzero: int
    compared: int


def check_gradient(net: Network, x, y) -> GradientCheck:
    """Compare backprop with central finite differences (step 1e-5), entry
    by entry.

    Intended for small networks; refuses more than 200 total weights.
    """
    total = sum(w.size for w in net.weights)
    if total > 200:
        raise ConfigError(f"gradient check limited to 200 weights, got {total}")
    xm, ym = _check_spec(net.spec, x, y)
    bufs = _buffers(net.spec, xm)
    _, grads = _sse_and_gradients(net, ym, bufs)
    step = 1e-5
    worst = 0.0
    for w, g in zip(net.weights, grads):
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + step
            up = _sse_and_gradients(net, ym, bufs)[0]
            w[idx] = orig - step
            dn = _sse_and_gradients(net, ym, bufs)[0]
            w[idx] = orig
            numeric = (up - dn) / (2.0 * step)
            worst = max(worst, abs(numeric - g[idx]) / max(abs(numeric), abs(g[idx]), 1e-8))
    nonzero = sum(int(np.count_nonzero(g)) for g in grads)
    return GradientCheck(worst, nonzero, total)
