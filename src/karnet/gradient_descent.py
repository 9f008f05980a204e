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

from .activations import HI, LO, apply_sigmoid, clamp
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


# bytes of buffers a stack may hold (a fit needing more descends alone); at 1 MiB, cv's
# 135-row iris fits at h = 20 go 10 to a stack, and larger stacks ran no faster per fit
STACK_BYTES = 2**20


def _buffers(spec: NetworkSpec, xm: np.ndarray) -> list[tuple]:
    """The arrays a descent step fills, allocated once per descent on inputs
    ``xm`` (rows x features, behind a stack's fit axis).  Per layer: its input
    ``[1, G_{k-1}]``, layer 1's holding ``xm`` already; its clamped
    pre-activation c; 1 - c, which backprop turns into f'(c) * delta in place;
    and ``down``, as wide as the input without its ones column.  Between the
    two passes ``down`` holds nothing that backprop reads: the forward pass
    divides the layer below's c / (1 - c) into it, and backprop then passes the
    delta down to that layer in it."""
    lead = xm.shape[:-1]
    bufs = [(np.ones((*lead, rows)), np.empty((*lead, cols)), np.empty((*lead, cols)),
             np.empty((*lead, rows - 1))) for rows, cols in spec.weight_shapes]
    bufs[0][0][..., 1:] = xm
    return bufs


def _stack_size(spec: NetworkSpec, m: int) -> int:
    """Fits of ``m`` rows to a stack: as many as keep their ``_buffers`` within
    ``STACK_BYTES``, at least one."""
    row = sum(b.nbytes for layer in _buffers(spec, np.zeros((1, spec.input_dim))) for b in layer)
    return max(1, STACK_BYTES // (m * row))


def _fill(ws: list, bufs: list) -> tuple[np.ndarray, list[bool]]:
    """One forward pass of the weights ``ws`` through ``bufs``: each layer's
    clamped pre-activation c and its 1 - c, which backprop reads, and the
    logit log(c / (1 - c)), which goes into the next layer's input from the
    quotient in that layer's ``down``.  ``network.activate`` keeps none of
    these, so it does not serve here.  The clamp runs on a layer only where
    some pre-activation of the stack reaches the band; elsewhere it would
    change nothing.  Returns the output, a new array, and per layer whether
    the clamp ran."""
    clamped = []
    for k, (w, (a, c, omc, _)) in enumerate(zip(ws, bufs), start=1):
        np.matmul(a, w, out=c)
        # min and max keep NaN, which fails both tests, so a NaN goes through the clamp
        clamped.append(not (LO < np.minimum.reduce(c, axis=None)
                            and np.maximum.reduce(c, axis=None) < HI))
        if clamped[-1]:
            clamp(c, out=c)
        if k < len(bufs):
            q, g = bufs[k][3], bufs[k][0][..., 1:]
        else:
            q = g = np.empty_like(c)
        np.log(np.divide(c, np.subtract(1.0, c, out=omc), out=q), out=g)
    return g, clamped


def _sse_and_gradients(ws: list, ym: np.ndarray, bufs: list):
    """SSE and gradients at weights ``ws`` against checked ``ym``: one forward
    pass and one backprop through ``bufs``, which ``_buffers`` made for these
    sizes and inputs.  Each operation acts on the last two axes, so a fit's
    bits are the same alone as in a stack.  The gradients are new."""
    resid, clamped = _fill(ws, bufs)
    resid -= ym
    loss = np.add.reduce(resid * resid, axis=(-2, -1))
    delta = np.multiply(2.0, resid, out=resid)
    grads = [None] * len(ws)
    for k in range(len(ws) - 1, -1, -1):
        a, c, d, down = bufs[k]
        # f'(c) = 1 / (c (1 - c)) at each layer's clamped pre-activation c, from
        # the 1 - c in d, zeroed where the clamp was active; testing c against the
        # band equals testing the unclamped value, and where the clamp did not
        # run every factor of the mask is 1
        np.divide(1.0, np.multiply(c, d, out=d), out=d)
        np.multiply(delta, d, out=d)
        if clamped[k]:
            np.multiply(d, (c > LO) & (c < HI), out=d)
        grads[k] = a.mT @ d
        if k > 0:  # the ones column's weights pass nothing down
            delta = np.matmul(d, ws[k][..., 1:, :].mT, out=down)
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
    when set.  The stack of one ``train_gd_stack`` descends."""
    return train_gd_stack([x], [y], [spec], learning_rate=learning_rate, max_iters=max_iters,
                          gradient_clip=gradient_clip)[0]


def train_gd_stack(
    xs, ys, specs: list[NetworkSpec], *, learning_rate: float, max_iters: int,
    gradient_clip: float | None,
) -> list[tuple[Network, TrainReport]]:
    """``train_gd`` on each (x, y, spec), all of one shape: the fits descend in
    lockstep as one stack, which a non-finite loss in any ends (how many fit
    ``STACK_BYTES``: ``_stack_size``).  Each fit's bits are those it gets in a
    stack of one, ``train_gd``; each report's wall time is an equal share of
    the stack's."""
    t0 = time.perf_counter()
    check_options(learning_rate, max_iters, gradient_clip)
    arrays = zip(*((*_check_spec(*f), *initial_network(f[0]).weights) for f in zip(specs, xs, ys)))
    xm, ym, *ws = map(np.stack, arrays)
    bufs = _buffers(specs[0], xm)
    # an overflowing step ends unwarned in the loss check's, activate's or the report's refusal
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(max_iters):
            loss, grads = _sse_and_gradients(ws, ym, bufs)
            if not math.isfinite(np.maximum.reduce(loss)):  # maximum keeps NaN
                raise NumericalError(f"non-finite loss at iteration {it}")
            if gradient_clip is not None:  # keepdims: each fit's norm scales its own gradients
                gnorm = np.sqrt(sum(np.add.reduce(g * g, (-2, -1), keepdims=True) for g in grads))
                scale = gradient_clip / np.fmax(gnorm, gradient_clip)  # exactly 1.0 within the clip
                for g in grads:
                    g *= scale
            for w, g in zip(ws, grads):
                w -= np.multiply(learning_rate, g, out=g)
        _fill(ws, bufs)  # the output layer's inputs, which each report scores
    # copies: under some BLAS kernels, a view's offset into the stack moves its norm's rounding
    nets = [Network(spec=spec, weights=[w[i].copy() for w in ws]) for i, spec in enumerate(specs)]
    reps = [_finish_report(net, bufs[-1][0][i], apply_sigmoid(ym[i]), ym[i], t0, trainer="gd",
                           iterations=max_iters) for i, net in enumerate(nets)]
    share = (time.perf_counter() - t0) / len(reps)
    for rep in reps:
        rep.wall_time = share
    return list(zip(nets, reps))


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
    _, grads = _sse_and_gradients(net.weights, ym, bufs)
    step = 1e-5
    worst = 0.0
    for w, g in zip(net.weights, grads):
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + step
            up = float(_sse_and_gradients(net.weights, ym, bufs)[0])
            w[idx] = orig - step
            dn = float(_sse_and_gradients(net.weights, ym, bufs)[0])
            w[idx] = orig
            numeric = (up - dn) / (2.0 * step)
            worst = max(worst, abs(numeric - g[idx]) / max(abs(numeric), abs(g[idx]), 1e-8))
    nonzero = sum(int(np.count_nonzero(g)) for g in grads)
    return GradientCheck(worst, nonzero, total)
