"""Full-batch gradient-descent baseline over the same network model.

Backpropagation differentiates the network exactly as computed, including
the domain clamp: the activation derivative is evaluated at the clamped
pre-activation and zeroed where the clamp was active, so the analytic
gradient matches central finite differences of the actual forward pass.
The activation's derivative explodes near the domain edges, hence the
optional global gradient-norm clip.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .linalg import as_matrix
from .network import Network, NetworkSpec, add_bias_column, forward
from .training import TrainReport, _check_xy, classification_error_rate, transformed_sse

__all__ = [
    "GdConfig",
    "initial_network",
    "train_gd",
    "check_gradient",
    "sse_and_gradients",
]


@dataclass(frozen=True)
class GdConfig:
    """Gradient-descent settings; learning_rate > 0 and max_iters >= 1."""

    spec: NetworkSpec
    seed: int | None = None
    learning_rate: float = 0.01
    max_iters: int = 500
    sse_tolerance: float = 0.0
    gradient_clip: float | None = None

    def __post_init__(self):
        if self.learning_rate < 0.0:
            raise ConfigError("learning_rate must be >= 0")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")

    @property
    def effective_seed(self) -> int:
        return self.spec.seed if self.seed is None else self.seed


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
    rng = np.random.default_rng(cfg.effective_seed)
    pair = cfg.spec.pair()
    mid = 0.5 * (pair.lo + pair.hi)
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


def _forward_cached(net: Network, x: np.ndarray):
    """Forward pass keeping per-layer inputs, clamped pre-activations, and
    the clamp-active masks needed for the backward pass."""
    pair = net.spec.pair()
    lo, hi = pair.lo + pair.clamp_eps, pair.hi - pair.clamp_eps
    a = add_bias_column(x)
    inputs, clamped, masks = [], [], []
    g = None
    for w in net.weights:
        z = a @ w
        c = np.clip(z, lo, hi)
        inputs.append(a)
        clamped.append(c)
        masks.append((z > lo) & (z < hi))
        g = pair.forward(c)
        a = add_bias_column(g)
    return g, inputs, clamped, masks


def sse_and_gradients(net: Network, x, y):
    """Output-space SSE and its gradient with respect to every weight."""
    xm = as_matrix(x, "x")
    ym = as_matrix(y, "y")
    pair = net.spec.pair()
    if pair.forward_deriv is None:
        raise ConfigError(f"activation {pair.name!r} has no derivative")
    g, inputs, clamped, masks = _forward_cached(net, xm)
    resid = g - ym
    loss = float(np.sum(resid * resid))
    delta = 2.0 * resid * pair.forward_deriv(clamped[-1]) * masks[-1]
    grads = [None] * len(net.weights)
    for k in range(len(net.weights) - 1, -1, -1):
        grads[k] = inputs[k].T @ delta
        if k > 0:
            back = (delta @ net.weights[k].T)[:, 1:]
            delta = back * pair.forward_deriv(clamped[k - 1]) * masks[k - 1]
    return loss, grads


def train_gd(x, y, cfg: GdConfig) -> tuple[Network, TrainReport]:
    """Full-batch descent on output-space SSE.

    Stops at ``max_iters`` or when the SSE drops below ``sse_tolerance``.
    """
    t0 = time.perf_counter()
    xm, ym = _check_xy(x, y)
    if cfg.spec.input_dim != xm.shape[1] or cfg.spec.output_dim != ym.shape[1]:
        raise ConfigError(
            f"spec dims ({cfg.spec.input_dim}, {cfg.spec.output_dim}) do not "
            f"match data dims ({xm.shape[1]}, {ym.shape[1]})"
        )
    net = initial_network(cfg)
    loss = None
    used = 0
    for it in range(cfg.max_iters):
        loss, grads = sse_and_gradients(net, xm, ym)
        if not np.isfinite(loss):
            raise NumericalError(f"non-finite loss at iteration {it}")
        if loss < cfg.sse_tolerance:
            break
        if cfg.gradient_clip is not None:
            gnorm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
            if gnorm > cfg.gradient_clip:
                grads = [g * (cfg.gradient_clip / gnorm) for g in grads]
        for w, g in zip(net.weights, grads):
            w -= cfg.learning_rate * g
        used = it + 1
    final_loss, _ = sse_and_gradients(net, xm, ym)
    if not np.isfinite(final_loss):
        raise NumericalError(f"non-finite loss at iteration {used}")

    g = forward(net, xm)
    report = TrainReport(
        trainer="gd",
        train_sse=float(np.sum((g - ym) ** 2)),
        train_sse_transformed=transformed_sse(net, xm, ym),
        train_error_rate=classification_error_rate(g, ym),
        wall_time=time.perf_counter() - t0,
        seed=cfg.effective_seed,
        spec=cfg.spec.to_dict(),
        weight_norms=[float(np.linalg.norm(w)) for w in net.weights],
        iterations=used,
        init_style="uniform(-1,1)*0.5/sqrt(fan_in), centred bias",
    )
    return net, report


def check_gradient(net: Network, x, y, step: float = 1e-5) -> float:
    """Max relative error between backprop and central finite differences.

    Intended for small networks; refuses more than 200 total weights.
    """
    total = sum(w.size for w in net.weights)
    if total > 200:
        raise ConfigError(f"gradient check limited to 200 weights, got {total}")
    xm = as_matrix(x, "x")
    ym = as_matrix(y, "y")
    _, grads = sse_and_gradients(net, xm, ym)

    def loss_at() -> float:
        loss, _ = sse_and_gradients(net, xm, ym)
        return loss

    worst = 0.0
    for w, g in zip(net.weights, grads):
        it = np.nditer(w, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + step
            up = loss_at()
            w[idx] = orig - step
            dn = loss_at()
            w[idx] = orig
            numeric = (up - dn) / (2.0 * step)
            denom = max(abs(numeric), abs(g[idx]), 1e-8)
            worst = max(worst, abs(numeric - g[idx]) / denom)
            it.iternext()
    return worst
