"""Gradient-free network training by kernel-and-range (pseudoinverse) solves.

The single-pass trainer works on the transformed linear systems obtained by
inverting the activation around each layer.  With the inverse transform phi
and targets Y:

* one layer: ``W1 = pinv([1, X]) @ phi(Y)``.
* n layers: later layers are assigned random weights (a uniform(0,1) bias
  row over a node block with orthonormal columns or rows, so every singular
  value of the block is 1 and its pseudoinverse is its transpose); peeling
  the bias row w_k and node block of each random layer off the transformed
  targets from the outside in yields a target matrix for every layer,

      B_n = phi(Y),   B_{k-1} = phi((B_k - 1 w_k^T) @ node_k^T),

  the first layer is solved as ``W1 = pinv([1, X]) @ B_1``, and layers
  2..n are then re-solved front-to-back against their peeled targets using
  the already re-solved earlier layers:  ``W_k = pinv([1, f(...)]) @ B_k``.
  A layer's peeled target depends only on the layers behind it, which at
  that point in the sweep still hold their random initialization, so the
  peel values are computed once and reused.

Training therefore performs exactly n data-side least-squares solves plus,
for n >= 2, one peeling chain; a report's spec gives n.  A one-layer net
is the case with no random layer to peel.

A separate representation-mode trainer keeps the hidden layers random and
solves only the output layer; it exists to study how network size relates
to the number of samples a network can fit exactly.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .activations import apply_sigmoid
from .errors import ConfigError, DimensionError, NumericalError
from .linalg import as_matrix, lstsq, require_rank
from .network import Network, NetworkSpec, activate, add_bias_column

__all__ = [
    "TrainReport",
    "error_rate",
    "train_n_layer",
    "train_random_hidden",
]

@dataclass
class TrainReport:
    """Per-run training record; wall_time is the only nondeterministic field.
    A non-finite SSE or weight norm (overflowed weights) is a NumericalError."""

    trainer: str
    train_sse: float
    train_sse_transformed: float
    train_error_rate: float
    wall_time: float
    spec: dict
    weight_norms: list[float] = field(default_factory=list)
    iterations: int | None = None

    def __post_init__(self):
        values = [self.train_sse, self.train_sse_transformed, *self.weight_norms]
        if not np.all(np.isfinite(values)):
            raise NumericalError(f"{self.trainer} fit ended with a non-finite SSE or weight norm")

    def to_dict(self) -> dict:
        """Every field; ``iterations`` only when the trainer iterates."""
        d = asdict(self)
        if self.iterations is None:
            del d["iterations"]
        return d


def error_rate(outputs, targets) -> float:
    """Fraction of rows whose decoded class disagrees with the target's.

    Multi-column outputs and targets decode by row argmax, ties breaking
    low; single-column ones by thresholding at 0.5.
    """
    outputs, targets = np.asarray(outputs), np.asarray(targets)
    if outputs.shape[1] >= 2:
        return float(np.mean(np.argmax(outputs, axis=1) != np.argmax(targets, axis=1)))
    return float(np.mean((outputs[:, 0] > 0.5) != (targets[:, 0] > 0.5)))


def _check_spec(spec: NetworkSpec, x, y) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``y`` as matrices whose rows pair up and whose widths fit
    ``spec``; anything else is a DimensionError."""
    xm = as_matrix(x, "x")
    ym = as_matrix(y, "y")
    if xm.shape[0] != ym.shape[0]:
        raise DimensionError(f"x has {xm.shape[0]} rows but y has {ym.shape[0]}")
    if spec.input_dim != xm.shape[1]:
        raise DimensionError(f"spec input_dim {spec.input_dim} != data dim {xm.shape[1]}")
    if spec.output_dim != ym.shape[1]:
        raise DimensionError(f"spec output_dim {spec.output_dim} != target dim {ym.shape[1]}")
    return xm, ym


def _orthonormal_layer(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """One random layer in one draw: a uniform(0,1) bias row over a p x q
    node block whose columns (p >= q) or rows (p < q) are orthonormal, so
    every singular value of the block is 1.

    The block is the Q factor of a standard Gaussian matrix, each column's
    sign taken from R's diagonal so that Q is Haar distributed (Mezzadri,
    arXiv:math-ph/0609050); it is not rescaled.
    """
    p, q = shape[0] - 1, shape[1]
    bias = rng.uniform(0.0, 1.0, size=(1, q))
    node, r = np.linalg.qr(rng.standard_normal((max(p, q), min(p, q))))
    node *= np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return np.vstack([bias, node if p >= q else node.T])


def _solve(a: np.ndarray, b: np.ndarray, rcond, what: str) -> np.ndarray:
    return require_rank(lstsq(a, b, rcond=rcond), what).theta


def _finish_report(
    net: Network, a: np.ndarray, target: np.ndarray, y: np.ndarray, t0: float, **fields
) -> TrainReport:
    """Score the fit from the output layer's input ``a`` with no new pass: the
    residual of its linear system against the transformed ``target``, then
    the output through ``activate``, bit for bit as ``forward`` computes it.
    A value overflowed weights make non-finite is refused there or by
    ``TrainReport``, unwarned.  ``fields`` name the trainer and gd's iterations."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = a @ net.weights[-1]
        r = z - target
        g = activate(z, net.spec.n_layers)
        return TrainReport(
            train_sse=float(np.sum((g - y) ** 2)),
            train_sse_transformed=float(np.sum(r * r)),
            train_error_rate=error_rate(g, y),
            wall_time=time.perf_counter() - t0,
            spec=net.spec.to_dict(),
            weight_norms=[float(np.linalg.norm(w)) for w in net.weights],
            **fields,
        )


def train_n_layer(
    x, y, spec: NetworkSpec, *, rcond: float | None = None
) -> tuple[Network, TrainReport]:
    """Single-pass analytic trainer for n >= 1 layers; with n = 1 there is
    no random layer and the peeling chain is empty.  The spec's seed draws
    the random layers; ``rcond`` overrides ``lstsq``'s cutoff in every
    solve.  The peel multiplies by node-block transposes and uses none.
    Each re-solved layer's activation matrix comes from the layer step
    ``activate``, as in ``forward``."""
    t0 = time.perf_counter()
    xm, ym = _check_spec(spec, x, y)
    n = spec.n_layers
    rng = np.random.default_rng(spec.seed)
    shapes = spec.weight_shapes

    # random initialization of layers 2..n (bias rows and node blocks)
    weights: list[np.ndarray | None] = [None] * n
    for k in range(2, n + 1):
        weights[k - 1] = _orthonormal_layer(rng, shapes[k - 1])

    # peeling chain, outermost first (the bias row broadcasts: 1 w_k^T bit for
    # bit), the sigmoid taken in place on each product; an entry peeled
    # through a q-wide layer is within sqrt(q) of 0, so finite
    peeled: list[np.ndarray | None] = [None] * (n + 1)
    peeled[n] = apply_sigmoid(ym)
    for k, wk in zip(range(n, 1, -1), reversed(weights[1:])):
        peeled[k - 1] = (peeled[k] - wk[0, :]) @ wk[1:, :].T
        apply_sigmoid(peeled[k - 1], out=peeled[k - 1])

    # first layer from the fully peeled target, then layers 2..n in order,
    # each against its peeled target with the layers behind it still random;
    # solved targets, pre-activations and old activations go once used
    a = add_bias_column(xm)
    weights[0] = _solve(a, peeled[1], rcond, "input matrix")
    for k in range(2, n + 1):
        peeled[k - 1] = None
        z = a @ weights[k - 2]
        del a
        a = add_bias_column(activate(z, k - 1))
        del z
        weights[k - 1] = _solve(
            a, peeled[k], rcond, f"activation matrix of layer {k}"
        )

    net = Network(spec=spec, weights=list(weights))
    return net, _finish_report(net, a, peeled[n], ym, t0, trainer="kar")


def _convex_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform(0,1) columns normalized to sum to one.

    Pre-activations become convex combinations of the bias constant and the
    input features, so they stay strictly inside the activation domain for
    inputs already scaled into it.
    """
    w = rng.uniform(0.0, 1.0, size=(rows, cols))
    return w / w.sum(axis=0, keepdims=True)


def _centered_ridge(
    rng: np.random.Generator, a: np.ndarray, cols: int
) -> np.ndarray:
    """Random directions over an activation matrix, centered and scaled by
    its column statistics so pre-activations land around mid-domain."""
    p = a.shape[1]
    mu = a[:, 1:].mean(axis=0)
    sd = a[:, 1:].std(axis=0)
    sd[sd == 0.0] = 1.0
    u = rng.uniform(-1.0, 1.0, size=(p - 1, cols))
    b = rng.uniform(-1.0, 1.0, size=cols)
    scale = 1.0 / np.sqrt(p - 1)
    node = (u / sd[:, None]) * scale
    bias = 0.5 - (mu / sd) @ u * scale + 0.45 * b
    return np.vstack([bias, node])


def train_random_hidden(
    x, y, spec: NetworkSpec, *, rcond: float | None = None
) -> tuple[Network, TrainReport]:
    """Representation-mode trainer: hidden layers stay random, only the
    output layer is solved.

    The first hidden layer uses convex-combination columns so its
    pre-activations stay inside the activation domain; deeper hidden layers
    re-center on the incoming activation statistics.  For a two-layer
    network the output bias weight is pinned at zero, so the number of
    solved weights per output column equals the hidden size exactly; deeper
    networks solve the full output layer including its bias row.  ``rcond``
    is the output solve's cutoff, as for ``train_n_layer``.  Each hidden
    layer's output comes from the layer step ``activate``, as in ``forward``.
    """
    t0 = time.perf_counter()
    xm, ym = _check_spec(spec, x, y)
    if spec.n_layers < 2:
        raise ConfigError("train_random_hidden requires at least one hidden layer")
    rng = np.random.default_rng(spec.seed)

    weights: list[np.ndarray] = []
    a = add_bias_column(xm)
    for k, h in enumerate(spec.hidden, start=1):
        if k == 1:
            w = _convex_columns(rng, a.shape[1], h)
        else:
            w = _centered_ridge(rng, a, h)
        weights.append(w)
        z = a @ w
        del a  # the old activation matrix goes before the next one is made
        a = add_bias_column(activate(z, k))
        del z

    target = apply_sigmoid(ym)
    if spec.n_layers == 2:
        node = _solve(a[:, 1:], target, rcond, "hidden activation matrix")
        w_out = np.vstack([np.zeros((1, spec.output_dim)), node])
    else:
        w_out = _solve(a, target, rcond, "hidden activation matrix")
    weights.append(w_out)

    net = Network(spec=spec, weights=weights)
    return net, _finish_report(net, a, target, ym, t0, trainer="kar-representation")
