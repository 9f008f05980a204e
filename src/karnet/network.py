"""Fully-connected feedforward network model.

Every layer multiplies a bias-augmented input by its weight matrix and
applies the activation: the input to layer k is ``[1, G_{k-1}]`` with a
leading ones-column, so the first row of each weight matrix holds the bias
weights and the remaining rows the node weights.  A network with hidden
sizes ``(h1, ..., h_{n-1})`` on d inputs and q outputs stores

    W1: (d+1) x h1,  W2: (h1+1) x h2,  ...,  Wn: (h_{n-1}+1) x q.

Raw features are not rescaled here; mapping them into the activation
domain is the data pipeline's job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import orjson

from .activations import ACTIVATION, clamp, logit
from .errors import ConfigError, DataError, DimensionError, KarnetError, NumericalError, check_seed

__all__ = [
    "NetworkSpec",
    "Network",
    "add_bias_column",
    "activate",
    "forward",
    "save_network",
    "load_network",
]


def check_integers(name: str, values, low: int) -> tuple[int, ...]:
    """``values`` as Python ints; ConfigError unless each is an integer >= ``low`` (no bool)."""
    if any(type(v) is bool or not isinstance(v, int | np.integer) or v < low for v in values):
        raise ConfigError(f"{name} must be integers >= {low}, got {values}")
    return tuple(map(int, values))


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: layer sizes >= 1 and an init seed in
    [0, 2**64), integers (numpy's too, stored as Python ints; no bool).
    Every layer applies ``ACTIVATION``, whose name the dict form records."""

    input_dim: int
    hidden: tuple[int, ...]
    output_dim: int
    seed: int = 0

    def __post_init__(self):
        sizes = (self.input_dim, *self.hidden, self.output_dim)
        check_integers("layer sizes and seed", (*sizes, self.seed), 0)
        d, *hidden, q = check_integers("layer sizes", sizes, 1)
        check_seed(self.seed)
        for name, value in zip(("input_dim", "hidden", "output_dim", "seed"),
                               (d, tuple(hidden), q, int(self.seed))):
            object.__setattr__(self, name, value)

    @property
    def n_layers(self) -> int:
        return len(self.hidden) + 1

    @property
    def weight_shapes(self) -> list[tuple[int, int]]:
        sizes = [self.input_dim, *self.hidden, self.output_dim]
        return [(sizes[k] + 1, sizes[k + 1]) for k in range(len(sizes) - 1)]

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden": list(self.hidden),
            "output_dim": self.output_dim,
            "activation": ACTIVATION,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        """Read a dict form; an activation other than ``ACTIVATION`` is a
        DataError, and the constructor checks the sizes and seed."""
        spec = cls(input_dim=d["input_dim"], hidden=tuple(d["hidden"]),
                   output_dim=d["output_dim"], seed=d.get("seed", 0))
        name = d.get("activation", ACTIVATION)
        if name != ACTIVATION:
            raise DataError(f"unknown activation pair {name!r} (known: {ACTIVATION})")
        return spec


@dataclass
class Network:
    """A materialized network: spec plus one weight matrix per layer."""

    spec: NetworkSpec
    weights: list

    def __post_init__(self):
        expected = self.spec.weight_shapes
        if len(self.weights) != len(expected):
            raise DimensionError(
                f"expected {len(expected)} weight matrices, got {len(self.weights)}"
            )
        for k, (w, shape) in enumerate(zip(self.weights, expected), start=1):
            if w.shape != shape:
                raise DimensionError(
                    f"layer {k} weight shape {w.shape} != expected {shape}"
                )


def add_bias_column(x: np.ndarray) -> np.ndarray:
    """Prepend a ones-column: (m, p) -> (m, p + 1)."""
    return np.hstack([np.ones((x.shape[0], 1)), x])


def activate(z: np.ndarray, layer: int) -> np.ndarray:
    """The layer step f on ``layer``'s pre-activation ``z``, which must be
    finite and is overwritten: clamped into the activation domain and taken
    through logit in place.  Returns ``z``."""
    if not np.all(np.isfinite(z)):
        raise NumericalError(f"non-finite pre-activation at layer {layer}")
    return logit(clamp(z, out=z), out=z)


def forward(net: Network, x) -> np.ndarray:
    """Forward pass: ``activate``, which refuses a non-finite product with no
    numpy warning first, after every layer's product with its input
    ``[1, G_{k-1}]``.  That input goes once multiplied, so no more than two
    activation-sized arrays are alive.  The output is a new array."""
    xm = np.asarray(x, dtype=np.float64)
    if xm.ndim != 2 or xm.shape[1] != net.spec.input_dim:
        raise DimensionError(
            f"input must be (m, {net.spec.input_dim}), got {xm.shape}"
        )
    g = xm
    with np.errstate(over="ignore", invalid="ignore"):
        for k, w in enumerate(net.weights, start=1):
            a = add_bias_column(g)
            del g
            g = a @ w
            del a
            activate(g, k)
    return g


def save_network(net: Network, path) -> None:
    """Write compact strict JSON with sorted keys, each weight in the
    shortest digits that read back to the same double.  A NaN or infinite
    weight is a NumericalError, and no file is written."""
    if not all(np.isfinite(w).all() for w in net.weights):
        raise NumericalError("weights hold a non-finite value; no weights file is written")
    # orjson writes a contiguous float64 array with the digits it writes
    # for the same Python floats, and no float list is built
    payload = {
        "spec": net.spec.to_dict(),
        "weights": [
            {"rows": w.shape[0], "cols": w.shape[1],
             "data": np.ascontiguousarray(w, dtype=np.float64).ravel()}
            for w in net.weights
        ],
    }
    data = orjson.dumps(payload, option=orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY)
    with open(path, "wb") as fh:
        fh.write(data)


def load_network(path) -> Network:
    """Read a weights file; an unreadable or malformed one (nested too deep
    for the JSON reader among them) is a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        net = Network(
            spec=NetworkSpec.from_dict(payload["spec"]),
            weights=[
                np.asarray(w["data"], dtype=np.float64).reshape(w["rows"], w["cols"])
                for w in payload["weights"]
            ],
        )
    except (OSError, ValueError, KeyError, TypeError, RecursionError, KarnetError) as exc:
        raise DataError(f"cannot load weights file {path}: {exc!r}") from None
    if not all(np.all(np.isfinite(w)) for w in net.weights):
        raise DataError(f"weights file {path} holds non-finite weights")
    return net
