"""A literal transcription of ``karnet.training``'s equations, for tests.

With f = logit (``apply_logit``), its inverse phi = sigmoid
(``apply_sigmoid``) and targets Y, for an n-layer net:

    W_k (k >= 2)  drawn in order by ``_orthonormal_layer`` from the spec's seed
    B_n     = phi(Y)
    B_{k-1} = phi((B_k - 1 w_k^T) @ pinv(node_k))
    G_0     = X
    W_k     = pinv([1, G_{k-1}]) @ B_k,   G_k = f([1, G_{k-1}] @ W_k)

Every solve and the peel go through ``karnet.pinv`` at its default cutoff,
and nothing is computed in place.
"""

import numpy as np

from karnet import NetworkSpec, apply_logit, apply_sigmoid, pinv
from karnet.training import _orthonormal_layer


def with_ones(g: np.ndarray) -> np.ndarray:
    """``[1, G]``."""
    return np.hstack([np.ones((g.shape[0], 1)), g])


def reference_targets(y: np.ndarray, spec: NetworkSpec) -> list[np.ndarray]:
    """The peeled targets B_1, ..., B_n, by the equations above."""
    n = spec.n_layers
    rng = np.random.default_rng(spec.seed)
    random = {k: _orthonormal_layer(rng, spec.weight_shapes[k - 1]) for k in range(2, n + 1)}
    targets = {n: apply_sigmoid(y)}
    for k in range(n, 1, -1):
        bias, node = random[k][:1, :], random[k][1:, :]
        targets[k - 1] = apply_sigmoid((targets[k] - np.ones((y.shape[0], 1)) @ bias)
                                       @ pinv(node).pinv)
    return [targets[k] for k in range(1, n + 1)]


def reference_n_layer(x: np.ndarray, y: np.ndarray, spec: NetworkSpec) -> list[np.ndarray]:
    """The weights ``train_n_layer`` solves for, by the equations above."""
    weights, g = [], x
    for k, target in enumerate(reference_targets(y, spec), start=1):
        if k > 1:
            g = apply_logit(with_ones(g) @ weights[-1])
        weights.append(pinv(with_ones(g)).pinv @ target)
    return weights
