"""Correctness checks computed apart from karnet.

Nothing here imports karnet: the forward pass, the feature scaling, the
target transform and the least-squares reference are written again from
the method's definition with numpy alone, so a fault in karnet cannot hide
itself by also being in the check.  Each check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import json

import numpy as np

# logit is the forward activation on (0, 1); its inputs are clamped this far
# inside the domain, and sigmoid targets are clamped into the same band.
CLAMP_EPS = 1e-7
EPS = np.finfo(np.float64).eps
# residual agreement, relative to the squared norm of the transformed targets
LS_RTOL = 1e-9
# the 15% test-error envelope of acceptance criterion 6b
MIN_ACCURACY = 0.85
# how far below the Bayes rule the tall net may score on 10,000 test rows
BAYES_MARGIN = 0.03
# the hidden-size grid of the paper (karnet's `--grid paper`)
PAPER_GRID = (1, 2, 3, 5, 10, 20, 30, 50, 80, 100, 200, 500)


def load_weights(path) -> list[np.ndarray]:
    """Weight matrices from a karnet weights.json, read without karnet."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return [
        np.asarray(w["data"], dtype=np.float64).reshape(w["rows"], w["cols"])
        for w in payload["weights"]
    ]


def fit_scaling(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return x.min(axis=0), x.max(axis=0)


def scale(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, eps: float) -> np.ndarray:
    """Map each column from [lo, hi] onto [eps, 1 - eps]; constant columns to 0.5."""
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    out = np.where(span > 0, eps + (x - lo) / safe * (1.0 - 2.0 * eps), 0.5)
    return np.clip(out, eps, 1.0 - eps)


def _with_bias(a: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((a.shape[0], 1)), a])


def _logit(z: np.ndarray) -> np.ndarray:
    z = np.clip(z, CLAMP_EPS, 1.0 - CLAMP_EPS)
    return np.log(z / (1.0 - z))


def last_hidden(weights: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """``[1, G_{n-1}]``: the matrix the output layer multiplies."""
    a = _with_bias(x)
    for w in weights[:-1]:
        a = _with_bias(_logit(a @ w))
    return a


def outputs(weights: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    return _logit(last_hidden(weights, x) @ weights[-1])


def one_hot(labels: np.ndarray, q: int) -> np.ndarray:
    y = np.zeros((labels.size, q))
    y[np.arange(labels.size), labels] = 1.0
    return y


def transformed_targets(y: np.ndarray) -> np.ndarray:
    """``clip(sigmoid(Y))``: the targets of the output layer's linear system."""
    return np.clip(1.0 / (1.0 + np.exp(-y)), CLAMP_EPS, 1.0 - CLAMP_EPS)


def class_order(names) -> list[str]:
    """Class names in first-appearance order, the order karnet numbers them."""
    return list(dict.fromkeys(names))


def accuracy_in_order(weights, x_scaled, names, order: list[str]) -> float:
    """Held-out accuracy with output column j decoded as class ``order[j]``."""
    pred = np.argmax(outputs(weights, x_scaled), axis=1)
    return float(np.mean(np.asarray(order, dtype=object)[pred] == np.asarray(names, dtype=object)))


def check_output_layer(weights, x_scaled, y, reported_sse: float) -> list[str]:
    """The output layer must be a least-squares solution of its linear system.

    The residual of ``[1, G_{n-1}] W_n`` against ``clip(sigmoid(Y))`` must
    equal the report's ``train_sse_transformed`` and that of
    ``numpy.linalg.lstsq`` on the same matrices.  A least-squares residual
    is fixed only as far as the kept singular subspace is: rounding turns
    that subspace by about eps * s_1 / s_k (Wedin's theorem, s_k the
    smallest singular value above the cutoff), which moves the residual by
    up to twice that share of |T|^2.  The lstsq comparison allows that much
    on top of ``LS_RTOL``.
    """
    a = last_hidden(weights, x_scaled)
    t = transformed_targets(y)
    r = a @ weights[-1] - t
    own = float(np.sum(r * r))
    theta, _, _, sv = np.linalg.lstsq(a, t, rcond=None)
    r = a @ theta - t
    ref = float(np.sum(r * r))
    t2 = float(np.sum(t * t))
    kept = sv[sv > max(a.shape) * EPS * sv[0]]
    tol = LS_RTOL * t2
    problems = []
    if abs(own - ref) > tol + 2.0 * EPS * sv[0] / kept[-1] * t2:
        problems.append(f"output-layer residual {own:.9g} is not the lstsq residual {ref:.9g}")
    if abs(own - reported_sse) > tol:
        problems.append(
            f"output-layer residual {own:.9g} is not the reported "
            f"train_sse_transformed {reported_sse:.9g}"
        )
    return problems


def check_beats_constant(train_sse: float, m: int, q: int, what: str) -> list[str]:
    """A fit must beat the constant 0.5 output, whose SSE is 0.25 * m * q."""
    bound = 0.25 * m * q
    if not train_sse < bound:
        return [f"{what}: train SSE {train_sse:.6g} is not below the constant-output {bound:.6g}"]
    return []


def check_min_accuracy(acc: float, what: str) -> list[str]:
    if not acc >= MIN_ACCURACY:
        return [f"{what}: accuracy {acc:.4f} is below {MIN_ACCURACY}"]
    return []


def check_near_bayes(acc: float, bayes: float) -> list[str]:
    if not acc >= bayes - BAYES_MARGIN:
        return [f"accuracy {acc:.4f} is more than {BAYES_MARGIN} below the Bayes rule's {bayes:.4f}"]
    return []


def check_folds_beat_constant(report: dict, m_train: int, q: int) -> list[str]:
    problems = []
    for row in report["rows"]:
        problems += check_beats_constant(
            row["train_sse"], m_train, q, f"trial {row['trial']} fold {row['fold']}")
    return problems


def check_cv_report(report: dict, grid=None) -> list[str]:
    """Every fold's selected width (when a grid is given) is in the grid, and
    the mean accuracy is the folds' mean and clears the envelope."""
    problems = []
    rows = report["rows"]
    for row in rows:
        if grid is not None and row["hidden"][-1] not in grid:
            problems.append(
                f"trial {row['trial']} fold {row['fold']}: selected width "
                f"{row['hidden'][-1]} is not in the grid")
    mean = float(np.mean([row["accuracy"] for row in rows]))
    if abs(mean - report["aggregate"]["mean_accuracy"]) > 1e-12:
        problems.append(f"aggregate mean accuracy is not the mean of the {len(rows)} folds")
    problems += check_min_accuracy(mean, "cv mean")
    return problems


def check_eval_agrees(eval_acc: float, own_acc: float) -> list[str]:
    """``karnet eval`` must score the test file as the benchmark decodes it,
    with the training file's class order."""
    if abs(eval_acc - own_acc) > 1e-12:
        return [
            f"eval accuracy {eval_acc:.4f} disagrees with decoding in the training "
            f"file's class order ({own_acc:.4f})"
        ]
    return []
