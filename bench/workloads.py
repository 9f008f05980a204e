"""The benchmark's workloads: the inputs each makes from the seed, the
karnet commands one round runs, and the checks on every command's output.

Every round of a workload runs the same commands on the same inputs, so a
run attempts whole rounds and its share of failed operations does not
depend on how many rounds fit in the run.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import checks

SCALE_EPS = 0.01
FOLDS = 10


class Verdict(NamedTuple):
    """Outcome of one operation.  ``failure`` marks an operation that failed
    and counts in ``failed``; ``problems`` are wrong outputs of one that did not."""

    failure: str | None = None
    problems: tuple[str, ...] = ()
    accuracy: float | None = None


@dataclass
class Op:
    argv: list[str]
    check: Callable[[], Verdict]


@dataclass
class Workload:
    ops: list[Op]
    # class names of the held-out rows, which the checks score against
    held_out: list[str] = field(default_factory=list)


def _seeds(seed: int, stream: int, k: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_csv(path: Path, x: np.ndarray, names) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        for row, name in zip(x.tolist(), names):
            out.writerow([repr(v) for v in row] + [name])


def read_iris(root: Path) -> tuple[np.ndarray, list[str]]:
    """The 150 iris rows shipped with karnet, read without karnet."""
    with open(root / "src" / "karnet" / "data" / "iris.csv", "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    x = np.array([[float(v) for v in r[:4]] for r in rows])
    return x, [r[4] for r in rows]


def _check_train(out: Path, x: np.ndarray, names: list[str]) -> tuple[list[str], list, list[str]]:
    """Checks on a `karnet train` output; returns problems, weights and the
    training file's class order."""
    report = _read_json(out / "report.json")["train_report"]
    weights = checks.load_weights(out / "weights.json")
    order = checks.class_order(names)
    lo, hi = checks.fit_scaling(x)
    y = checks.one_hot(np.array([order.index(n) for n in names]), len(order))
    problems = checks.check_output_layer(
        weights, checks.scale(x, lo, hi, SCALE_EPS), y, report["train_sse_transformed"])
    problems += checks.check_beats_constant(report["train_sse"], len(names), len(order), "fit")
    return problems, weights, order


def select_cv(root: Path, work: Path, seed: int) -> Workload:
    """Model selection over the paper grid: 1,200 inner fits and 10 final fits."""
    _, names = read_iris(root)
    m, q = len(names), len(set(names))
    m_train = m - -(-m // FOLDS)  # each training fold holds at least m - ceil(m / folds) rows
    out = work / "cv"

    def check() -> Verdict:
        report = _read_json(out / "report.json")
        problems = checks.check_cv_report(report, checks.PAPER_GRID)
        problems += checks.check_folds_beat_constant(report, m_train, q)
        return Verdict(problems=tuple(problems), accuracy=report["aggregate"]["mean_accuracy"])

    argv = ["cv", "--data", "iris", "--grid", "paper", "--pattern", "exp2",
            "--trials", "1", "--folds", str(FOLDS), "--seed", str(_seeds(seed, 1, 1)[0]),
            "--out", str(out)]
    return Workload([Op(argv, check)])


GD_TRIALS = 5


def gd_cv(root: Path, work: Path, seed: int) -> Workload:
    """The gradient baseline: 50 fits of 500 full-batch steps, clipped at 1.0.

    Its folds are not held to the constant-output SSE: on some seeds descent
    drives an output pre-activation into the activation clamp, where the
    gradient is zero, and a fold that still classifies well ends with an SSE
    above the constant's (seed 305: 288 against 101.25, accuracy 0.93).
    """
    out = work / "gd"

    def check() -> Verdict:
        report = _read_json(out / "report.json")
        return Verdict(problems=tuple(checks.check_cv_report(report)),
                       accuracy=report["aggregate"]["mean_accuracy"])

    argv = ["cv", "--data", "iris", "--layers", "20", "--trainer", "gd",
            "--learning-rate", "0.01", "--max-iters", "500", "--gradient-clip", "1.0",
            "--trials", str(GD_TRIALS), "--folds", str(FOLDS),
            "--seed", str(_seeds(seed, 2, 1)[0]), "--out", str(out)]
    return Workload([Op(argv, check)])


DEEP_FITS = 8
DEEP_LAYERS = "400,200,100"  # exp4 at h = 100


def deep_fit(root: Path, work: Path, seed: int) -> Workload:
    """exp4 nets on the 90-row iris training split, scored on the 60 test rows."""
    x, names = read_iris(root)
    counts: dict[str, int] = {}
    train = []
    for n in names:  # first 30 rows of each class train
        counts[n] = counts.get(n, 0) + 1
        train.append(counts[n] <= 30)
    train = np.array(train)
    rng = np.random.default_rng([seed, 3])
    tr = rng.permutation(np.flatnonzero(train))
    te = np.flatnonzero(~train)
    x_tr, n_tr = x[tr], [names[i] for i in tr]
    x_te, n_te = x[te], [names[i] for i in te]
    data = work / "iris_train.csv"
    _write_csv(data, x_tr, n_tr)
    lo, hi = checks.fit_scaling(x_tr)
    x_te_s = checks.scale(x_te, lo, hi, SCALE_EPS)

    accs: dict[int, float] = {}

    def op(k: int, karnet_seed: int) -> Op:
        out = work / f"deep{k}"

        def check() -> Verdict:
            problems, weights, order = _check_train(out, x_tr, n_tr)
            accs[k] = checks.accuracy_in_order(weights, x_te_s, n_te, order)
            if k == DEEP_FITS - 1:  # the envelope holds for the mean over the seeds
                problems += checks.check_min_accuracy(float(np.mean(list(accs.values()))),
                                                      "mean held-out")
            return Verdict(problems=tuple(problems), accuracy=accs[k])

        argv = ["train", "--data", str(data), "--layers", DEEP_LAYERS,
                "--scale-eps", str(SCALE_EPS), "--seed", str(karnet_seed), "--out", str(out)]
        return Op(argv, check)

    return Workload([op(k, s) for k, s in enumerate(_seeds(seed, 4, DEEP_FITS))], n_te)


TALL_ROWS = 10_000
TALL_FEATURES = 16
TALL_CLASSES = ("alpha", "beta", "gamma", "delta")
# class c has mean 2.56 * e_c and unit covariance; the Bayes rule is then
# the nearest mean and scores about 0.92
TALL_MEANS = 2.56 * np.eye(len(TALL_CLASSES), TALL_FEATURES)
TALL_HIDDEN = "256"


def _clusters(rng: np.random.Generator, first: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Balanced Gaussian clusters in random order, except that the first
    rows fix the order in which the classes first appear."""
    q = len(TALL_CLASSES)
    labels = rng.permutation(np.repeat(np.arange(q), TALL_ROWS // q))
    for pos, cls in enumerate(first):
        j = pos + int(np.flatnonzero(labels[pos:] == cls)[0])
        labels[[pos, j]] = labels[[j, pos]]
    return rng.standard_normal((labels.size, TALL_FEATURES)) + TALL_MEANS[labels], labels


def tall_csv(root: Path, work: Path, seed: int) -> Workload:
    """A tall least-squares solve on 10,000 generated rows, then `eval`.

    The training file's classes first appear as alpha, beta, gamma, delta
    and the test file's in the reverse order, on every seed.  karnet numbers
    classes by first appearance in each file and stores no class names, so
    `eval` scores the test file against permuted classes: it fails on every
    seed until that fault is mended.
    """
    rng = np.random.default_rng([seed, 5])
    q = len(TALL_CLASSES)
    x_tr, l_tr = _clusters(rng, tuple(range(q)))
    x_te, l_te = _clusters(rng, tuple(reversed(range(q))))
    n_tr = [TALL_CLASSES[i] for i in l_tr]
    n_te = [TALL_CLASSES[i] for i in l_te]
    train, test = work / "tall_train.csv", work / "tall_test.csv"
    _write_csv(train, x_tr, n_tr)
    _write_csv(test, x_te, n_te)
    bayes = float(np.mean(
        np.argmin(((x_te[:, None, :] - TALL_MEANS) ** 2).sum(axis=2), axis=1) == l_te))
    lo, hi = checks.fit_scaling(x_tr)
    x_te_s = checks.scale(x_te, lo, hi, SCALE_EPS)
    out, eval_out = work / "tall", work / "tall_eval"
    own = {}

    def check_train() -> Verdict:
        problems, weights, order = _check_train(out, x_tr, n_tr)
        own["accuracy"] = checks.accuracy_in_order(weights, x_te_s, n_te, order)
        problems += checks.check_near_bayes(own["accuracy"], bayes)
        return Verdict(problems=tuple(problems), accuracy=own["accuracy"])

    def check_eval() -> Verdict:
        report = _read_json(eval_out / "eval_report.json")
        failure = checks.check_eval_agrees(report["accuracy"], own["accuracy"])
        return Verdict(failure=failure[0] if failure else None)

    seed_k = _seeds(seed, 6, 1)[0]
    return Workload([
        Op(["train", "--data", str(train), "--layers", TALL_HIDDEN, "--scale-eps", str(SCALE_EPS),
            "--seed", str(seed_k), "--out", str(out)], check_train),
        Op(["eval", "--data", str(test), "--weights", str(out / "weights.json"),
            "--out", str(eval_out)], check_eval),
    ], n_te)


WORKLOADS = {f.__name__: f for f in (select_cv, deep_fit, gd_cv, tall_csv)}
