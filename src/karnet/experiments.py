"""Experiment harness: demo reproductions, sweeps, and cross-validation.

Every run is deterministic given (seed, config): each unit of work derives
its seed from the master seed plus its indices, so results do not depend on
execution order.  The seeds are not all distinct: ``_unit_seed`` ignores
trailing zero indices, so cv fold 0's inner fold plan shares its trial's
outer fold-plan seed.  Wall-time fields are the only nondeterministic
values in any emitted report.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS
from .data import (
    Dataset,
    apply_scaling,
    iris_train_test_split,
    load_csv,
    load_iris,
    make_xor,
    reorder_classes,
    scale_minmax,
    split_rows,
    stratified_folds,
)
from .errors import (ConfigError, DataError, KarnetError, NumericalError, check_finite,
                     check_fold_count, check_scale_eps, check_seed)
from .gradient_descent import _stack_size, check_options, train_gd_stack
from .network import Network, NetworkSpec, check_integers, forward
from .training import error_rate, train_n_layer, train_random_hidden

__all__ = [
    "PAPER_GRID",
    "ExperimentConfig",
    "run_xor_demo",
    "run_iris_sweep",
    "run_cv",
    "run_train",
    "run_eval",
    "write_report",
]

PAPER_GRID = (1, 2, 3, 5, 10, 20, 30, 50, 80, 100, 200, 500)
IRIS_SWEEP_GRID = tuple(range(79, 94))


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed run parameters shared by the harness commands."""

    dataset: str = "iris"
    label_col: int = -1
    has_header: bool = False
    layers: tuple[int, ...] = ()
    pattern: str = "fixed"
    trainer: str = "kar"
    seed: int = 0
    trials: int = 10
    folds: int = 10
    grid: tuple[int, ...] = ()
    out: str = "."
    scale_eps: float = 0.01
    rcond: float | None = None
    learning_rate: float = 0.01
    max_iters: int = 500
    gradient_clip: float | None = None

    def __post_init__(self):
        if self.trainer not in ("kar", "gd"):
            raise ConfigError(f"trainer must be 'kar' or 'gd', got {self.trainer!r}")
        if self.pattern not in ("fixed", "exp2", "exp3", "exp4"):
            raise ConfigError(f"unknown architecture pattern {self.pattern!r}")
        check_seed(self.seed)  # first, so that a negative seed is told the seed's range
        names = ("seed", "trials", "folds", "max_iters")
        values = tuple(getattr(self, name) for name in names)
        for name, value in zip(names, check_integers("seed, trials, folds and max_iters", values, 0)):
            object.__setattr__(self, name, value)
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if max(self.trials, self.folds, self.max_iters) >= 2**64:
            raise ConfigError("trials, folds and max_iters must be below 2**64")
        object.__setattr__(self, "grid", check_integers("grid values", self.grid, 1))
        if len(set(self.grid)) < len(self.grid):
            raise ConfigError(f"grid values must be distinct, got {self.grid}")
        object.__setattr__(self, "layers", check_integers("layer sizes", self.layers, 1))
        check_scale_eps(self.scale_eps)
        check_options(self.learning_rate, self.max_iters, self.gradient_clip)
        check_finite("rcond", self.rcond, positive=False)

    def hidden_for(self, h: int) -> tuple[int, ...]:
        """Hidden sizes for a grid value under an exp2, exp3 or exp4 pattern."""
        return {"exp2": (h,), "exp3": (2 * h, h), "exp4": (4 * h, 2 * h, h)}[self.pattern]


def load_dataset(cfg: ExperimentConfig) -> Dataset:
    name = cfg.dataset
    if name == "xor":
        return make_xor(perturbed=True)
    if name == "xor-ideal":
        return make_xor(perturbed=False)
    if name == "iris":
        return load_iris()
    return load_csv(name, label_column=cfg.label_col, has_header=cfg.has_header)


def _spec(x: np.ndarray, y: np.ndarray, hidden: tuple[int, ...], seed: int) -> NetworkSpec:
    return NetworkSpec(input_dim=x.shape[1], hidden=hidden, output_dim=y.shape[1], seed=seed)


def _fit(cfg: ExperimentConfig, fits: list) -> list:
    """A (net, report) for each (x, y, spec) of ``fits``, all of one shape: "gd"
    descends them as one stack, "kar" fits each in turn."""
    if cfg.trainer == "gd":
        return train_gd_stack(*zip(*fits), learning_rate=cfg.learning_rate,
                              max_iters=cfg.max_iters, gradient_clip=cfg.gradient_clip)
    return [train_n_layer(x, y, spec, rcond=cfg.rcond) for x, y, spec in fits]


def _scaled(train: Dataset, test: Dataset, eps: float) -> tuple[Dataset, Dataset]:
    """Min-max scale ``train``, and ``test`` with the training statistics."""
    train_s = scale_minmax(train, eps)
    return train_s, apply_scaling(test, train_s.scaling, eps)


def _test_error(net: Network, test: Dataset) -> float:
    return error_rate(forward(net, test.x), test.y)


def _unit_seed(*parts: int) -> int:
    """Collapse (seed, indices...) into one deterministic integer seed."""
    ss = np.random.SeedSequence(list(parts))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _output_dir(cfg: ExperimentConfig) -> Path:
    """Create the run's output directory; failing that is a config error."""
    outdir = Path(cfg.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out}: {exc}") from None
    return outdir


def write_report(report: dict, path) -> None:
    """Write ``report`` as strict JSON; a NaN or Infinity in it is a
    NumericalError, and no file is written."""
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"report {path} would hold a non-finite value: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_rows_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(rows)


def run_xor_demo(cfg: ExperimentConfig) -> dict:
    """Train the two reference nets on the perturbed exclusive-or points and
    export a 101 x 101 output-surface grid over the unit square."""
    ds = make_xor()
    outdir = _output_dir(cfg)

    nets: dict[str, Network] = {}
    report: dict = {"command": "xor-demo", "seed": cfg.seed, "nets": {}}
    for tag, hidden in (("2layer", (2,)), ("5layer", (3, 3, 3, 3))):
        net, train_rep = train_n_layer(ds.x, ds.y, _spec(ds.x, ds.y, hidden, cfg.seed),
                                       rcond=cfg.rcond)
        nets[tag] = net
        g = forward(net, ds.x)
        report["nets"][tag] = {
            "hidden": list(hidden),
            "trained_outputs": g[:, 0].tolist(),
            "max_abs_output_error": float(np.max(np.abs(g - ds.y))),
            "train_report": train_rep.to_dict(),
        }

    axis = np.linspace(0.0, 1.0, 101)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    surfaces = {tag: forward(net, grid)[:, 0] for tag, net in nets.items()}
    rows = [
        [repr(float(a)), repr(float(b)), repr(float(surfaces["2layer"][i])),
         repr(float(surfaces["5layer"][i]))]
        for i, (a, b) in enumerate(grid)
    ]
    _write_rows_csv(outdir / "surface.csv", ["x1", "x2", "out_2layer", "out_5layer"], rows)
    report["surface_file"] = "surface.csv"
    report["surface_rows"] = len(rows)
    write_report(report, outdir / "report.json")
    return report


def run_iris_sweep(cfg: ExperimentConfig) -> dict:
    """Hidden-size sweep on the deterministic 90/60 iris split.

    For each hidden size and trial seed a two-layer network with a random
    hidden layer is fit by a single output-layer solve, recording training
    SSE in both output and transformed space plus train/test error rates.
    """
    train, test = _scaled(*iris_train_test_split(load_iris()), cfg.scale_eps)
    grid = cfg.grid or IRIS_SWEEP_GRID
    outdir = _output_dir(cfg)

    rows = []  # (h, trial, train SSE, transformed SSE, train error, test error)
    for h in grid:
        for trial in range(cfg.trials):
            spec = _spec(train.x, train.y, (h,), _unit_seed(cfg.seed, h, trial))
            net, rep = train_random_hidden(train.x, train.y, spec, rcond=cfg.rcond)
            rows.append((h, trial, rep.train_sse, rep.train_sse_transformed,
                         rep.train_error_rate, _test_error(net, test)))

    _write_rows_csv(
        outdir / "sweep.csv",
        ["h", "trial", "train_sse", "train_sse_transformed", "train_error_rate",
         "test_error_rate"],
        [[h, trial, *map(repr, values)] for h, trial, *values in rows],
    )
    per_h = {}
    for h in grid:
        # one 1-D array per statistic: a 2-D axis-0 mean sums in another order
        sse, sse_t, train_err, test_err = map(np.array, zip(*(r[2:] for r in rows if r[0] == h)))
        per_h[str(h)] = {
            "mean_train_sse": float(np.mean(sse)),
            "max_train_sse": float(np.max(sse)),
            "mean_train_sse_transformed": float(np.mean(sse_t)),
            "max_train_sse_transformed": float(np.max(sse_t)),
            "mean_train_error_rate": float(np.mean(train_err)),
            "mean_test_error_rate": float(np.mean(test_err)),
        }
    report = {
        "command": "iris-sweep",
        "seed": cfg.seed,
        "trials": cfg.trials,
        "grid": list(grid),
        "scale_eps": cfg.scale_eps,
        "sweep_file": "sweep.csv",
        "per_h": per_h,
    }
    write_report(report, outdir / "report.json")
    return report


def _select_hidden(
    cfg: ExperimentConfig, train: Dataset, trial_seed: int
) -> tuple[tuple[int, ...], int]:
    """Inner cross-validation over the sweep grid on the training subset:
    the hidden sizes of the width with the best mean accuracy over k inner
    folds, and the number of inner fits run.

    The middle width of the sorted grid (index (n - 1) // 2) goes first, as
    a strong incumbent early, then the others in ascending order.  A width
    that runs every fold replaces the incumbent when its mean is higher, or
    equal with a smaller width, so ties break toward the smaller width.  A
    width stops as soon as it cannot win: when, with folds still left, its
    accuracies so far plus 1.0 for each fold left fall below k x (best mean)
    - 1e-9.  An accuracy is at most 1 and the margin covers rounding, so a
    stopped width would have ended below the incumbent, not tied with it;
    its skipped fits never run, so they cannot raise either.  A width visits
    first the folds where the last width to visit each scored its largest
    miss (1 - accuracy), then by lowest summed accuracy over the widths not
    stopped so far, then by fold index, so losses show early.  A width that
    is not stopped is averaged in fold order, which makes the pick the same
    as evaluating every width on every fold.
    """
    inner_k = min(cfg.folds, train.n_samples)
    plan = stratified_folds(train.labels, inner_k, trial_seed)
    scaled = [  # each inner fold's scaled (train, validation) pair, made once
        _scaled(split_rows(train, np.flatnonzero(plan != fold)),
                split_rows(train, np.flatnonzero(plan == fold)), cfg.scale_eps)
        for fold in range(inner_k)
    ]
    widths = sorted(cfg.grid)
    widths.insert(0, widths.pop((len(widths) - 1) // 2))
    best_h, best_acc, fits = None, -1.0, 0
    fold_sums = [0.0] * inner_k  # per fold, summed accuracy of the widths not stopped
    misses = [0.0] * inner_k  # per fold, the miss of the last width to visit it
    for h in widths:
        accs = {}
        for fold in sorted(range(inner_k), key=lambda f: (-misses[f], fold_sums[f], f)):
            tr_s, va_s = scaled[fold]
            spec = _spec(tr_s.x, tr_s.y, cfg.hidden_for(h), _unit_seed(trial_seed, h, fold))
            net, _ = _fit(cfg, [(tr_s.x, tr_s.y, spec)])[0]
            fits += 1
            misses[fold] = _test_error(net, va_s)
            accs[fold] = 1.0 - misses[fold]
            left = inner_k - len(accs)
            if left and sum(accs.values()) + left < inner_k * best_acc - 1e-9:
                break
        else:
            in_order = [accs[fold] for fold in range(inner_k)]
            fold_sums = [total + acc for total, acc in zip(fold_sums, in_order)]
            mean_acc = float(np.mean(in_order))
            if mean_acc > best_acc or (mean_acc == best_acc and h < best_h):
                best_h, best_acc = h, mean_acc
    return cfg.hidden_for(best_h), fits


def _cv_rows(cfg: ExperimentConfig, ds: Dataset, units: list) -> list[dict]:
    """The report rows of ``units``, in order: each (trial, fold) scales its folds,
    selects its hidden sizes (with a grid) and queues its final fit by (training
    rows, hidden).  One ``_fit`` call fits a queue of ``_stack_size`` fits, and any
    left at the end; a row's trainer and ``train_wall_time`` come from its report.
    Module-level, so that a pool worker can run it."""
    rows, queues = [], {}
    for trial, fold in units:
        plan = stratified_folds(ds.labels, cfg.folds, _unit_seed(cfg.seed, trial))
        train = split_rows(ds, np.flatnonzero(plan != fold))
        train_s, test_s = _scaled(train, split_rows(ds, np.flatnonzero(plan == fold)), cfg.scale_eps)
        t0 = time.perf_counter()
        hidden, fits = (_select_hidden(cfg, train, _unit_seed(cfg.seed, trial, fold))
                        if cfg.grid else (cfg.layers, 0))
        rows.append(row := {"trial": trial, "fold": fold, "hidden": list(hidden),
                            "select_fits": fits, "select_wall_time": time.perf_counter() - t0})
        spec = _spec(train_s.x, train_s.y, hidden, _unit_seed(cfg.seed, trial, fold, 1))
        key = (train_s.n_samples, hidden)
        queues.setdefault(key, []).append((row, test_s, (train_s.x, train_s.y, spec)))
        if len(queues[key]) == _stack_size(spec, key[0]):
            _score(cfg, queues.pop(key))  # its inputs go before more units are read
    for queue in queues.values():
        _score(cfg, queue)
    return rows


def _score(cfg: ExperimentConfig, queue: list) -> None:  # fit each (row, test, fit); score
    for (row, test, _), (net, rep) in zip(queue, _fit(cfg, [f for *_, f in queue]), strict=True):
        row.update(trainer=rep.trainer, accuracy=1.0 - _test_error(net, test),
                   train_sse=rep.train_sse, train_wall_time=rep.wall_time)


def _usable_cpus() -> int:
    """CPUs this process may run on (``taskset`` lowers it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _process_pool(workers: int):
    """An executor of ``workers`` forked processes (ValueError where there is no fork)."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def _pool_rows(cfg: ExperimentConfig, ds: Dataset, units: list, workers: int) -> list[dict]:
    """Rows of ``units``, in order, from ``workers`` processes, a run of units to a
    worker (with a grid: a unit to a task); a worker's KarnetError is raised here.
    A pool that cannot start or breaks returns its finished tasks' rows."""
    from concurrent.futures.process import BrokenProcessPool

    rows: list[dict] = []
    try:
        pool = _process_pool(workers)
        try:
            # a run fills a worker's gd stacks; grid selection's units differ in cost,
            # and single units balance them
            size = 1 if cfg.grid else -(-len(units) // workers)
            for task_rows in pool.map(_cv_rows, repeat(cfg), repeat(ds),
                                      [units[i:i + size] for i in range(0, len(units), size)]):
                rows += task_rows
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
    except (BrokenProcessPool, OSError, ValueError):
        pass  # e.g. a worker killed, no memory to fork, or no fork on this platform
    return rows


def run_cv(cfg: ExperimentConfig) -> dict:
    """Stratified k-fold cross-validation, repeated over trials.

    Fold plans depend only on (seed, trial), never on the trainer, so
    different trainers evaluated with the same seed see identical splits.
    A run names ``layers`` or a sweep grid, not both.  A grid comes with an
    exp2, exp3 or exp4 pattern (one needs the other), and the hidden size is
    then selected per fold by an inner cross-validation on the training
    subset only.  Each row times that selection (``select_wall_time``) apart
    from the final fit (``train_wall_time``); ``aggregate.total_wall_time``
    is their sum.  Each row counts the selection's inner fits
    (``select_fits``, 0 without a grid); ``aggregate.select_fits`` is their sum.

    Where BLAS runs one thread, which forked workers inherit, and two or more
    CPUs are usable, the (trial, fold) units go to one process per usable CPU
    (no more than there are units); otherwise they run here, as do any that a
    broken pool left.  Every unit takes ``_cv_rows``' one pipeline, where gd
    fits of one shape stack.  Rows keep order.
    """
    ds = load_dataset(cfg)
    if ds.class_count < 2:
        raise ConfigError("cross-validation needs at least two classes")
    if bool(cfg.grid) != (cfg.pattern != "fixed"):
        raise ConfigError("cv --grid needs --pattern exp2, exp3 or exp4, and a pattern needs a grid")
    if bool(cfg.grid) == bool(cfg.layers):
        raise ConfigError("cv needs --layers or a sweep --grid, not both")
    check_fold_count(cfg.folds, ds.n_samples)
    outdir = _output_dir(cfg)

    units = [(trial, fold) for trial in range(cfg.trials) for fold in range(cfg.folds)]
    one_thread = all(os.environ.get(var) == "1" for var in BLAS_THREAD_VARS)
    workers = min(_usable_cpus(), len(units)) if one_thread else 1
    rows = _pool_rows(cfg, ds, units, workers) if workers > 1 else []
    rows += _cv_rows(cfg, ds, units[len(rows):])

    accuracies = [r["accuracy"] for r in rows]
    times = [r["train_wall_time"] for r in rows]
    select_times = [r["select_wall_time"] for r in rows]
    report = {
        "command": "cv",
        "trainer": cfg.trainer,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "folds": cfg.folds,
        "dataset": cfg.dataset,
        "rows": rows,
        "aggregate": {
            "mean_accuracy": float(np.mean(accuracies)),
            "mean_train_wall_time": float(np.mean(times)),
            "total_train_wall_time": float(np.sum(times)),
            "total_wall_time": float(np.sum(times) + np.sum(select_times)),
            "select_fits": sum(r["select_fits"] for r in rows),
        },
    }
    write_report(report, outdir / "report.json")
    return report


def run_train(cfg: ExperimentConfig) -> dict:
    """Fit one network on a full dataset; persist weights and a report."""
    ds = load_dataset(cfg)
    outdir = _output_dir(cfg)
    scaled = scale_minmax(ds, cfg.scale_eps)
    net, rep = _fit(cfg, [(scaled.x, scaled.y, _spec(scaled.x, scaled.y, cfg.layers, cfg.seed))])[0]
    from .network import save_network

    save_network(net, outdir / "weights.json")
    preprocessing = {"scale_eps": cfg.scale_eps, "scaling": scaled.scaling}
    if ds.class_names is not None:
        preprocessing["classes"] = ds.class_names
    report = {
        "command": "train",
        "dataset": cfg.dataset,
        "trainer": cfg.trainer,
        "train_report": rep.to_dict(),
        "weights_file": "weights.json",
        "preprocessing": preprocessing,
    }
    write_report(report, outdir / "report.json")
    return report


def _train_preprocessing(sidecar: Path) -> dict:
    """The ``preprocessing`` block of a train report; empty without one."""
    if not sidecar.exists():
        return {}
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            pre = json.load(fh).get("preprocessing") or {}
    except (OSError, ValueError, AttributeError, RecursionError) as exc:
        raise DataError(f"cannot read train report {sidecar}: {exc}") from None
    if not isinstance(pre, dict):
        raise DataError(f"train report {sidecar}: preprocessing is not an object")
    return pre


def run_eval(cfg: ExperimentConfig, weights_path) -> dict:
    """Evaluate stored weights on a dataset.

    Reuses the training-time scaling when a train report sits next to the
    weights file; otherwise fits scaling on the evaluation data itself.
    Class labels are matched to the trained outputs by the class names the
    train report lists, so the order in which classes appear in the
    evaluation file does not matter.
    """
    from .network import load_network

    net = load_network(weights_path)
    ds = load_dataset(cfg)
    outdir = _output_dir(cfg)
    sidecar = Path(weights_path).parent / "report.json"
    pre = _train_preprocessing(sidecar)
    scaling = pre.get("scaling")
    classes = pre.get("classes")
    if classes and ds.class_names is not None:
        if not isinstance(classes, list) or len(classes) != net.spec.output_dim:
            raise DataError(
                f"train report classes {classes!r} do not match the "
                f"{net.spec.output_dim} network outputs"
            )
        ds = reorder_classes(ds, [str(c) for c in classes])
    if (ds.n_features, ds.y.shape[1]) != (net.spec.input_dim, net.spec.output_dim):
        raise DataError(
            f"data has {ds.n_features} features and {ds.y.shape[1]} target columns; "
            f"the network takes {net.spec.input_dim} and gives {net.spec.output_dim}"
        )
    if scaling:  # apply_scaling checks the report's bounds and margin
        try:
            scaled = apply_scaling(ds, scaling, pre.get("scale_eps", cfg.scale_eps))
        except KarnetError as exc:
            raise DataError(f"train report {sidecar}: {exc}") from None
        except (TypeError, ValueError) as exc:  # an entry that is not a pair of numbers
            raise DataError(f"train report {sidecar}: malformed scaling: {exc}") from None
    else:
        scaled = scale_minmax(ds, cfg.scale_eps)
    g = forward(net, scaled.x)
    report: dict = {
        "command": "eval",
        "dataset": cfg.dataset,
        "sse": float(np.sum((g - scaled.y) ** 2)),
        "n_samples": ds.n_samples,
        "scaling_reused": bool(scaling),
    }
    if ds.labels is not None and ds.class_count >= 2:
        report["error_rate"] = error_rate(g, scaled.y)
        report["accuracy"] = 1.0 - report["error_rate"]
    write_report(report, outdir / "eval_report.json")
    return report
