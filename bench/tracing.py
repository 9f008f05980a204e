"""Spans around the module-level names karnet calls through.

A traced round replaces names such as ``karnet.training.pinv`` with
wrappers that record a span (name, wrapped site, parent span, start, end)
and a few counts, then restores the originals.  Nothing inside karnet is
edited.  A name that a later refactor removes is skipped and its metrics
read 0; an untraced round runs with no wrapper installed.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "cli", "experiments", "data", "training", "gradient_descent",
    "network", "activations", "linalg",
)


def _pinv_shape(tracer, rec, args, kwargs, result):
    m, n = np.shape(args[0])
    p, r = max(m, n), min(m, n)
    c = tracer.counts
    side = "tall" if m >= n else "wide"
    c[f"linalg.pinv.{side}_calls"] += 1
    c[f"linalg.pinv.{side}_s"] += rec[4] - rec[3]
    # thin SVD (Golub & Van Loan R-SVD, 4pr^2 + 22r^3) plus V diag U^T (2pr^2)
    c["linalg.pinv.gflop"] += (6.0 * p * r * r + 22.0 * r ** 3) / 1e9
    # input, U, s, V^T and the pseudoinverse, float64
    mb = 8.0 * (2 * m * n + m * r + r + r * n) / 1e6
    c["linalg.pinv.max_mb"] = max(c["linalg.pinv.max_mb"], mb)


def _guard_enter(tracer, rec, args, kwargs):
    rec.append(kwargs.get("kappa", args[2] if len(args) > 2 else None))


def _svd_exit(tracer, rec, args, kwargs, result):
    parent = tracer.spans[rec[2]] if rec[2] >= 0 else None
    if parent is None or parent[0] != "training.guard" or parent[5] is None:
        return
    s = result if isinstance(result, np.ndarray) else result[1]
    tracer.counts["training.guard.draws"] += 1
    if s[-1] > 0.0 and s[0] / s[-1] <= parent[5]:
        tracer.counts["training.guard.accepted"] += 1


def _clamp_enter(tracer, rec, args, kwargs):
    pair, m = args[0], np.asarray(args[1])
    lo, hi = pair.lo + pair.clamp_eps, pair.hi - pair.clamp_eps
    tracer.counts["activations.apply_f.elements"] += m.size
    tracer.counts["activations.apply_f.clamped"] += int(np.count_nonzero((m < lo) | (m > hi)))


def _forward_rows(tracer, rec, args, kwargs, result):
    tracer.counts["network.forward.rows"] += np.shape(args[1])[0]


def _saved_bytes(tracer, rec, args, kwargs, result):
    tracer.counts["network.json.mb"] += os.path.getsize(args[1]) / 1e6


def _loaded_bytes(tracer, rec, args, kwargs, result):
    tracer.counts["network.json.mb"] += os.path.getsize(args[0]) / 1e6


def _csv_rows(tracer, rec, args, kwargs, result):
    tracer.counts["data.load_csv.rows"] += result.x.shape[0]


def _cv_reported(tracer, rec, args, kwargs, result):
    rows = result.get("rows", []) if isinstance(result, dict) else []
    tracer.counts["experiments.cv.reported_train_s"] += sum(
        r.get("train_wall_time", 0.0) for r in rows
    )


# (module, name, span, on_enter, on_exit); the span's layer is its first part
WRAPS = (
    ("karnet.cli", "main", "cli.main", None, None),
    ("karnet.cli", "run_cv", "experiments.run", None, _cv_reported),
    ("karnet.cli", "run_train", "experiments.run", None, None),
    ("karnet.cli", "run_eval", "experiments.run", None, None),
    ("karnet.experiments", "write_report", "experiments.write_report", None, None),
    ("karnet.experiments", "load_csv", "data.load_csv", None, _csv_rows),
    ("karnet.data", "load_csv", "data.load_csv", None, _csv_rows),
    ("karnet.experiments", "scale_minmax", "data.scale", None, None),
    ("karnet.experiments", "apply_scaling", "data.scale", None, None),
    ("karnet.experiments", "split_rows", "data.split", None, None),
    ("karnet.experiments", "train_single_layer", "training.fit", None, None),
    ("karnet.experiments", "train_n_layer", "training.fit", None, None),
    ("karnet.experiments", "train_random_hidden", "training.fit", None, None),
    ("karnet.experiments", "train_gd", "gradient_descent.train", None, None),
    ("karnet.experiments", "forward", "network.forward", None, _forward_rows),
    ("karnet.training", "_guarded_uniform", "training.guard", _guard_enter, None),
    ("karnet.training", "_solve", "training.solve", None, None),
    ("karnet.training", "pinv", "linalg.pinv", None, _pinv_shape),
    ("karnet.linalg", "pinv", "linalg.pinv", None, _pinv_shape),
    ("karnet.training", "forward", "network.forward", None, _forward_rows),
    ("karnet.training", "transformed_sse", "training.transformed_sse", None, None),
    ("karnet.training", "apply_f", "activations.apply_f", _clamp_enter, None),
    ("karnet.training", "apply_phi", "activations.apply_phi", None, None),
    ("karnet.network", "apply_f", "activations.apply_f", _clamp_enter, None),
    ("karnet.network", "save_network", "network.json", None, _saved_bytes),
    ("karnet.network", "load_network", "network.json", None, _loaded_bytes),
    ("karnet.gradient_descent", "sse_and_gradients", "gradient_descent.step", None, None),
    ("karnet.gradient_descent", "forward", "network.forward", None, _forward_rows),
    ("karnet.gradient_descent", "transformed_sse", "training.transformed_sse", None, None),
)
# modules whose `np.linalg.svd` calls are traced through a stand-in `np`
SVD_SITES = ("karnet.linalg", "karnet.training")
# spans the trainers open to score their own fit (the report part of a fit)
REPORT_SITES = ("karnet.training", "karnet.gradient_descent")


class _Forward:
    """Stand-in for a module: listed names are replaced, the rest pass through."""

    def __init__(self, target, **names):
        self._target = target
        self.__dict__.update(names)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Spans and counts of the traced rounds, kept in memory.

    A span is ``[name, site, parent, start, end, *extra]``; ``parent`` is the
    index of the enclosing span, or -1.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, name, site, on_enter=None, on_exit=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, site, stack[-1] if stack else -1, 0.0, 0.0]
            if on_enter is not None:
                on_enter(self, rec, args, kwargs)
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if on_exit is not None:
                on_exit(self, rec, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        for mod_name, attr, name, on_enter, on_exit in WRAPS:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, attr, None)):
                self.missing.add(f"{mod_name}.{attr}")
                continue
            self._patch(module, attr, self._wrap(
                getattr(module, attr), name, mod_name, on_enter, on_exit))
        for mod_name in SVD_SITES:
            try:
                np_mod = getattr(importlib.import_module(mod_name), "np", None)
            except ImportError:
                np_mod = None
            if not callable(getattr(getattr(np_mod, "linalg", None), "svd", None)):
                self.missing.add(f"{mod_name}.np.linalg.svd")
                continue
            svd = self._wrap(np_mod.linalg.svd, "linalg.svd", mod_name, None, _svd_exit)
            module = importlib.import_module(mod_name)
            self._patch(module, "np", _Forward(np_mod, linalg=_Forward(np_mod.linalg, svd=svd)))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds spent in each layer's spans minus the spans they enclose."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[2] >= 0:
                child[rec[2]] += rec[4] - rec[3]
        out = dict.fromkeys(LAYERS, 0.0)
        for rec, inner in zip(self.spans, child):
            layer = rec[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (rec[4] - rec[3]) - inner
        return out

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, counts and seconds per traced round."""
        calls: defaultdict[str, int] = defaultdict(int)
        secs: defaultdict[str, float] = defaultdict(float)
        report_s = 0.0
        for rec in self.spans:
            dur = rec[4] - rec[3]
            calls[rec[0]] += 1
            secs[rec[0]] += dur
            if rec[0] in ("network.forward", "training.transformed_sse") and rec[1] in REPORT_SITES:
                report_s += dur
            elif rec[0] == "linalg.pinv" and rec[1] == "karnet.training" and (
                    rec[2] < 0 or self.spans[rec[2]][0] != "training.solve"):
                # the trainer's own pinv calls outside _solve invert random node blocks
                calls["training.peel"] += 1
                secs["training.peel"] += dur
        c = self.counts
        draws = c["training.guard.draws"]
        elements = c["activations.apply_f.elements"]
        per = 1.0 / rounds
        out = {
            "linalg.pinv.calls": (calls["linalg.pinv"] * per, "count"),
            "linalg.pinv.s": (secs["linalg.pinv"] * per, "s"),
            "linalg.pinv.tall_calls": (c["linalg.pinv.tall_calls"] * per, "count"),
            "linalg.pinv.wide_calls": (c["linalg.pinv.wide_calls"] * per, "count"),
            "linalg.pinv.tall_s": (c["linalg.pinv.tall_s"] * per, "s"),
            "linalg.pinv.wide_s": (c["linalg.pinv.wide_s"] * per, "s"),
            "linalg.pinv.gflop": (c["linalg.pinv.gflop"] * per, "GFLOP-computed"),
            "linalg.pinv.max_mb": (c["linalg.pinv.max_mb"], "MB-computed"),
            "linalg.svd.calls": (calls["linalg.svd"] * per, "count"),
            "linalg.svd.s": (secs["linalg.svd"] * per, "s"),
            "training.fit.calls": (calls["training.fit"] * per, "count"),
            "training.fit.s": (secs["training.fit"] * per, "s"),
            "training.guard.calls": (calls["training.guard"] * per, "count"),
            "training.guard.svd_calls": (draws * per, "count"),
            "training.guard.s": (secs["training.guard"] * per, "s"),
            "training.guard.accept_ratio": (
                c["training.guard.accepted"] / draws if draws else 0.0, "fraction"),
            "training.peel.calls": (calls["training.peel"] * per, "count"),
            "training.peel.s": (secs["training.peel"] * per, "s"),
            "training.solve.calls": (calls["training.solve"] * per, "count"),
            "training.solve.s": (secs["training.solve"] * per, "s"),
            "training.report.s": (report_s * per, "s"),
            "activations.apply_f.calls": (calls["activations.apply_f"] * per, "count"),
            "activations.apply_f.s": (secs["activations.apply_f"] * per, "s"),
            "activations.apply_f.clamped_frac": (
                c["activations.apply_f.clamped"] / elements if elements else 0.0, "fraction"),
            "activations.apply_phi.calls": (calls["activations.apply_phi"] * per, "count"),
            "activations.apply_phi.s": (secs["activations.apply_phi"] * per, "s"),
            "network.forward.calls": (calls["network.forward"] * per, "count"),
            "network.forward.s": (secs["network.forward"] * per, "s"),
            "network.forward.rows": (c["network.forward.rows"] * per, "count"),
            "network.json.s": (secs["network.json"] * per, "s"),
            "network.json.mb": (c["network.json.mb"] * per, "MB"),
            "gradient_descent.train.calls": (calls["gradient_descent.train"] * per, "count"),
            "gradient_descent.train.s": (secs["gradient_descent.train"] * per, "s"),
            "gradient_descent.step.calls": (calls["gradient_descent.step"] * per, "count"),
            "gradient_descent.step.s": (secs["gradient_descent.step"] * per, "s"),
            "data.load_csv.calls": (calls["data.load_csv"] * per, "count"),
            "data.load_csv.s": (secs["data.load_csv"] * per, "s"),
            "data.load_csv.rows": (c["data.load_csv.rows"] * per, "count"),
            "data.scale.s": (secs["data.scale"] * per, "s"),
            "data.split.calls": (calls["data.split"] * per, "count"),
            "data.split.s": (secs["data.split"] * per, "s"),
            "experiments.run.s": (secs["experiments.run"] * per, "s"),
            "experiments.cv.reported_train_s": (
                c["experiments.cv.reported_train_s"] * per, "s"),
            "experiments.write_report.s": (secs["experiments.write_report"] * per, "s"),
            "cli.main.calls": (calls["cli.main"] * per, "count"),
            "cli.main.s": (secs["cli.main"] * per, "s"),
        }
        for layer, s in self.self_times().items():
            out[f"{layer}.self_s"] = (s * per, "s")
        return out
