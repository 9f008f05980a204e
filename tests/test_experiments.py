"""Harness tests: decoding, demo runs, sweeps, cross-validation."""

import csv
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import karnet
import karnet.experiments as experiments
import karnet.gradient_descent as gradient_descent
from karnet import ConfigError, ExperimentConfig, NetworkSpec, error_rate
from karnet.cli import EXIT_NUMERIC, main
from karnet.data import load_iris, split_rows, stratified_folds
from karnet.errors import DataError, NumericalError
from karnet.experiments import run_cv, run_iris_sweep, run_xor_demo, write_report


def strip_wall_times(obj):
    """Drop every dict key containing 'wall_time', recursively."""
    if isinstance(obj, dict):
        return {
            k: strip_wall_times(v)
            for k, v in obj.items()
            if "wall_time" not in k
        }
    if isinstance(obj, list):
        return [strip_wall_times(v) for v in obj]
    return obj


class TestClassify:
    def test_argmax_rows(self):
        assert error_rate([[0.9, 0.1], [0.2, 0.8]], np.eye(2)) == 0.0

    def test_tie_breaks_low(self):
        assert error_rate([[0.5, 0.5]], [[1.0, 0.0]]) == 0.0
        assert error_rate([[0.5, 0.5]], [[0.0, 1.0]]) == 1.0

    def test_identity_rows(self):
        assert error_rate(np.eye(4), np.eye(4)) == 0.0

    def test_single_column_thresholds_at_half(self):
        assert error_rate([[0.4], [0.6], [0.6]], [[0.0], [1.0], [0.0]]) == pytest.approx(1 / 3)

    def test_error_rate(self):
        out = np.array([[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.9, 0.1]])
        assert error_rate(out, np.eye(2)[[0, 0, 1, 1]]) == pytest.approx(0.25)


class TestXorDemo:
    def test_outputs_and_surface(self, tmp_path):
        cfg = ExperimentConfig(dataset="xor", out=str(tmp_path), seed=0)
        report = run_xor_demo(cfg)
        for tag in ("2layer", "5layer"):
            outs = np.asarray(report["nets"][tag]["trained_outputs"])
            np.testing.assert_allclose(outs, [0, 0, 1, 1], atol=1e-3)
        with open(tmp_path / "surface.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 101 * 101
        assert rows[0] == ["x1", "x2", "out_2layer", "out_5layer"]
        assert (tmp_path / "report.json").exists()


class TestIrisSweep:
    def test_small_grid_structure(self, tmp_path):
        cfg = ExperimentConfig(out=str(tmp_path), seed=0, trials=3,
                               grid=(10, 90))
        report = run_iris_sweep(cfg)
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 3
        assert report["per_h"]["90"]["max_train_sse_transformed"] <= 1e-6
        assert report["per_h"]["10"]["mean_train_sse"] > 1e-6

    def test_aggregates_match_rows(self, tmp_path):
        cfg = ExperimentConfig(out=str(tmp_path), seed=1, trials=4, grid=(5,))
        report = run_iris_sweep(cfg)
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        sses = [float(r[2]) for r in rows if r[0] == "5"]
        assert report["per_h"]["5"]["mean_train_sse"] == pytest.approx(
            float(np.mean(sses)), abs=1e-12
        )

    def test_deterministic_excluding_wall_time(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run_iris_sweep(
                ExperimentConfig(out=str(out), seed=7, trials=2, grid=(20, 21))
            )
        rep_a = json.loads((out_a / "report.json").read_text())
        rep_b = json.loads((out_b / "report.json").read_text())
        assert json.dumps(strip_wall_times(rep_a), sort_keys=True) == json.dumps(
            strip_wall_times(rep_b), sort_keys=True
        )
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()


class TestRunCv:
    def test_fold_plans_shared_between_trainers(self, tmp_path):
        base = dict(dataset="iris", seed=3, trials=1, folds=5,
                    layers=(5,), max_iters=3)
        rep_kar = run_cv(ExperimentConfig(
            out=str(tmp_path / "kar"), trainer="kar", **base))
        rep_gd = run_cv(ExperimentConfig(
            out=str(tmp_path / "gd"), trainer="gd", **base))
        # identical (trial, fold) row structure proves the shared plan;
        # accuracies differ but fold sizes must match exactly
        for ra, rb in zip(rep_kar["rows"], rep_gd["rows"]):
            assert (ra["trial"], ra["fold"]) == (rb["trial"], rb["fold"])

    def test_aggregate_recomputable(self, tmp_path):
        rep = run_cv(ExperimentConfig(
            dataset="iris", out=str(tmp_path), seed=0, trials=2, folds=5,
            layers=(10,)))
        accs = [r["accuracy"] for r in rep["rows"]]
        assert rep["aggregate"]["mean_accuracy"] == pytest.approx(
            float(np.mean(accs)), abs=1e-12)
        assert len(rep["rows"]) == 2 * 5

    def test_majority_class_floor(self, tmp_path):
        """A trivial constant net cannot beat the class prior by much on
        balanced folds; the harness accuracy for a 1-hidden-node kar net
        should still clear 1/3 on iris."""
        rep = run_cv(ExperimentConfig(
            dataset="iris", out=str(tmp_path), seed=0, trials=1, folds=10,
            layers=(1,)))
        assert rep["aggregate"]["mean_accuracy"] >= 1.0 / 3.0 - 0.05

    def test_inner_selection_over_grid(self, tmp_path):
        rep = run_cv(ExperimentConfig(
            dataset="iris", out=str(tmp_path), seed=0, trials=1, folds=3,
            grid=(1, 5), pattern="exp2"))
        assert all(r["hidden"] in ([1], [5]) for r in rep["rows"])

    def test_wall_time_counts_model_selection(self, tmp_path):
        rep = run_cv(
            ExperimentConfig(dataset="iris", out=str(tmp_path), seed=0,
                             trials=1, folds=3, grid=(2, 5), pattern="exp2")
        )
        rows = rep["rows"]
        assert all(r["select_wall_time"] > 0.0 for r in rows)
        parts = sum(r["select_wall_time"] + r["train_wall_time"] for r in rows)
        assert rep["aggregate"]["total_wall_time"] >= parts * (1 - 1e-12)

    def test_inner_folds_scaled_once(self, tmp_path, monkeypatch):
        """Model selection scales each inner fold once, not once per grid value."""
        calls = []
        original = experiments.scale_minmax

        def counting(ds, eps):
            calls.append(ds.n_samples)
            return original(ds, eps)

        monkeypatch.setattr(experiments, "scale_minmax", counting)
        # forked workers would see the patch, but their calls are not counted here
        force_inline(monkeypatch)
        folds = 3
        run_cv(ExperimentConfig(dataset="iris", out=str(tmp_path), seed=0, trials=1,
                                folds=folds, grid=(1, 2, 5), pattern="exp2"))
        assert len(calls) == folds + folds * folds  # outer folds + their inner folds

    def test_requires_labels_and_arch(self, tmp_path):
        with pytest.raises(ConfigError):
            run_cv(ExperimentConfig(dataset="iris", out=str(tmp_path)))
        with pytest.raises(ConfigError):
            run_cv(ExperimentConfig(dataset="xor", out=str(tmp_path),
                                    layers=(2,), folds=10))

    def test_non_integer_layer_size_is_config_error(self, tmp_path):
        """A width of 2.9 is refused, not trained as 2 and reported as 2.9."""
        with pytest.raises(ConfigError, match="layer sizes must be integers >= 1"):
            run_cv(ExperimentConfig(dataset="iris", out=str(tmp_path), layers=(2.9,),
                                    trials=1, folds=2))

    @pytest.mark.parametrize("grid", [(2.9,), (True,), (3, "5")])
    def test_non_integer_grid_value_is_config_error(self, grid):
        """As with a layer size: 2.9 is not run as 2, nor True as 1."""
        with pytest.raises(ConfigError, match="grid values must be integers >= 1"):
            ExperimentConfig(grid=grid, pattern="exp2")

    @pytest.mark.parametrize("options", [
        pytest.param(dict(folds=2.5), id="folds"),
        pytest.param(dict(trials=2.5), id="trials"),
        pytest.param(dict(trials=True), id="bool-trials"),
        pytest.param(dict(seed=1.5), id="seed"),
        pytest.param(dict(seed=None), id="seed-none"),
        pytest.param(dict(trainer="gd", max_iters=2.5), id="max_iters"),
    ])
    def test_non_integer_count_is_config_error_before_out_is_made(self, tmp_path, options):
        """A count of 2.5 is refused, not left to end in a TypeError once the
        output directory is made; nor does True run as one trial."""
        out = tmp_path / "cv"
        with pytest.raises(ConfigError, match="^seed"):
            run_cv(ExperimentConfig(**{"dataset": "iris", "layers": (3,), "trials": 1, "folds": 2,
                                       "out": str(out), **options}))
        assert not out.exists()

    @pytest.mark.parametrize("folds", [0, 1, 151])
    def test_fold_count_outside_two_to_the_rows_is_config_error_before_out_is_made(
        self, tmp_path, folds
    ):
        out = tmp_path / "cv"
        with pytest.raises(ConfigError, match="^folds must be an integer from 2 to the sample count 150"):
            run_cv(ExperimentConfig(dataset="iris", layers=(3,), trials=1, folds=folds, out=str(out)))
        assert not out.exists()

    def test_numpy_grid_values_run_and_report_as_json_ints(self, tmp_path):
        grid = tuple(np.arange(2, 4))
        cfg = ExperimentConfig(dataset="iris", grid=grid, pattern="exp2", trials=1, folds=3,
                               out=str(tmp_path / "cv"))
        assert cfg.grid == (2, 3) and {type(h) for h in cfg.grid} == {int}
        run_cv(cfg)
        rows = json.loads((tmp_path / "cv" / "report.json").read_text())["rows"]
        assert {h for row in rows for h in row["hidden"]} <= {2, 3}
        sweep = run_iris_sweep(ExperimentConfig(grid=grid, trials=1, out=str(tmp_path / "sweep")))
        assert json.loads((tmp_path / "sweep" / "report.json").read_text())["grid"] == [2, 3]
        assert sorted(sweep["per_h"]) == ["2", "3"]

    def test_descent_options_are_checked_for_the_analytic_trainer_too(self):
        with pytest.raises(ConfigError, match=r"^learning_rate must be finite and >= 0, got -1.0$"):
            ExperimentConfig(trainer="kar", learning_rate=-1.0)

    def test_deterministic_excluding_wall_time(self, tmp_path):
        reports = []
        for tag in ("a", "b"):
            reports.append(run_cv(ExperimentConfig(
                dataset="iris", out=str(tmp_path / tag), seed=11, trials=1,
                folds=4, layers=(8,))))
        a, b = (json.dumps(strip_wall_times(r), sort_keys=True) for r in reports)
        assert a == b


_usable_cpus = experiments._usable_cpus  # the real count, which force_inline replaces


def force_inline(monkeypatch):
    """Run every cv unit in this process."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)


def skip_unless_cv_can_pool():
    """Skip where run_cv would not pool: one usable CPU, or BLAS threads not 1."""
    if experiments._usable_cpus() < 2:
        pytest.skip("cv pools only with two usable CPUs")
    if any(os.environ.get(var) != "1" for var in karnet.BLAS_THREAD_VARS):
        pytest.skip("cv pools only at one BLAS thread")


def force_pool(monkeypatch):
    """Hand every cv unit to the process pool, undoing ``force_inline``;
    returns the worker count of each pool started."""
    monkeypatch.setattr(experiments, "_usable_cpus", _usable_cpus)
    skip_unless_cv_can_pool()
    started = []
    factory = experiments._process_pool

    def counting(workers):
        started.append(workers)
        return factory(workers)

    monkeypatch.setattr(experiments, "_process_pool", counting)
    return started


def _cv_blob(out) -> str:
    return json.dumps(strip_wall_times(json.loads((out / "report.json").read_text())),
                      sort_keys=True)


def _exhaustive_selection(cfg, train, trial_seed):
    """Reference width selection: every width on every inner fold, mean
    accuracy in fold order, strictly better to win."""
    inner_k = min(cfg.folds, train.n_samples)
    plan = stratified_folds(train.labels, inner_k, trial_seed)
    best_h, best_acc = None, -1.0
    for h in sorted(cfg.grid):
        accs = []
        for fold in range(inner_k):
            tr_s, va_s = experiments._scaled(split_rows(train, np.flatnonzero(plan != fold)),
                                             split_rows(train, np.flatnonzero(plan == fold)),
                                             cfg.scale_eps)
            seed = experiments._unit_seed(trial_seed, h, fold)
            spec = experiments._spec(tr_s.x, tr_s.y, cfg.hidden_for(h), seed)
            net, _ = experiments._fit(cfg, [(tr_s.x, tr_s.y, spec)])[0]
            accs.append(1.0 - experiments._test_error(net, va_s))
        mean_acc = float(np.mean(accs))
        if mean_acc > best_acc:
            best_h, best_acc = h, mean_acc
    return cfg.hidden_for(best_h)


def _cache_fits(monkeypatch):
    """Serve repeated fits on identical inputs from a cache; returns the
    list of every fit asked for."""
    cache, asked = {}, []
    fit = experiments._fit

    def cached(cfg, fits):
        nets = []
        for x, y, spec in fits:
            key = (cfg, spec.hidden, spec.seed, x.tobytes(), y.tobytes())
            asked.append(key)
            if key not in cache:
                cache[key] = fit(cfg, [(x, y, spec)])[0]
            nets.append(cache[key])
        return nets

    monkeypatch.setattr(experiments, "_fit", cached)
    return asked


class TestSelectHidden:
    @pytest.mark.parametrize("options", [
        pytest.param(dict(grid=experiments.PAPER_GRID, pattern="exp2", seed=seed), id=f"paper-{seed}")
        for seed in (0, 1, 2)
    ] + [
        pytest.param(dict(grid=(1, 2, 3, 5, 10), pattern="exp3", folds=5, seed=4), id="exp3"),
        pytest.param(dict(grid=(1, 3, 5), pattern="exp2", trainer="gd", max_iters=30,
                          gradient_clip=1.0, folds=4, seed=6), id="gd"),
        # the middle width, 20, goes first but most folds pick 10 or 5
        pytest.param(dict(grid=(5, 10, 20, 200, 500), pattern="exp2", seed=0), id="middle-first"),
    ])
    def test_picks_the_exhaustive_width(self, tmp_path, monkeypatch, options):
        """Every outer fold's pick is the width an exhaustive inner cv picks,
        and each row counts the inner fits the selection asked for."""
        cfg = ExperimentConfig(dataset="iris", out=str(tmp_path), trials=1,
                               **{"folds": 10, **options})
        asked = _cache_fits(monkeypatch)
        force_inline(monkeypatch)
        rep = run_cv(cfg)
        ds = experiments.load_dataset(cfg)
        plan = stratified_folds(ds.labels, cfg.folds, experiments._unit_seed(cfg.seed, 0))
        exhaustive_fits = len(cfg.grid) * cfg.folds * cfg.folds
        assert len(asked) == rep["aggregate"]["select_fits"] + cfg.folds
        for row in rep["rows"]:
            train = split_rows(ds, np.flatnonzero(plan != row["fold"]))
            grid_seed = experiments._unit_seed(cfg.seed, 0, row["fold"])
            assert row["hidden"] == list(_exhaustive_selection(cfg, train, grid_seed))
        assert sum(r["select_fits"] for r in rep["rows"]) == rep["aggregate"]["select_fits"]
        assert rep["aggregate"]["select_fits"] <= exhaustive_fits
        if cfg.grid == experiments.PAPER_GRID and cfg.seed == 0:  # the README cv line
            assert rep["aggregate"]["select_fits"] < exhaustive_fits == 1200

    def test_single_width_and_layers_count_every_fit(self, tmp_path):
        grid = run_cv(ExperimentConfig(dataset="iris", out=str(tmp_path / "grid"), seed=2,
                                       trials=2, folds=4, grid=(5,), pattern="exp2"))
        assert [r["select_fits"] for r in grid["rows"]] == [4] * 8
        assert grid["aggregate"]["select_fits"] == 2 * 4 * 4
        layers = run_cv(ExperimentConfig(dataset="iris", out=str(tmp_path / "layers"),
                                         seed=2, trials=1, folds=4, layers=(5,)))
        assert [r["select_fits"] for r in layers["rows"]] == [0] * 4
        assert layers["aggregate"]["select_fits"] == 0

    @staticmethod
    def _scripted(monkeypatch, accs):
        """Select over the widths of ``accs`` with inner fold f of width h
        scoring ``accs[h][f]``; returns the picked width and the (h, fold)
        pairs in the order they were fit."""
        k = len(next(iter(accs.values())))
        trial_seed = 17
        fold_of = {(h, experiments._unit_seed(trial_seed, h, f)): f
                   for h in accs for f in range(k)}
        visits = []

        def fit(cfg, fits):
            [(x, y, spec)] = fits  # selection fits one net at a time
            visits.append((spec.hidden[0], fold_of[spec.hidden[0], spec.seed]))
            return [(visits[-1], None)]

        monkeypatch.setattr(experiments, "_fit", fit)
        monkeypatch.setattr(experiments, "_test_error", lambda net, test: 1.0 - accs[net[0]][net[1]])
        cfg = ExperimentConfig(grid=tuple(accs), pattern="exp2", folds=k)
        hidden, fits = experiments._select_hidden(cfg, load_iris(), trial_seed)
        assert fits == len(visits)
        return hidden[0], visits

    # accuracies are multiples of 1/8, so every sum below is exact
    def test_a_later_width_that_ties_is_run_out_and_not_picked(self, monkeypatch):
        picked, visits = self._scripted(monkeypatch, {1: [.5] * 4, 2: [.5] * 4,
                                                      3: [.25, .75, .5, .5]})
        assert picked == 1
        assert len(visits) == 12

    def test_a_bound_that_reaches_a_tie_runs_on_and_one_below_stops(self, monkeypatch):
        """The incumbent, the middle width 2, sums 3.0.  Width 1's bound after
        its second fold is 0.75 + 2 folds left = 2.75: stopped there.  Width
        3's bound after its first fold is 0 + 3 = 3.0, a tie: it runs all four
        folds (a larger width that ties never wins, but the 1e-9 margin only
        stops a width clearly below)."""
        picked, visits = self._scripted(monkeypatch, {1: [0, .75, 1, 1], 2: [.75] * 4,
                                                      3: [0, 1, 1, 1]})
        assert picked == 2
        assert [v for v in visits if v[0] == 1] == [(1, 0), (1, 1)]
        assert [v for v in visits if v[0] == 3] == [(3, 0), (3, 1), (3, 2), (3, 3)]

    def test_the_middle_width_goes_first_then_the_rest_ascending(self, monkeypatch):
        """Sorted, the grid is (1, 3, 5, 8); index (4 - 1) // 2 is width 3."""
        picked, visits = self._scripted(monkeypatch, {8: [.5] * 3, 1: [.25] * 3, 5: [.5] * 3,
                                                      3: [.75] * 3})
        assert picked == 3
        assert [h for h, _ in visits[:3]] == [3, 3, 3]
        assert list(dict.fromkeys(h for h, _ in visits)) == [3, 1, 5, 8]

    def test_a_smaller_width_that_ties_the_incumbent_replaces_it(self, monkeypatch):
        """Width 1 comes after the middle width 2 and ties it, so it is run
        out and picked, as an exhaustive cv would pick it; width 3 ties too
        but is larger."""
        picked, visits = self._scripted(monkeypatch, {1: [.5, .75, .75, .5],
                                                      2: [.75, .5, .5, .75], 3: [.625] * 4})
        assert picked == 1
        assert [h for h, _ in visits] == [2] * 4 + [1] * 4 + [3] * 4

    def test_folds_follow_the_last_miss_not_the_summed_accuracy(self, monkeypatch):
        """After the middle width 2, folds 0 and 3 have the largest misses
        (.5 and .25), so width 1 visits them first and stops after them
        (1 + 0 + 2 folds left = 3 < 3.25).  Its miss of 1 on fold 3 then sends
        width 3 there first, although by summed accuracy over the widths run
        out (.5, 1, 1, .75) fold 0 would come first."""
        picked, visits = self._scripted(monkeypatch, {1: [1, 1, 1, 0], 2: [.5, 1, 1, .75],
                                                      3: [1] * 4})
        assert picked == 3
        assert visits[4:] == [(1, 0), (1, 3), (3, 3), (3, 0), (3, 1), (3, 2)]

    @given(st.data())
    def test_the_pick_is_the_exhaustive_argmax(self, data):
        """Any grid order, fold count and accuracies: the pick is the width of
        the highest summed accuracy, ties to the smaller, and no (width, fold)
        pair is fit twice."""
        k = data.draw(st.integers(2, 6), label="folds")
        widths = data.draw(st.lists(st.integers(1, 500), min_size=1, max_size=6, unique=True),
                           label="grid")
        eighths = st.lists(st.integers(0, 8).map(lambda n: n / 8), min_size=k, max_size=k)
        accs = {h: data.draw(eighths, label=f"accuracies of width {h}") for h in widths}
        with pytest.MonkeyPatch.context() as mp:
            picked, visits = self._scripted(mp, accs)
        assert picked == max(widths, key=lambda h: (sum(accs[h]), -h))
        assert len(set(visits)) == len(visits)

    def test_folds_go_hardest_first_and_a_loser_stops(self, monkeypatch):
        """After width 1 the misses are (0, .5, .25, .5), so width 2 visits
        folds 1, 3, 2, 0; its bound is 3.5, then 2.75 (a tie with the
        incumbent's 2.75), then 2.5, where it stops."""
        picked, visits = self._scripted(monkeypatch, {1: [1, .5, .75, .5],
                                                      2: [1, .5, .75, .25]})
        assert picked == 1
        assert visits[4:] == [(2, 1), (2, 3), (2, 2)]

    def test_a_width_that_wins_on_its_last_fold_is_not_stopped(self, monkeypatch):
        """Width 2 trails the incumbent on the three folds it visits first
        (1.875 against 2.0) and wins with its last one (2.875 against 2.75)."""
        picked, visits = self._scripted(monkeypatch, {1: [.75, .75, .75, .5],
                                                      2: [.625, 1, 1, .25]})
        assert picked == 2
        assert visits[4:] == [(2, 3), (2, 0), (2, 1), (2, 2)]

    def test_the_first_width_is_never_stopped(self, monkeypatch):
        picked, visits = self._scripted(monkeypatch, {5: [0, 0, 0, 0], 8: [0, 0, 0, 0]})
        assert picked == 5
        assert visits[:4] == [(5, 0), (5, 1), (5, 2), (5, 3)]


# exercised in a worker: unit (0, 2) of this run overflows (lr 1e148, seed 0)
_OVERFLOWING_GD_CV = ["cv", "--data", "iris", "--layers", "3", "--trainer", "gd",
                      "--learning-rate", "1e148", "--max-iters", "1", "--trials", "1",
                      "--folds", "5", "--seed", "0"]


# run as a script with no __main__ guard: run_cv pools its 4 units, prints the
# pool's worker count and waits for stdin to close
_NO_GUARD_SCRIPT = """\
import sys
import karnet.experiments as experiments
from karnet import ExperimentConfig, run_cv

started = []
pool = experiments._process_pool
experiments._process_pool = lambda workers: started.append(workers) or pool(workers)
run_cv(ExperimentConfig(dataset="iris", layers=(8,), trials=1, folds=4, seed=3,
                        out=sys.argv[1]))
print("pools", *started, flush=True)
sys.stdin.read()
"""


class TestCvPool:
    @pytest.mark.parametrize("options", [
        pytest.param(dict(grid=(1, 5, 20), pattern="exp2", trials=1, folds=3), id="kar-grid"),
        pytest.param(dict(layers=(8, 4), trials=2, folds=3), id="kar-layers"),
        pytest.param(dict(layers=(5,), trainer="gd", max_iters=20, gradient_clip=1.0,
                          trials=1, folds=4), id="gd"),
        # exp4-sized: wide enough that BLAS runs its thread count on these solves,
        # so a worker with another count than this process gives other rows
        pytest.param(dict(layers=(400, 200, 100), trials=2, folds=5), id="kar-exp4"),
    ])
    def test_pooled_report_matches_inline(self, tmp_path, monkeypatch, options):
        environ = dict(os.environ)
        cfg = dict(dataset="iris", seed=7, **options)
        force_inline(monkeypatch)
        run_cv(ExperimentConfig(out=str(tmp_path / "inline"), **cfg))
        started = force_pool(monkeypatch)
        rep = run_cv(ExperimentConfig(out=str(tmp_path / "pooled"), **cfg))
        units = cfg["trials"] * cfg["folds"]
        assert started == [min(experiments._usable_cpus(), units)]
        assert _cv_blob(tmp_path / "pooled") == _cv_blob(tmp_path / "inline")
        parts = sum(r["select_wall_time"] + r["train_wall_time"] for r in rep["rows"])
        assert rep["aggregate"]["total_wall_time"] == pytest.approx(parts, rel=1e-12)
        assert multiprocessing.active_children() == []
        assert dict(os.environ) == environ

    def test_numerical_error_in_a_worker_exits_4(self, tmp_path, monkeypatch, capsys):
        errors = []
        for tag in ("inline", "pooled"):
            if tag == "pooled":
                started = force_pool(monkeypatch)
            else:
                force_inline(monkeypatch)
            assert main([*_OVERFLOWING_GD_CV, "--out", str(tmp_path / tag)]) == EXIT_NUMERIC
            errors.append(capsys.readouterr().err.splitlines())
            assert all(ln.startswith("error:") for ln in errors[-1])
            assert not (tmp_path / tag / "report.json").exists()
        assert started == [min(experiments._usable_cpus(), 5)]
        assert errors[0] == errors[1] and "non-finite" in errors[0][0]
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_failed_run(self, tmp_path, monkeypatch):
        force_pool(monkeypatch)
        cfg = ExperimentConfig(dataset="iris", layers=(3,), trainer="gd",
                               learning_rate=1e148, max_iters=1, trials=1, folds=5,
                               seed=0, out=str(tmp_path))
        with pytest.raises(NumericalError, match="non-finite"):
            run_cv(cfg)
        assert multiprocessing.active_children() == []

    def test_script_without_main_guard_pools_and_leaves_no_process(self, tmp_path):
        """A script that calls run_cv at module level pools without a
        traceback, and once run_cv returns no worker or multiprocessing
        helper (the resource tracker) is a child of it."""
        skip_unless_cv_can_pool()
        script = tmp_path / "no_guard.py"
        script.write_text(_NO_GUARD_SCRIPT)
        env = dict(os.environ, PYTHONPATH=str(Path(karnet.__file__).parents[1]))
        with subprocess.Popen([sys.executable, str(script), str(tmp_path / "out")],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env) as proc:
            started = proc.stdout.readline()  # printed once run_cv has returned
            children = subprocess.run(["ps", "--ppid", str(proc.pid), "-o", "pid=,args="],
                                      capture_output=True, text=True).stdout
            _, err = proc.communicate("", timeout=120)
        assert proc.returncode == 0, err
        assert "Traceback" not in err
        assert started.split() == ["pools", str(min(experiments._usable_cpus(), 4))]
        assert children == ""

    @pytest.mark.parametrize("value", ["2", None])
    def test_pools_only_at_one_blas_thread(self, tmp_path, monkeypatch, value):
        """Forked workers run BLAS at this process's thread count, so cv stays
        inline where a thread variable reads another count, or is unset
        because numpy loaded before karnet and chose its own count."""
        started = force_pool(monkeypatch)
        if value is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        run_cv(ExperimentConfig(dataset="iris", layers=(6,), trials=1, folds=4, seed=9,
                                out=str(tmp_path)))
        assert started == []

    @pytest.mark.parametrize("first", ["karnet", "numpy"])
    def test_import_sets_one_blas_thread_only_before_numpy(self, first):
        """numpy reads the thread variables as it loads, so importing karnet
        sets the unset ones to 1 only while numpy is not yet loaded."""
        env = {k: v for k, v in os.environ.items() if k not in karnet.BLAS_THREAD_VARS}
        env["PYTHONPATH"] = str(Path(karnet.__file__).parents[1])
        code = (f"import {first}, karnet, os; "
                "print(*(os.environ.get(v) for v in karnet.BLAS_THREAD_VARS))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120, check=True).stdout.split()
        assert out == (["1"] * 3 if first == "karnet" else ["None"] * 3)

    def test_data_error_keeps_its_location_through_pickle(self):
        exc = pickle.loads(pickle.dumps(DataError("bad cell", row=4, column=2)))
        assert type(exc) is DataError
        assert (str(exc), exc.row, exc.column) == ("bad cell (row 4, column 2)", 4, 2)

    @pytest.mark.parametrize("rows_before_break", [None, 1])
    def test_broken_pool_falls_back_inline(self, tmp_path, monkeypatch, rows_before_break):
        """A pool that cannot start (None) or breaks after a task: the units
        it did not finish run in this process."""
        cfg = dict(dataset="iris", layers=(6,), trials=1, folds=4, seed=9)
        force_inline(monkeypatch)
        run_cv(ExperimentConfig(out=str(tmp_path / "inline"), **cfg))

        class Breaking:
            def map(self, fn, *iterables):
                for i, args in enumerate(zip(*iterables)):
                    if i == rows_before_break:
                        raise BrokenProcessPool("a worker died")
                    yield fn(*args)

            def shutdown(self, wait, cancel_futures):
                pass

        def factory(workers):
            if rows_before_break is None:
                raise BrokenProcessPool("cannot start")
            return Breaking()

        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(experiments, "_process_pool", factory)
        run_cv(ExperimentConfig(out=str(tmp_path / "fallback"), **cfg))
        assert _cv_blob(tmp_path / "fallback") == _cv_blob(tmp_path / "inline")


class TestCvStacks:
    """cv descends gd final fits of one (training rows, hidden) shape in
    stacks; its report is the one a fit at a time gives, wall times aside."""

    def test_kar_fits_queue_as_gd_fits_do(self, tmp_path, monkeypatch):
        """``_fit`` alone picks the trainer: kar final fits wait in the same
        queues, and each times itself, so the report is unchanged."""
        batches, fit = [], experiments._fit
        monkeypatch.setattr(experiments, "_fit",
                            lambda cfg, fits: batches.append(len(fits)) or fit(cfg, fits))
        cfg = dict(dataset="iris", layers=(5,), trials=2, folds=5, seed=4)
        bound = gradient_descent.STACK_BYTES
        monkeypatch.setattr(gradient_descent, "STACK_BYTES", 1)
        force_inline(monkeypatch)
        run_cv(ExperimentConfig(out=str(tmp_path / "alone"), **cfg))
        assert batches == [1] * 10
        monkeypatch.setattr(gradient_descent, "STACK_BYTES", bound)
        batches.clear()
        run_cv(ExperimentConfig(out=str(tmp_path / "queued"), **cfg))
        assert sum(batches) == 10 and max(batches) > 1
        assert _cv_blob(tmp_path / "queued") == _cv_blob(tmp_path / "alone")

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
    @pytest.mark.parametrize("folds", [10, 7])
    def test_stacks_report_as_fits_one_at_a_time(self, tmp_path, monkeypatch, pooled, folds):
        cfg = dict(dataset="iris", layers=(5, 3), trainer="gd", max_iters=30,
                   gradient_clip=1.0, trials=2, folds=folds, seed=4)
        stacks, buffers = [], gradient_descent._buffers

        def counting(spec, xm):
            if xm.shape[-2] > 1:  # a descent's, not _stack_size's one-row sizing
                stacks.append(xm.shape[:-2])
            return buffers(spec, xm)

        monkeypatch.setattr(gradient_descent, "_buffers", counting)
        bound = gradient_descent.STACK_BYTES
        monkeypatch.setattr(gradient_descent, "STACK_BYTES", 1)
        force_inline(monkeypatch)
        run_cv(ExperimentConfig(out=str(tmp_path / "alone"), **cfg))
        assert stacks == [(1,)] * 2 * folds  # the bound splits every stack to one fit
        monkeypatch.setattr(gradient_descent, "STACK_BYTES", bound)
        stacks.clear()
        started = force_pool(monkeypatch) if pooled else []
        run_cv(ExperimentConfig(out=str(tmp_path / "stacked"), **cfg))
        assert _cv_blob(tmp_path / "stacked") == _cv_blob(tmp_path / "alone")
        ds = load_iris()
        plans = [stratified_folds(ds.labels, folds, experiments._unit_seed(4, t)) for t in range(2)]
        rows = Counter(int(np.count_nonzero(plans[t] != f))  # each unit's training rows
                       for t in range(2) for f in range(folds))
        assert len(rows) == (1 if folds == 10 else 2)
        if pooled:
            assert started == [min(experiments._usable_cpus(), 2 * folds)]
            assert stacks == []  # the workers' stacks are not seen here
        else:  # each training-row count's units in stacks under the bound
            spec = NetworkSpec(4, (5, 3), 3)
            size = {m: gradient_descent.STACK_BYTES // sum(
                b.nbytes for t in buffers(spec, np.zeros((m, 4))) for b in t)
                for m in rows}
            sizes = [min(size[m], n - i) for m, n in rows.items() for i in range(0, n, size[m])]
            assert max(sizes) > 1
            assert sorted(stacks) == sorted((size,) for size in sizes)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
    def test_grid_selected_fits_report_as_fits_one_at_a_time(self, tmp_path, monkeypatch, pooled):
        """With a grid, inline final fits of one selected shape share stacks, and
        a pooled task is one unit; either way the report is the one a fit at a
        time gives, wall times aside."""
        cfg = dict(dataset="iris", grid=(1, 3, 5), pattern="exp2", trainer="gd", max_iters=30,
                   gradient_clip=1.0, trials=2, folds=5, seed=4)
        sizes, stack = [], experiments.train_gd_stack
        monkeypatch.setattr(experiments, "train_gd_stack",
                            lambda *a, **k: sizes.append(len(a[0])) or stack(*a, **k))
        bound = gradient_descent.STACK_BYTES
        monkeypatch.setattr(gradient_descent, "STACK_BYTES", 1)
        force_inline(monkeypatch)
        run_cv(ExperimentConfig(out=str(tmp_path / "alone"), **cfg))
        assert set(sizes) == {1}
        monkeypatch.setattr(gradient_descent, "STACK_BYTES", bound)
        sizes.clear()
        started = force_pool(monkeypatch) if pooled else []
        run_cv(ExperimentConfig(out=str(tmp_path / "stacked"), **cfg))
        assert _cv_blob(tmp_path / "stacked") == _cv_blob(tmp_path / "alone")
        if pooled:  # the workers' fits are not seen here
            assert started == [min(experiments._usable_cpus(), 2 * 5)]
            assert sizes == []
        else:
            assert max(sizes) > 1
        assert multiprocessing.active_children() == []

    def test_a_full_stack_descends_before_more_units_are_read(self, tmp_path, monkeypatch):
        """With room for one fit a stack, each unit's fit descends before the
        next unit's rows are split and scaled, so a cv holds one stack's
        inputs at a time, as a fit at a time did."""
        events, scaled, stack = [], experiments._scaled, experiments.train_gd_stack
        monkeypatch.setattr(experiments, "_scaled",
                            lambda *a: events.append("scale") or scaled(*a))
        monkeypatch.setattr(experiments, "train_gd_stack",
                            lambda *a, **k: events.append(len(a[0])) or stack(*a, **k))
        monkeypatch.setattr(gradient_descent, "STACK_BYTES", 1)
        force_inline(monkeypatch)
        run_cv(ExperimentConfig(dataset="iris", layers=(4,), trainer="gd", max_iters=5,
                                trials=1, folds=4, seed=2, out=str(tmp_path)))
        assert events == ["scale", 1] * 4


class TestWriteReport:
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_value_is_numerical_error(self, tmp_path, value):
        path = tmp_path / "report.json"
        with pytest.raises(NumericalError, match="non-finite"):
            write_report({"rows": [{"sse": 1.0}, {"sse": value}]}, path)
        assert not path.exists()
