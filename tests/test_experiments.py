"""Harness tests: decoding, demo runs, sweeps, cross-validation."""

import csv
import json

import numpy as np
import pytest

from karnet import ConfigError, ExperimentConfig, error_rate
from karnet.errors import NumericalError
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
        import karnet.experiments as experiments

        calls = []
        original = experiments.scale_minmax

        def counting(ds, eps):
            calls.append(ds.n_samples)
            return original(ds, eps)

        monkeypatch.setattr(experiments, "scale_minmax", counting)
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

    def test_deterministic_excluding_wall_time(self, tmp_path):
        reports = []
        for tag in ("a", "b"):
            reports.append(run_cv(ExperimentConfig(
                dataset="iris", out=str(tmp_path / tag), seed=11, trials=1,
                folds=4, layers=(8,))))
        a, b = (json.dumps(strip_wall_times(r), sort_keys=True) for r in reports)
        assert a == b


class TestWriteReport:
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_value_is_numerical_error(self, tmp_path, value):
        path = tmp_path / "report.json"
        with pytest.raises(NumericalError, match="non-finite"):
            write_report({"rows": [{"sse": 1.0}, {"sse": value}]}, path)
        assert not path.exists()
