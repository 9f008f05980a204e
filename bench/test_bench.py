"""The benchmark's own tests: every correctness check passes on karnet's real
output and fails once that output is spoiled, and the tracer is harmless.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import karnet.cli  # noqa: E402
import karnet.gradient_descent  # noqa: E402
import karnet.training  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import WRAPS, Tracer  # noqa: E402


def _karnet(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert karnet.cli.main(argv) == 0


def _perturb_output_layer(path: Path, delta: float) -> None:
    payload = json.loads(path.read_text())
    payload["weights"][-1]["data"][0] += delta
    path.write_text(json.dumps(payload))


@pytest.fixture(scope="module")
def deep(tmp_path_factory):
    """deep_fit with its exp4 fits done."""
    wl = workloads.deep_fit(ROOT, tmp_path_factory.mktemp("deep"), seed=3)
    for op in wl.ops:
        _karnet(op.argv)
    return wl


@pytest.fixture(scope="module")
def tall(tmp_path_factory):
    """tall_csv with its train and eval operations done."""
    wl = workloads.tall_csv(ROOT, tmp_path_factory.mktemp("tall"), seed=3)
    for op in wl.ops:
        _karnet(op.argv)
    return wl


def _out_dir(op) -> Path:
    return Path(op.argv[op.argv.index("--out") + 1])


# Both output matrices are ill-conditioned (s_1 / s_k up to 3e11), so the
# lstsq comparison may allow more than a 1e-3 perturbation moves the
# residual; the comparison with the report catches it on every seed.
@pytest.mark.parametrize("name", ["deep", "tall"])
def test_output_layer_check_fails_when_perturbed(name, request):
    op = request.getfixturevalue(name).ops[0]
    assert op.check().problems == ()
    weights = _out_dir(op) / "weights.json"
    saved = weights.read_text()
    try:
        _perturb_output_layer(weights, 1e-3)
        problems = op.check().problems
    finally:
        weights.write_text(saved)
    assert any("train_sse_transformed" in p for p in problems)


def test_output_layer_check_fails_on_a_solve_that_is_not_least_squares():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.01, 0.99, size=(200, 3))
    y = checks.one_hot(rng.integers(0, 2, size=200), 2)
    hidden = rng.uniform(0.0, 1.0, size=(4, 5))
    a = checks.last_hidden([hidden, None], x)
    t = checks.transformed_targets(y)
    best = np.linalg.lstsq(a, t, rcond=None)[0]
    r = a @ best - t
    assert checks.check_output_layer([hidden, best], x, y, float(np.sum(r * r))) == []
    # a ridge solution is a fine fit but not the least-squares one
    ridge = np.linalg.solve(a.T @ a + 1e-2 * np.eye(a.shape[1]), a.T @ t)
    r = a @ ridge - t
    problems = checks.check_output_layer([hidden, ridge], x, y, float(np.sum(r * r)))
    assert len(problems) == 1 and "lstsq residual" in problems[0]


@pytest.mark.parametrize("name", ["deep", "tall"])
def test_accuracy_check_fails_on_shuffled_test_labels(name, request):
    wl = request.getfixturevalue(name)
    saved = list(wl.held_out)
    assert all(op.check().problems == () for op in wl.ops)
    try:
        random.Random(0).shuffle(wl.held_out)
        verdicts = [op.check() for op in wl.ops]
    finally:
        wl.held_out[:] = saved
    assert all(v.accuracy < 0.5 for v in verdicts if v.accuracy is not None)
    assert any("accuracy" in p for v in verdicts for p in v.problems)


def test_eval_check_fails_while_eval_decodes_in_its_own_class_order(tall):
    train, evaluate = tall.ops
    assert train.check().problems == ()
    failure = evaluate.check().failure
    assert failure is not None and "disagrees" in failure
    # an eval report that agrees with the benchmark's decoding passes
    report_path = _out_dir(evaluate) / "eval_report.json"
    saved = report_path.read_text()
    try:
        report = json.loads(saved)
        report["accuracy"] = train.check().accuracy
        report_path.write_text(json.dumps(report))
        assert evaluate.check().failure is None
    finally:
        report_path.write_text(saved)


def test_cv_check_fails_on_a_width_outside_the_grid(tmp_path):
    out = tmp_path / "cv"
    _karnet(["cv", "--data", "iris", "--grid", "5,10", "--pattern", "exp2",
             "--trials", "1", "--folds", "3", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert checks.check_cv_report(report, checks.PAPER_GRID) == []
    assert checks.check_folds_beat_constant(report, 100, 3) == []
    report["rows"][0]["hidden"] = [7]
    problems = checks.check_cv_report(report, checks.PAPER_GRID)
    assert problems == ["trial 0 fold 0: selected width 7 is not in the grid"]


def test_cv_check_fails_on_a_fold_no_better_than_a_constant():
    report = {"rows": [{"trial": 0, "fold": 0, "train_sse": 0.25 * 135 * 3}]}
    assert checks.check_folds_beat_constant(report, 135, 3) == [
        "trial 0 fold 0: train SSE 101.25 is not below the constant-output 101.25"]


def test_tall_inputs_fix_the_first_appearance_order_on_every_seed(tmp_path):
    for seed in range(3):
        wl = workloads.tall_csv(ROOT, tmp_path, seed)
        assert checks.class_order(wl.held_out) == list(reversed(workloads.TALL_CLASSES))
        train = (tmp_path / "tall_train.csv").read_text().splitlines()
        assert [r.rsplit(",", 1)[1] for r in train[:4]] == list(workloads.TALL_CLASSES)


def test_tracer_restores_every_name_and_reads_a_removed_name_as_zero(monkeypatch, tmp_path):
    before = {(m, a): getattr(sys.modules[m], a) for m, a, *_ in WRAPS}
    np_before = karnet.training.np
    # as if a refactor had removed the name; a kar fit never calls it
    monkeypatch.delattr(karnet.gradient_descent, "sse_and_gradients")
    tracer = Tracer()
    tracer.install()
    try:
        _karnet(["train", "--data", "iris", "--layers", "6,3", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert tracer.missing == {"karnet.gradient_descent.sse_and_gradients"}
    metrics = tracer.metrics(rounds=1)
    assert metrics["gradient_descent.step.calls"][0] == 0
    assert metrics["training.fit.calls"][0] == 1
    assert metrics["training.guard.calls"][0] == 2
    assert metrics["training.solve.calls"][0] == 3
    assert metrics["cli.main.calls"][0] == 1
    for (m, a), fn in before.items():
        if (m, a) != ("karnet.gradient_descent", "sse_and_gradients"):
            assert getattr(sys.modules[m], a) is fn
    assert karnet.training.np is np_before is np


def test_self_times_subtract_child_spans():
    tracer = Tracer()
    tracer.spans[:] = [["cli.main", "s", -1, 0.0, 10.0], ["linalg.pinv", "s", 0, 1.0, 4.0],
                       ["linalg.svd", "s", 1, 1.5, 3.5]]
    self_s = tracer.self_times()
    assert self_s["cli"] == pytest.approx(7.0)
    assert self_s["linalg"] == pytest.approx(3.0)


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "work"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "deep_fit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
