"""Run one benchmark workload against the karnet sources of this checkout.

    python3 bench/run.py --workload select_cv --seed 1 --seconds 30 --trace 0

The workload drives karnet through ``karnet.cli.main(argv)`` in this one
process, closed loop: round after round of the same commands until the next
round would overrun ``--seconds``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it holds the run's details.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads: on a 2-core host a second
# OpenBLAS thread makes the wide SVDs slower and the timings unsteady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Verdict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# fewest rounds whose median is reported; a traced run's steps are round pairs
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2
SETUP_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import numpy
import karnet.cli
rc = 0
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[2]):
        rc |= karnet.cli.main(argv)
print("ready" if rc == 0 else "failed", flush=True)
"""


def _warm_up_argv(out: Path) -> list[list[str]]:
    """The first calls a fresh process makes; set-up samples and the
    measuring process both make them."""
    return [["train", "--data", "iris", "--layers", "3", "--out", str(out)],
            ["eval", "--data", "iris", "--weights", str(out / "weights.json"), "--out", str(out)]]


def setup_seconds(out: Path) -> float:
    """Seconds from starting a fresh interpreter until it has imported numpy
    and karnet and made the warm-up calls."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(_warm_up_argv(out))]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=120)
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process ended with {line!r}, exit {proc.returncode}")
    return elapsed


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked from the library itself."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


class Runner:
    """Runs karnet commands in this process and tallies their outcomes."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.failures: Counter[str] = Counter()
        self.problems: Counter[str] = Counter()

    def call(self, argv: list[str]) -> tuple[int, float, str]:
        """Exit code, seconds and standard error of ``karnet <argv>``."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)  # looked up per call, so a traced round sees the wrapper
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is a failed operation, not a crashed benchmark
                rc = 1
                traceback.print_exc(file=err)
            seconds = time.perf_counter() - t0
        return rc, seconds, err.getvalue()

    def round(self, workload) -> tuple[float, float | None]:
        """Runs every operation once; returns their seconds and the mean accuracy."""
        total, accs = 0.0, []
        for op in workload.ops:
            rc, seconds, err = self.call(op.argv)
            total += seconds
            self.attempted += 1
            if rc != 0:
                verdict = Verdict(failure=f"{op.argv[0]} exited {rc}: {err.strip()[-300:]}")
            else:
                try:
                    verdict = op.check()
                except (OSError, KeyError, ValueError, IndexError) as exc:
                    verdict = Verdict(problems=(f"unreadable output: {exc!r}",))
            if verdict.failure is not None:
                self.failed += 1
                self.failures[verdict.failure] += 1
            self.problems.update(verdict.problems)
            if verdict.accuracy is not None:
                accs.append(verdict.accuracy)
        return total, (sum(accs) / len(accs) if accs else None)


def measure(args, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("karnet.cli")
    runner = Runner(cli)
    for argv in _warm_up_argv(work / "warm"):
        rc, _, err = runner.call(argv)
        if rc != 0:
            raise RuntimeError(f"warm-up {argv[0]} exited {rc}: {err}")

    workload = WORKLOADS[args.workload](ROOT, work, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    # a traced run alternates untraced and traced rounds; their difference
    # is the tracing overhead
    step, min_steps = ((False, True), MIN_TRACED_PAIRS) if tracer else ((False,), MIN_ROUNDS)
    plain, traced, accs, steps, setup = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        # one set-up sample per step spreads them over the run, as the rounds are
        setup.append(setup_seconds(work / "setup"))
        for trace_this in step:
            if trace_this:
                tracer.install()
            try:
                seconds, acc = runner.round(workload)
            finally:
                if trace_this:
                    tracer.uninstall()
            (traced if trace_this else plain).append(seconds)
            accs.append(acc)
        steps.append(time.perf_counter() - t0)
        if len(steps) >= min_steps and (
                time.perf_counter() - start + statistics.median(steps) > args.seconds):
            break

    if tracer:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in tracer.metrics(len(traced)).items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "accuracy": {"value": statistics.median(a for a in accs if a is not None),
                         "unit": "fraction"},
        }
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(plain) + len(traced),
        "round_s": plain, "traced_round_s": traced, "setup_s": setup,
        "accuracy": accs, "failures": dict(runner.failures), "problems": dict(runner.problems),
        "blas_threads": blas_threads(), "cpu_count": os.cpu_count(),
        "numpy": np.__version__, "python": platform.python_version(),
        "machine": platform.machine(),
    }
    if tracer:
        info["unwrapped_names"] = sorted(tracer.missing)
    result = {
        "correct": not runner.problems and runner.attempted > runner.failed,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    if tracer:
        with open(out / f"{args.workload}-seed{args.seed}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "site", "parent", "start", "end", "extra"],
                       "spans": tracer.spans}, fh)
    print(json.dumps({"info": info}))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "karnet" / "cli.py").is_file():
        print(f"error: no karnet sources under {SRC}", file=sys.stderr)
        return 2
    work = BENCH / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
