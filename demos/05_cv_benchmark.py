"""Analytic training vs gradient descent under identical conditions.

Runs stratified 10-fold cross-validation on iris twice with the same seed,
so both trainers see byte-identical fold splits: once with the analytic
kernel-and-range trainer and once with 500 iterations of full-batch
gradient descent over the same two-layer architecture.  Compares accuracy
and total wall time, model selection included.

Run:  python demos/05_cv_benchmark.py
"""

from pathlib import Path

from karnet import ExperimentConfig
from karnet.experiments import run_cv

out = Path(__file__).parent / "out" / "cv"
results = {}
for trainer in ("kar", "gd"):
    report = run_cv(
        ExperimentConfig(
            dataset="iris",
            trainer=trainer,
            layers=(20,),
            seed=0,
            trials=2,
            folds=10,
            out=str(out / trainer),
            learning_rate=1e-3,
            max_iters=500,
            gradient_clip=10.0,
        )
    )
    results[trainer] = report["aggregate"]

print("trainer | mean accuracy | total wall time")
print("-" * 48)
for trainer, agg in results.items():
    print(
        f"  {trainer:>4}  |    {agg['mean_accuracy']:.3f}      |"
        f"  {agg['total_wall_time']:.3f} s"
    )

speedup = results["gd"]["total_wall_time"] / results["kar"]["total_wall_time"]
print(f"\nanalytic training ran {speedup:.0f}x faster on identical folds")
print(f"full per-fold reports in {out}/kar and {out}/gd")
