"""Gradient-free training of fully-connected feedforward networks.

Network weights are solved analytically through Moore-Penrose
pseudoinverse (kernel-and-range space) manipulations instead of iterative
gradient descent: later layers are assigned random weights, the inverse
activation peels them off the targets, and each layer then falls out of a
single least-squares solve.  A plain gradient-descent trainer over the
identical network model serves as the comparison baseline, and an
experiment harness reproduces the exclusive-or and iris case studies.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in () if "numpy" in sys.modules else BLAS_THREAD_VARS:  # numpy reads them as it loads
    os.environ.setdefault(_var, "1")  # one BLAS thread unless the caller set a count

from .activations import ACTIVATION, CLAMP_EPS, apply_logit, apply_sigmoid
from .data import (
    Dataset,
    apply_scaling,
    encode_one_vs_all,
    load_csv,
    load_iris,
    make_xor,
    scale_minmax,
    split_rows,
    stratified_folds,
)
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    KarnetError,
    NumericalError,
    RankDeficiencyError,
)
from .experiments import ExperimentConfig, run_cv, run_iris_sweep, run_xor_demo
from .gradient_descent import check_gradient, train_gd
from .linalg import PinvResult, lstsq, pinv
from .network import Network, NetworkSpec, forward, load_network, save_network
from .training import TrainReport, error_rate, train_n_layer, train_random_hidden

__version__ = "0.1.0"

__all__ = [
    "ACTIVATION",
    "CLAMP_EPS",
    "apply_logit",
    "apply_sigmoid",
    "Dataset",
    "apply_scaling",
    "encode_one_vs_all",
    "load_csv",
    "load_iris",
    "make_xor",
    "scale_minmax",
    "split_rows",
    "stratified_folds",
    "KarnetError",
    "ConfigError",
    "DataError",
    "DimensionError",
    "NumericalError",
    "RankDeficiencyError",
    "ExperimentConfig",
    "run_cv",
    "run_iris_sweep",
    "run_xor_demo",
    "check_gradient",
    "train_gd",
    "PinvResult",
    "lstsq",
    "pinv",
    "Network",
    "NetworkSpec",
    "forward",
    "save_network",
    "load_network",
    "TrainReport",
    "error_rate",
    "train_n_layer",
    "train_random_hidden",
]
