"""Gradient-free training of fully-connected feedforward networks.

Network weights are solved analytically through Moore-Penrose
pseudoinverse (kernel-and-range space) manipulations instead of iterative
gradient descent: later layers are assigned random weights, the inverse
activation peels them off the targets, and each layer then falls out of a
single least-squares solve.  A plain gradient-descent trainer over the
identical network model serves as the comparison baseline, and an
experiment harness reproduces the exclusive-or and iris case studies.
"""

from .activations import ACTIVATION, CLAMP_EPS, apply_logit, apply_sigmoid
from .data import (
    Dataset,
    FoldPlan,
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
from .gradient_descent import GdConfig, check_gradient, train_gd
from .linalg import PinvResult, pinv, solve_least_squares, sse
from .network import (
    Network,
    NetworkSpec,
    forward,
    load_network,
    network_from_json,
    network_to_json,
    save_network,
)
from .training import KarConfig, TrainReport, error_rate, train_n_layer, train_random_hidden

__version__ = "0.1.0"

__all__ = [
    "ACTIVATION",
    "CLAMP_EPS",
    "apply_logit",
    "apply_sigmoid",
    "Dataset",
    "FoldPlan",
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
    "GdConfig",
    "check_gradient",
    "train_gd",
    "PinvResult",
    "pinv",
    "solve_least_squares",
    "sse",
    "Network",
    "NetworkSpec",
    "forward",
    "network_to_json",
    "network_from_json",
    "save_network",
    "load_network",
    "KarConfig",
    "TrainReport",
    "error_rate",
    "train_n_layer",
    "train_random_hidden",
]
