"""Command-line harness.

Subcommands: train, eval, cv, xor-demo, iris-sweep, gradient-check; each
takes only the flags of the run options it reads.  A key=value config file
supplies defaults that explicit flags override.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ConfigError, DataError, DimensionError, KarnetError
from .experiments import (
    PAPER_GRID,
    ExperimentConfig,
    run_cv,
    run_eval,
    run_iris_sweep,
    run_train,
    run_xor_demo,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; a bad one raises ValueError, which argparse
    and the config-file reader both report as a configuration error."""
    text = text.strip()
    return tuple(int(tok) for tok in text.split(",")) if text else ()


def _parse_grid(text: str) -> tuple[int, ...]:
    if text.strip() == "paper":
        return PAPER_GRID
    return _parse_int_list(text)


def read_config_file(path: str) -> dict:
    """Parse a key=value config file; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:  # unreadable, or not UTF-8 text
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    """1/true/yes or 0/false/no in any case; anything else is a ValueError."""
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"not a boolean: {text!r}")
    return text.lower() in ("1", "true", "yes")


# One row per run option: (key, ExperimentConfig field, text parser, help).
# The flag --<key> and the config-file line "<key> = value" both set the
# field; a bool option's flag takes no value.  Defaults come from
# ExperimentConfig alone.
_OPTIONS = (
    ("data", "dataset", str, "CSV path or builtin name (xor, xor-ideal, iris)"),
    ("label-col", "label_col", int, "label column index"),
    ("header", "has_header", _parse_bool, "CSV has a header row"),
    ("layers", "layers", _parse_int_list, "hidden sizes, e.g. 90 or 3,3,3,3"),
    ("pattern", "pattern", str, "architecture pattern for grid values: fixed, exp2, exp3, exp4"),
    ("trainer", "trainer", str, "training algorithm: kar or gd"),
    ("seed", "seed", int, "master seed"),
    ("trials", "trials", int, "number of repeated trials"),
    ("folds", "folds", int, "cross-validation folds"),
    ("grid", "grid", _parse_grid, "hidden-size sweep grid: comma list or 'paper'"),
    ("out", "out", str, "output directory"),
    ("scale-eps", "scale_eps", float, "feature scaling margin inside (0, 0.5)"),
    ("rcond", "rcond", float, "pseudoinverse cutoff override"),
    ("learning-rate", "learning_rate", float, "gradient-descent step size"),
    ("max-iters", "max_iters", int, "gradient-descent iterations"),
    ("gradient-clip", "gradient_clip", float, "gradient-descent global norm clip"),
)


# One row per command: its help, the _OPTIONS keys its run reads, and what
# runs it.  A command takes only those flags (and --config); a config file
# may set any key, so one file serves train and eval alike.  The lambdas
# look run_train, run_eval and run_cv up in this module when called, so a
# wrapper patched over one of those names (the bench tracer's) is the one run.
_COMMANDS = {
    "train": ("fit one network on a dataset, write weights.json + report.json",
              "data label-col header layers trainer seed out scale-eps rcond learning-rate"
              " max-iters gradient-clip".split(), lambda cfg, args: run_train(cfg)),
    "eval": ("evaluate stored weights on a dataset", "data label-col header out scale-eps".split(),
             lambda cfg, args: run_eval(cfg, args.weights)),
    "cv": ("stratified k-fold cross-validation", [key for key, *_ in _OPTIONS],
           lambda cfg, args: run_cv(cfg)),
    "xor-demo": ("reproduce the exclusive-or decision surfaces", "seed out rcond".split(),
                 lambda cfg, args: run_xor_demo(cfg)),
    "iris-sweep": ("hidden-size sweep on the 90/60 iris split",
                   "seed trials grid out scale-eps rcond".split(),
                   lambda cfg, args: run_iris_sweep(cfg)),
    "gradient-check": ("compare backprop with finite differences", "layers seed".split(),
                       lambda cfg, args: _cmd_gradient_check(cfg)),
}


def build_experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge config-file values with flags (flags win); refuse a flag its trainer does not read."""
    values: dict = {}
    if args.config:
        fields = {key: (name, parse) for key, name, parse, _ in _OPTIONS}
        for key, text in read_config_file(args.config).items():
            if key not in fields:
                raise ConfigError(f"unknown config key {key!r}")
            name, parse = fields[key]
            try:
                values[name] = parse(text)
            except ValueError:
                raise ConfigError(f"config key {key!r}: bad value {text!r}") from None
    for _, name, _, _ in _OPTIONS:
        if getattr(args, name, None) is not None:  # a flag the command does not take is unset
            values[name] = getattr(args, name)
    cfg = ExperimentConfig(**values)
    unread = ("rcond",) if cfg.trainer == "gd" else ("learning_rate", "max_iters", "gradient_clip")
    if flags := [f"--{key}" for key, name, *_ in _OPTIONS
                 if name in unread and getattr(args, name, None) is not None]:
        raise ConfigError(f"--trainer {cfg.trainer} does not read {' '.join(flags)}")
    return cfg


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="karnet",
        description="Analytic (gradient-free) feedforward network training harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(command_parser=p)  # main reports a refused flag with this usage
        p.add_argument("--config", help="key=value config file; flags override it")
        for key, name, parse, option_help in _OPTIONS:
            if key not in keys:
                continue
            if parse is _parse_bool:
                p.add_argument(f"--{key}", dest=name, action="store_const", const=True,
                               help=option_help)
            else:
                p.add_argument(f"--{key}", dest=name, type=parse, help=option_help)
        if command == "eval":
            p.add_argument("--weights", required=True, help="weights.json path")
    return parser


def _cmd_gradient_check(cfg: ExperimentConfig) -> int:
    from .gradient_descent import check_gradient, initial_network
    from .network import NetworkSpec

    hidden = cfg.layers or (4,)
    net = initial_network(NetworkSpec(input_dim=3, hidden=hidden, output_dim=2, seed=cfg.seed))
    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(0.05, 0.95, size=(6, 3))
    y = rng.uniform(0.1, 0.9, size=(6, 2))
    check = check_gradient(net, x, y)
    print(json.dumps({**check._asdict(), "tolerance": 1e-4}))
    if check.nonzero == 0:
        print("error: every backprop entry is zero, so the check compared nothing",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK if check.max_relative_error <= 1e-4 else EXIT_NUMERIC


def main(argv=None) -> int:
    args, unknown = make_parser().parse_known_args(argv)
    if unknown:  # name the command's own usage, not the root's
        args.command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        cfg = build_experiment_config(args)
        result = _COMMANDS[args.command][2](cfg, args)
    except (ConfigError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KarnetError as exc:  # NumericalError and any other package error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # reads raise DataError; this is an output that cannot be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if isinstance(result, int):  # gradient-check printed its own line and chose its exit code
        return result
    print(json.dumps({"command": args.command, "out": cfg.out,
                      "summary": _summarize(result)}))
    return EXIT_OK


def _summarize(report: dict) -> dict:
    keep = ("command", "aggregate", "surface_rows", "sse", "accuracy", "error_rate")
    return {k: report[k] for k in keep if k in report}


if __name__ == "__main__":
    sys.exit(main())
