"""Command-line interface tests: subcommands, config files, exit codes."""

import json
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from karnet.cli import (
    _OPTIONS,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    _parse_bool,
    _parse_grid,
    _parse_int_list,
    main,
)


def run_cli(*argv):
    return main(list(argv))


# The run options each command reads.  It takes exactly their flags, plus
# --config and eval's --weights; a flag of any other option exits 2.
_READS = {
    "train": {"data", "label-col", "header", "layers", "trainer", "seed", "out", "scale-eps",
              "rcond", "learning-rate", "max-iters", "gradient-clip"},
    "eval": {"data", "label-col", "header", "out", "scale-eps"},
    "cv": {key for key, *_ in _OPTIONS},
    "xor-demo": {"seed", "out", "rcond"},
    "iris-sweep": {"seed", "trials", "grid", "out", "scale-eps", "rcond"},
    "gradient-check": {"layers", "seed"},
}


class TestSubcommands:
    def test_xor_demo(self, tmp_path, capsys):
        assert run_cli("xor-demo", "--out", str(tmp_path), "--seed", "0") == EXIT_OK
        assert (tmp_path / "surface.csv").exists()
        assert (tmp_path / "report.json").exists()
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["command"] == "xor-demo"

    def test_iris_sweep_custom_grid(self, tmp_path):
        code = run_cli(
            "iris-sweep", "--out", str(tmp_path), "--grid", "10,20",
            "--trials", "2", "--seed", "1",
        )
        assert code == EXIT_OK
        assert (tmp_path / "sweep.csv").exists()

    def test_train_then_eval_roundtrip(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            "train", "--data", "iris", "--layers", "10",
            "--out", str(out), "--seed", "0",
        ) == EXIT_OK
        weights = out / "weights.json"
        assert weights.exists()
        assert run_cli(
            "eval", "--data", "iris", "--weights", str(weights),
            "--out", str(out),
        ) == EXIT_OK
        rep = json.loads((out / "eval_report.json").read_text())
        assert rep["scaling_reused"] is True
        assert rep["accuracy"] > 0.5

    def test_eval_scores_a_single_output_by_threshold(self, tmp_path):
        assert run_cli("train", "--data", "xor", "--layers", "2", "--out", str(tmp_path)) == EXIT_OK
        assert run_cli("eval", "--data", "xor", "--weights", str(tmp_path / "weights.json"),
                       "--out", str(tmp_path)) == EXIT_OK
        assert json.loads((tmp_path / "eval_report.json").read_text())["accuracy"] == 1.0

    def test_eval_reports_the_same_bytes_for_old_and_new_weights_files(self, tmp_path):
        """A weights file in the stdlib ``json.dumps(payload, sort_keys=True)``
        spelling evaluates to the same report bytes as the current one."""
        run = tmp_path / "run"
        assert run_cli("train", "--data", "iris", "--layers", "20", "--out", str(run)) == EXIT_OK
        new, old = run / "weights.json", run / "weights_old.json"
        old.write_text(json.dumps(json.loads(new.read_text()), sort_keys=True))
        assert old.read_bytes() != new.read_bytes()
        for weights in (new, old):
            assert run_cli("eval", "--data", "iris", "--weights", str(weights),
                           "--out", str(tmp_path / weights.stem)) == EXIT_OK
        assert ((tmp_path / "weights" / "eval_report.json").read_bytes()
                == (tmp_path / "weights_old" / "eval_report.json").read_bytes())

    def test_cv(self, tmp_path):
        assert run_cli(
            "cv", "--data", "iris", "--layers", "5", "--trials", "1",
            "--folds", "5", "--out", str(tmp_path), "--seed", "0",
        ) == EXIT_OK
        rep = json.loads((tmp_path / "report.json").read_text())
        assert len(rep["rows"]) == 5

    def test_gradient_check(self, capsys):
        assert run_cli("gradient-check", "--seed", "0") == EXIT_OK
        out = json.loads(capsys.readouterr().out.strip())
        assert out["max_relative_error"] <= 1e-4
        assert 0 < out["nonzero"] <= out["compared"]  # backprop is not zero everywhere

    def test_gradient_check_that_compared_only_zeros_fails(self, capsys, monkeypatch):
        import karnet.gradient_descent as gd

        original = gd.initial_network

        def saturated(cfg):
            net = original(cfg)
            net.weights[-1][0, :] = 1e3  # every output in the activation clamp
            return net

        monkeypatch.setattr(gd, "initial_network", saturated)
        assert run_cli("gradient-check", "--seed", "0") == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert json.loads(captured.out.strip())["nonzero"] == 0
        assert "compared nothing" in captured.err

    def test_gradient_check_above_tolerance_prints_one_error_line(self, capsys):
        """This net's finite differences truncate to 1.24e-4 at the 1e-5 step:
        the JSON line, then exit 4 with one ``error:`` line."""
        assert run_cli("gradient-check", "--layers", "1", "--seed", "25") == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert json.loads(captured.out.strip())["max_relative_error"] > 1e-4
        assert captured.err.splitlines() == [
            "error: max relative error 0.000124 is above 1e-4"
            " (the 1e-5 step's truncation error can cause this)"]


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "data = iris\nlayers = 5\nfolds = 5\ntrials = 2\nseed = 3\n"
            f"out = {tmp_path / 'from_config'}\n"
        )
        code = run_cli("cv", "--config", str(cfgfile), "--trials", "1")
        assert code == EXIT_OK
        rep = json.loads((tmp_path / "from_config" / "report.json").read_text())
        assert rep["trials"] == 1  # flag beat the config file
        assert rep["seed"] == 3    # config value survived

    # (config key, value, another value, flag arguments giving the first value);
    # a gd option's flag comes after --trainer gd, since kar refuses it
    OPTIONS = [
        ("data", "xor", "iris", ["--data", "xor"]),
        ("label-col", "2", "5", ["--label-col", "2"]),
        ("header", "yes", "no", ["--header"]),
        ("layers", "3,3", "5", ["--layers", "3,3"]),
        ("pattern", "exp3", "exp4", ["--pattern", "exp3"]),
        ("trainer", "gd", "kar", ["--trainer", "gd"]),
        ("seed", "7", "8", ["--seed", "7"]),
        ("trials", "3", "4", ["--trials", "3"]),
        ("folds", "4", "6", ["--folds", "4"]),
        ("grid", "paper", "1,2", ["--grid", "paper"]),
        ("out", "somewhere", "elsewhere", ["--out", "somewhere"]),
        ("scale-eps", "0.05", "0.02", ["--scale-eps", "0.05"]),
        ("rcond", "1e-08", "1e-06", ["--rcond", "1e-08"]),
        ("learning-rate", "0.5", "0.1", ["--trainer", "gd", "--learning-rate", "0.5"]),
        ("max-iters", "7", "9", ["--trainer", "gd", "--max-iters", "7"]),
        ("gradient-clip", "1.5", "2.5", ["--trainer", "gd", "--gradient-clip", "1.5"]),
    ]

    @staticmethod
    def _config(tmp_path, lines, flags):
        from karnet.cli import build_experiment_config, make_parser

        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("".join(f"{line}\n" for line in lines))
        argv = ["cv", "--config", str(cfgfile), *flags]
        return build_experiment_config(make_parser().parse_args(argv))

    @pytest.mark.parametrize("key, value, other, flags", OPTIONS, ids=[o[0] for o in OPTIONS])
    def test_config_key_and_flag_agree(self, tmp_path, key, value, other, flags):
        from karnet import ExperimentConfig

        from_file = self._config(tmp_path, [f"{key} = {value}"], flags[:-2])  # --trainer gd
        from_flag = self._config(tmp_path, [], flags)
        assert from_file == from_flag
        assert from_flag != ExperimentConfig()
        assert self._config(tmp_path, [f"{key} = {other}"], flags) == from_flag

    def test_options_cover_every_field(self, tmp_path):
        from dataclasses import asdict

        from karnet import ExperimentConfig

        default = asdict(ExperimentConfig())
        changed = []
        for _, _, _, flags in self.OPTIONS:  # each against the config of its --trainer gd
            base = asdict(self._config(tmp_path, [], flags[:-2]))
            cfg = asdict(self._config(tmp_path, [], flags))
            changed += [name for name in default if cfg[name] != base[name]]
        assert sorted(changed) == sorted(default)

    def test_unknown_config_key(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("nonsense = 1\n")
        assert run_cli("cv", "--config", str(cfgfile)) == EXIT_CONFIG

    def test_line_without_equals_is_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("data = xor\nlayers 5\n")
        assert run_cli("cv", "--config", str(cfgfile)) == EXIT_CONFIG
        assert f"{cfgfile}:2: expected key=value, got 'layers 5'" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("layers = a,b", "config key 'layers': bad value 'a,b'"),
        ("header = on", "config key 'header': bad value 'on'"),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, line, message):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"data = xor\n{line}\n")
        assert run_cli("train", "--config", str(cfgfile), "--out", str(tmp_path)) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("text, value", [
        ("1", True), ("true", True), ("YES", True), ("True", True),
        ("0", False), ("false", False), ("No", False), ("FALSE", False),
    ])
    def test_boolean_spellings(self, tmp_path, text, value):
        assert _parse_bool(text) is value
        assert self._config(tmp_path, [f"header = {text}"], []).has_header is value

    def test_comments_and_blanks(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# comment\n\ndata = xor\nlayers = 2\n"
                           f"out = {tmp_path / 'o'}\nseed = 0\n")
        assert run_cli("train", "--config", str(cfgfile)) == EXIT_OK


class TestCommandOptions:
    @pytest.mark.parametrize("command, key, flags", [
        pytest.param(command, key, flags, id=f"{command}-{key}")
        for command in _READS for key, _, _, flags in TestConfigFile.OPTIONS
    ])
    def test_flag_is_read_or_refused(self, tmp_path, capsys, command, key, flags):
        """A flag of an option the command reads sets the option as it does
        for cv; any other exits 2 in argparse, naming the flag, before an
        output directory is made."""
        from karnet import ExperimentConfig
        from karnet.cli import build_experiment_config, make_parser

        weights = ["--weights", "w.json"] if command == "eval" else []
        if key in _READS[command]:
            cfg = build_experiment_config(make_parser().parse_args([command, *flags, *weights]))
            assert cfg == build_experiment_config(make_parser().parse_args(["cv", *flags]))
            assert cfg != ExperimentConfig()
            return
        out = tmp_path / "o"
        flags = flags[-2:]  # without the --trainer gd of a gd option: such commands read neither
        if key == "out":
            flags = ["--out", str(out)]
        elif "out" in _READS[command]:
            flags = [*flags, "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([command, *flags, *weights])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: --{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, error", [
        (["train", "--layers", "5", "--trainer", "gd", "--rcond", "0.5"],
         "--trainer gd does not read --rcond"),
        (["cv", "--layers", "5", "--learning-rate", "7", "--gradient-clip", "3", "--trials", "1",
          "--folds", "3"], "--trainer kar does not read --learning-rate --gradient-clip"),
        (["train", "--layers", "5", "--trainer", "kar", "--max-iters", "9"],
         "--trainer kar does not read --max-iters"),
    ], ids=["train-gd-rcond", "cv-kar-rate-clip", "train-kar-max-iters"])
    def test_flag_the_trainer_does_not_read_is_refused(self, tmp_path, capsys, argv, error):
        """A command takes each trainer's flags, but only beside that trainer:
        another exits 2 with one error line before an output directory is made."""
        out = tmp_path / "o"
        assert main([*argv, "--data", "iris", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
        assert not out.exists()

    def test_config_file_sets_options_its_trainer_does_not_read(self, tmp_path):
        """One config file serves train and eval, so its keys are not refused."""
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("learning-rate = 7\nmax-iters = 9\ngradient-clip = 3\n")
        assert run_cli("train", "--config", str(cfgfile), "--data", "iris", "--layers", "5",
                       "--out", str(tmp_path / "kar")) == EXIT_OK
        cfgfile.write_text("rcond = 0.5\n")
        assert run_cli("train", "--config", str(cfgfile), "--data", "iris", "--layers", "5",
                       "--trainer", "gd", "--max-iters", "5", "--out", str(tmp_path / "gd")) == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ["xor-demo", "--trainer", "gd"],
        ["iris-sweep", "--data", "my.csv"],
        ["eval", "--weights", "w.json", "--layers", "5"],
    ])
    def test_refused_flag_prints_its_commands_usage(self, capsys, argv):
        """A refused flag is reported with the usage of the command given,
        which lists the flags it does take, not with the root usage."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"usage: karnet {argv[0]} [-h] [--config CONFIG]")
        assert f"karnet {argv[0]}: error: unrecognized arguments: {' '.join(argv[-2:])}" in err
        assert "{train," not in err

    def test_help_lists_exactly_the_flags_each_command_takes(self, capsys):
        accepted = 0
        for command, reads in _READS.items():
            with pytest.raises(SystemExit):
                main([command, "--help"])
            listed = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE))
            other = {"--config", "--weights"} if command == "eval" else {"--config"}
            assert listed == {f"--{key}" for key in reads} | other
            accepted += len(reads)
        assert (accepted, len(_READS) * len(_OPTIONS) - accepted) == (44, 52)

    def test_runs_are_looked_up_when_called(self, tmp_path, monkeypatch):
        """The bench tracer wraps run_train, run_eval and run_cv by their
        names in karnet.cli; a command calls whatever its name holds then."""
        import karnet.cli as cli

        calls = []
        for name in ("run_train", "run_eval", "run_cv"):
            monkeypatch.setattr(cli, name, lambda cfg, *_, name=name: calls.append(name) or {})
        for argv in (["train"], ["eval", "--weights", "w.json"], ["cv"]):
            assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        assert calls == ["run_train", "run_eval", "run_cv"]


class TestExitCodes:
    def test_config_error(self, tmp_path):
        # cv without layers or grid
        assert run_cli("cv", "--data", "iris", "--out", str(tmp_path)) == EXIT_CONFIG

    @pytest.mark.parametrize("options", [
        ["--grid", "1,2,500"],  # the fixed pattern turns no grid value into a net
        ["--grid", "1,2,500", "--layers", "5"],
        ["--pattern", "exp2"],  # a pattern with no grid to apply it to
        ["--pattern", "exp4", "--layers", "5"],
        ["--grid", "1,2", "--pattern", "exp2", "--layers", "5"],  # the grid would ignore --layers
    ])
    def test_cv_grid_and_pattern_come_together(self, tmp_path, capsys, options):
        code = run_cli("cv", "--data", "iris", *options, "--trials", "1", "--folds", "3",
                       "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1 and "needs" in errors[0]
        assert not (tmp_path / "report.json").exists()

    def test_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,a\n3,nope,b\n")
        assert run_cli(
            "train", "--data", str(bad), "--label-col", "2",
            "--layers", "2", "--out", str(tmp_path),
        ) == EXIT_DATA

    def test_missing_file_is_data_error(self, tmp_path):
        assert run_cli(
            "train", "--data", str(tmp_path / "ghost.csv"),
            "--layers", "2", "--out", str(tmp_path),
        ) == EXIT_DATA

    def test_determinism_byte_identical_reports(self, tmp_path):
        """Same seed and config twice: reports match except wall times."""
        from test_experiments import strip_wall_times

        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run_cli(
                "cv", "--data", "iris", "--layers", "8", "--trials", "1",
                "--folds", "4", "--seed", "11", "--out", str(out),
            ) == EXIT_OK
            rep = json.loads((out / "report.json").read_text())
            outs.append(json.dumps(strip_wall_times(rep), sort_keys=True))
        assert outs[0] == outs[1]


# an iris-shaped one-layer weights file, well formed but for its activation
_TANH_WEIGHTS = json.dumps({
    "spec": {"input_dim": 4, "hidden": [], "output_dim": 3, "activation": "tanh", "seed": 0},
    "weights": [{"rows": 5, "cols": 3, "data": [0.0] * 15}],
})


def run_cli_process(*argv):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import karnet

    env = dict(os.environ, PYTHONPATH=str(Path(karnet.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "karnet.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stderr


def _iris_csvs(tmp_path):
    """The 90/60 iris split as CSV files: train, test, test reversed."""
    from karnet.data import iris_train_test_split, load_iris, split_rows

    ds = load_iris()
    train, test = iris_train_test_split(ds)
    paths = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "test_rev.csv"
    for part, path in zip((train, test, split_rows(test, np.arange(test.n_samples)[::-1])), paths):
        path.write_text("".join(",".join(map(repr, row)) + f",{ds.class_names[c]}\n"
                                for row, c in zip(part.x.tolist(), part.labels.tolist())))
    return paths


class TestFailureContract:
    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_cell_is_data_error(self, tmp_path, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"0.1,0.2,a\n0.3,{cell},b\n0.5,0.6,a\n")
        code, err = run_cli_process(
            "train", "--data", str(bad), "--layers", "2", "--out", str(tmp_path / "o"),
        )
        assert code == EXIT_DATA
        assert "Traceback" not in err
        assert "row 2" in err and "column 2" in err

    @pytest.mark.parametrize(
        "content",
        ["{}", "not json", '{"spec": {"input_dim": 4}}', '{"spec": [], "weights": 3}',
         pytest.param(_TANH_WEIGHTS, id="unknown-activation")],
    )
    def test_malformed_weights_is_data_error(self, tmp_path, content):
        weights = tmp_path / "weights.json"
        weights.write_text(content)
        code, err = run_cli_process(
            "eval", "--data", "iris", "--weights", str(weights), "--out", str(tmp_path),
        )
        assert code == EXIT_DATA
        assert "Traceback" not in err
        if content is _TANH_WEIGHTS:
            assert "unknown activation pair 'tanh'" in err

    @pytest.mark.parametrize(
        "content, where",
        [(b"0.1,0.2,a\n0.3,\xff\xfe,b\n", "UTF-8"),
         (b"0.1,0.2,a\n0.3," + b"4" * 131_073 + b",b\n",
          "field larger than field limit (131072) (row 2)"),
         (b"0.1,0.2,a\n0.3,0." + b"4" * 131_073 + b",b\n",
          "field larger than field limit (131072) (row 2)")],
        ids=["not-utf8", "cell-past-field-limit", "finite-cell-past-field-limit"],
    )
    def test_unreadable_csv_is_data_error(self, tmp_path, capsys, content, where):
        data = tmp_path / "bad.csv"
        data.write_bytes(content)
        code = run_cli("train", "--data", str(data), "--layers", "2", "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert "Traceback" not in err and str(data) in err and where in err

    def test_non_utf8_config_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"layers = \xff\n")
        code = run_cli("train", "--config", str(cfg), "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "Traceback" not in err and str(cfg) in err

    @pytest.mark.parametrize("name", ["weights.json", "report.json"])
    def test_deeply_nested_json_is_data_error(self, tmp_path, capsys, name):
        """An array nested 200,000 deep, as the weights file or inside the
        train report beside it, goes past the JSON reader's recursion limit."""
        out = tmp_path / "run"
        assert run_cli("train", "--data", "iris", "--layers", "5", "--out", str(out)) == EXIT_OK
        deep = "[" * 200_000 + "]" * 200_000
        (out / name).write_text(deep if name == "weights.json" else f'{{"preprocessing": {deep}}}')
        capsys.readouterr()
        code = run_cli("eval", "--data", "iris", "--weights", str(out / "weights.json"),
                       "--out", str(tmp_path / "eval"))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert "Traceback" not in err and str(out / name) in err
        assert not (tmp_path / "eval" / "eval_report.json").exists()

    def test_uncreatable_out_is_config_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, err = run_cli_process(
            "train", "--data", "iris", "--layers", "3", "--out", str(blocker / "sub"),
        )
        assert code == EXIT_CONFIG
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, config_line",
        [(["--layers", "a,b"], ""), (["--grid", "1,x"], ""), ([], "layers = a,b"),
         ([], "trials = many")],
    )
    def test_malformed_option_value_is_config_error(self, tmp_path, flags, config_line):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config_line + "\n")
        code, err = run_cli_process(
            "cv", "--config", str(cfgfile), *flags, "--out", str(tmp_path / "o"),
        )
        assert code == EXIT_CONFIG
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, blocked",
        [
            (["train", "--data", "iris", "--layers", "5"], "report.json"),
            (["train", "--data", "iris", "--layers", "5"], "weights.json"),
            (["iris-sweep", "--grid", "5", "--trials", "1"], "sweep.csv"),
        ],
    )
    def test_unwritable_output_file_is_config_error(self, tmp_path, argv, blocked):
        """A directory where an output file belongs cannot be written over
        (permission bits do not stop a root user, so this is the case tested)."""
        (tmp_path / blocked).mkdir()
        code, err = run_cli_process(*argv, "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "Traceback" not in err and blocked in err

    def test_gd_report_records_its_steps_and_spec(self, tmp_path):
        """A train report holds what its trainer and spec do not already say:
        gd's step count, and no restated seed or solve count."""
        code, err = run_cli_process(
            "train", "--data", "iris", "--layers", "3", "--trainer", "gd",
            "--max-iters", "5", "--seed", "4", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        assert "Traceback" not in err
        rep = json.loads((tmp_path / "report.json").read_text())["train_report"]
        assert (rep["trainer"], rep["iterations"], rep["spec"]["seed"]) == ("gd", 5, 4)
        assert not {"seed", "solve_count", "peel_chains", "init_style"} & set(rep)

    def test_eval_matches_classes_by_name(self, tmp_path):
        """Reversing the test rows reverses the order in which classes
        first appear; the score must not change."""
        train, test, test_rev = _iris_csvs(tmp_path)
        out = tmp_path / "run"
        assert run_cli("train", "--data", str(train), "--layers", "20",
                       "--out", str(out)) == EXIT_OK
        trained = json.loads((out / "report.json").read_text())
        assert trained["preprocessing"]["classes"] == ["setosa", "versicolor", "virginica"]
        accs = []
        for path in (test, test_rev):
            assert run_cli("eval", "--data", str(path), "--weights",
                           str(out / "weights.json"), "--out", str(out)) == EXIT_OK
            accs.append(json.loads((out / "eval_report.json").read_text())["accuracy"])
        assert accs[0] == accs[1]
        assert accs[0] > 0.9

    def test_byte_order_mark_csv_trains_like_the_plain_file(self, tmp_path):
        """Spreadsheet exports often start with a UTF-8 byte-order mark; the
        file must train, and report as the same file without the mark."""
        from test_experiments import strip_wall_times

        train, _, _ = _iris_csvs(tmp_path)
        plain = train.read_bytes()
        reports = []
        for tag, content in (("plain", plain), ("bom", b"\xef\xbb\xbf" + plain)):
            train.write_bytes(content)
            out = tmp_path / tag
            assert run_cli("train", "--data", str(train), "--layers", "5",
                           "--out", str(out)) == EXIT_OK
            reports.append(strip_wall_times(json.loads((out / "report.json").read_text())))
        assert reports[0] == reports[1]

    def test_eval_unknown_class_is_data_error(self, tmp_path):
        train, test, _ = _iris_csvs(tmp_path)
        out = tmp_path / "run"
        assert run_cli("train", "--data", str(train), "--layers", "5",
                       "--out", str(out)) == EXIT_OK
        test.write_text(test.read_text().replace(",setosa", ",bristly"))
        code, err = run_cli_process(
            "eval", "--data", str(test), "--weights", str(out / "weights.json"),
            "--out", str(out),
        )
        assert code == EXIT_DATA
        assert "Traceback" not in err and "bristly" in err

    @pytest.mark.parametrize(
        "rows",
        [
            "0.1,0.2,0.3,a\n0.3,0.1,0.2,b\n",  # 3 features for a 4-input net
            "0.1,0.2,0.3,0.4,a\n0.3,0.1,0.2,0.5,b\n",  # 2 classes for 3 outputs
        ],
    )
    def test_eval_shape_mismatch_without_train_report_is_data_error(self, tmp_path, rows):
        out = tmp_path / "run"
        assert run_cli("train", "--data", "iris", "--layers", "5",
                       "--out", str(out)) == EXIT_OK
        (out / "report.json").unlink()
        data = tmp_path / "other.csv"
        data.write_text(rows)
        code, err = run_cli_process(
            "eval", "--data", str(data), "--weights", str(out / "weights.json"),
            "--out", str(tmp_path),
        )
        assert code == EXIT_DATA
        assert "Traceback" not in err and "the network takes 4" in err

    def test_gd_overflow_is_numerical_error(self, tmp_path):
        """Weights that overflow leave the clamped output loss finite; the
        fit must still fail rather than write Infinity into a report."""
        code, err = run_cli_process(
            "train", "--data", "iris", "--layers", "3", "--trainer", "gd",
            "--learning-rate", "1e200", "--max-iters", "5", "--out", str(tmp_path),
        )
        assert code == EXIT_NUMERIC
        assert "Traceback" not in err and "non-finite" in err
        assert not (tmp_path / "report.json").exists()

    def test_readme_overflow_line_prints_one_error_line(self, tmp_path):
        """The README's overflow example ends in exit 4 with the refusal
        alone on stderr: no numpy RuntimeWarning comes before it."""
        code, err = run_cli_process(
            "train", "--data", "iris", "--layers", "5", "--trainer", "gd",
            "--learning-rate", "1e200", "--out", str(tmp_path),
        )
        assert code == EXIT_NUMERIC
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_learning_rate_is_config_error(self, tmp_path, capsys, value):
        """A NaN or infinite step is a bad option, not a non-finite loss at
        iteration 1; a finite step that overflows stays exit 4 (above)."""
        code = run_cli("cv", "--data", "iris", "--layers", "3", "--trainer", "gd",
                       "--folds", "2", "--trials", "1", "--max-iters", "5",
                       f"--learning-rate={value}", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "learning_rate" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("scale_eps", ["abc", None, [1], 0.7, 0, 0.5])
    def test_malformed_scale_eps_in_train_report_is_data_error(self, tmp_path, scale_eps):
        out = tmp_path / "run"
        assert run_cli("train", "--data", "iris", "--layers", "5",
                       "--out", str(out)) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        report["preprocessing"]["scale_eps"] = scale_eps
        (out / "report.json").write_text(json.dumps(report))
        code, err = run_cli_process(
            "eval", "--data", "iris", "--weights", str(out / "weights.json"),
            "--out", str(tmp_path / "eval"),
        )
        assert code == EXIT_DATA
        assert "Traceback" not in err
        assert str(out / "report.json") in err and "scale_eps" in err

    def test_non_finite_scaling_bound_in_train_report_is_data_error(self, tmp_path):
        """A bound json reads as Infinity would scale its column to NaN."""
        out = tmp_path / "run"
        assert run_cli("train", "--data", "iris", "--layers", "5",
                       "--out", str(out)) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        report["preprocessing"]["scaling"][1] = [float("-inf"), float("inf")]
        (out / "report.json").write_text(json.dumps(report))
        code, err = run_cli_process(
            "eval", "--data", "iris", "--weights", str(out / "weights.json"),
            "--out", str(tmp_path / "eval"),
        )
        assert code == EXIT_DATA
        assert "RuntimeWarning" not in err and "Traceback" not in err
        assert str(out / "report.json") in err and "non-finite bound" in err
        assert not (tmp_path / "eval" / "eval_report.json").exists()

    def test_feature_spanning_more_than_the_largest_double_trains(self, tmp_path):
        """A column from -1e308 to 1e308 has a span past the largest double;
        it still scales into [eps, 1 - eps] and trains without a warning."""
        from karnet.data import load_csv, scale_minmax

        data = tmp_path / "wide.csv"
        data.write_text("1e308,0.1,a\n-1e308,0.2,b\n0.5,0.3,a\n1.0,0.4,b\n")
        code, err = run_cli_process(
            "train", "--data", str(data), "--layers", "2", "--out", str(tmp_path / "o"),
        )
        assert code == EXIT_OK
        assert err == ""
        x = scale_minmax(load_csv(data, -1), 0.01).x
        assert np.all((x >= 0.01) & (x <= 0.99))
        np.testing.assert_array_equal(x[:, 0], [0.99, 0.01, 0.5, 0.5])

    @pytest.mark.parametrize("command, seed", [
        pytest.param(command, seed, id=command if seed == "-1" else f"{command}-2**64")
        for seed in ("-1", "18446744073709551616")
        for command in ("train", "cv", "xor-demo", "iris-sweep", "gradient-check")
    ])
    def test_negative_seed_is_config_error(self, tmp_path, command, seed):
        """Seeds outside [0, 2**64) exit 2: numpy takes none below 0, and a
        weights file cannot record one of 2**64 or more."""
        flags = [] if command == "gradient-check" else ["--out", str(tmp_path)]
        if command in ("train", "cv", "gradient-check"):
            flags += ["--layers", "3"]
        code, err = run_cli_process(command, "--seed", seed, *flags)
        assert code == EXIT_CONFIG
        assert "Traceback" not in err and "seed must be in" in err

    _CLIP_OR_RCOND = [
        ("--gradient-clip", "-1"), ("--gradient-clip", "0"), ("--gradient-clip", "nan"),
        ("--gradient-clip", "inf"), ("--rcond", "-1"), ("--rcond", "nan"), ("--rcond", "inf"),
    ]
    _RATE_OR_ITERS = [("--learning-rate", "-1"), ("--learning-rate", "nan"), ("--max-iters", "0")]

    @pytest.mark.parametrize("trainer, flag, value", [
        *(pytest.param("gd", flag, value, id=f"{flag}-{value}") for flag, value in _CLIP_OR_RCOND),
        *(pytest.param("kar", flag, value, id=f"kar{flag}-{value}")
          for flag, value in _CLIP_OR_RCOND + _RATE_OR_ITERS),
    ])
    def test_bad_clip_or_rcond_is_config_error(self, tmp_path, capsys, trainer, flag, value):
        """Each numeric option is checked whatever the trainer, so a gd
        option is a config error under kar too."""
        code = run_cli("train", "--data", "iris", "--layers", "3", "--trainer", trainer,
                       "--max-iters", "5", flag, value, "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_rcond_one_drops_the_random_node_block(self, tmp_path):
        """Every singular value of a random node block is 1 and the peel uses
        no cutoff; ``--rcond 1`` keeps no singular value of the first solve,
        so the fit fails there with exit 4 and writes no report."""
        code, err = run_cli_process(
            "train", "--data", "iris", "--layers", "3", "--rcond", "1", "--out", str(tmp_path),
        )
        assert code == EXIT_NUMERIC
        assert "Traceback" not in err and "input matrix is numerically rank-deficient" in err
        assert not (tmp_path / "report.json").exists()

    def test_one_class_csv_cv_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("0.1,0.2,a\n0.3,0.4,a\n0.5,0.6,a\n")
        code = run_cli("cv", "--data", str(data), "--layers", "2", "--folds", "2",
                       "--trials", "1", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "cross-validation needs at least two classes" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_label_only_csv_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "labels.csv"
        data.write_text("a\nb\na\n")
        code = run_cli("train", "--data", str(data), "--layers", "3", "--out", str(tmp_path))
        assert code == EXIT_DATA
        assert "no feature column" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["train", "--layers", "0"], id="train-layers-0"),
        pytest.param(["cv", "--layers", "3,0", "--trials", "1", "--folds", "3"], id="cv-layers-0"),
        pytest.param(["train", "--layers", "3", "--scale-eps", "0.7"], id="train-scale-eps"),
        pytest.param(["cv", "--layers", "3", "--trials", "1", "--folds", "3", "--scale-eps", "nan"],
                     id="cv-scale-eps"),
        pytest.param(["eval", "--weights", "weights.json", "--scale-eps", "0"], id="eval-scale-eps"),
    ])
    def test_bad_layer_size_or_scale_eps_is_refused_before_out_is_made(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        from karnet.gradient_descent import initial_network
        from karnet.network import NetworkSpec, save_network

        monkeypatch.chdir(tmp_path)  # eval's weights, with no train report beside them
        save_network(initial_network(NetworkSpec(4, (3,), 3)), tmp_path / "weights.json")
        assert run_cli(*argv, "--data", "iris", "--out", str(tmp_path / "out")) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1
        assert "layer sizes must be integers >= 1" in errors[0] or "scaling epsilon" in errors[0]

    @pytest.mark.parametrize("command, flags", [
        pytest.param("cv", ["--data", "xor", "--folds", "2"], id="cv"),
        pytest.param("iris-sweep", [], id="iris-sweep"),
    ])
    def test_grid_value_below_one_is_config_error(self, tmp_path, capsys, command, flags):
        code = run_cli(command, *flags, "--grid", "2,-1", "--trials", "1", "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "grid" in capsys.readouterr().err


# Values tried for each option, by its parser: negative, zero, NaN and
# infinite numbers, malformed lists, and a few that run.  Sizes stay small
# and trials at most 2, so each example runs in milliseconds.
_LISTS = ["", "1", "2,3", "3,3,3", "0", "-1", "1,-2", "a,b", "1,,2", ","]
_FUZZ_VALUES = {
    int: ["-1", "0", "1", "2", "18446744073709551616", "nan", "inf"],
    float: ["-1", "0", "0.5", "1e-3", "nan", "inf", "-inf"],
    _parse_int_list: _LISTS,
    _parse_grid: _LISTS,
    str: ["fixed", "exp4", "kar", "gd", "bogus"],
}


@st.composite
def _cli_argvs(draw):
    """A command with up to four of the options it reads, on the xor data
    where it reads --data; iris-sweep always gets a short --grid and --trials."""
    command = draw(st.sampled_from(["train", "cv", "xor-demo", "gradient-check", "iris-sweep"]))
    options = [o for o in _OPTIONS if o[0] in _READS[command] and o[0] not in ("data", "out")]
    chosen = draw(st.lists(st.sampled_from(options), max_size=4, unique=True))
    if command == "iris-sweep":
        chosen = [o for o in options if o[0] in ("grid", "trials") or o in chosen]
    argv = [command, "--data", "xor"] if "data" in _READS[command] else [command]
    for key, _, parse, _ in chosen:
        if parse is _parse_bool:
            argv.append(f"--{key}")
        else:
            argv += [f"--{key}", draw(st.sampled_from(_FUZZ_VALUES[parse]))]
    return argv


class TestCliFuzz:
    @settings(max_examples=150, deadline=None)
    @example(["train", "--data", "xor", "--seed", "-1"])
    @example(["iris-sweep", "--grid", "-1", "--trials", "1"])
    @given(_cli_argvs())
    def test_any_option_values_end_in_a_documented_exit(self, argv):
        with tempfile.TemporaryDirectory() as out:
            if "out" in _READS[argv[0]]:
                argv = [*argv, "--out", out]
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejecting a malformed value
                assert exc.code == EXIT_CONFIG
                return
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC)
