"""Command-line harness tests: schemas, exit codes, determinism."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import holdlab
from holdlab import (
    Dataset,
    HoldFilter,
    HoldParams,
    LiftedState,
    convolution_reconstruct,
    critically_damped_params,
    forced_ode_positions,
    training_points,
)
from holdlab import cli, forward
from holdlab import score as score_module
from holdlab.cli import _cells, _config_from_args, _forcing_values, build_parser, main
from holdlab.config import ConfigError, ExperimentConfig, config_from_dict, load_config
from holdlab.sampler import TimeGrid


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestParamsCommand:
    def test_order3_json(self, capsys):
        assert main(["params", "--order", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == 3
        assert abs(doc["xi"] - 5.1961524) <= 1e-6
        assert abs(doc["s_star"] + math.sqrt(3.0)) <= 1e-12

    def test_order1_exits_2(self, capsys):
        assert main(["params", "--order", "1"]) == 2
        assert "order" in capsys.readouterr().err

    def test_order2_values(self, capsys):
        assert main(["params", "--order", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gammas"] == [1.0]
        assert doc["xi"] == 2.0


class TestFilterCommand:
    def test_default_labels_and_rows(self, tmp_path):
        out = tmp_path / "filter.csv"
        assert main(["filter", "--out", str(out), "--omega-points", "50"]) == 0
        header, rows = read_csv(out)
        assert header == ["omega", "label", "magnitude"]
        labels = {r[1] for r in rows}
        assert labels == {"ou", "hold2", "hold3", "hold4"}
        assert len(rows) == 4 * 50

    def test_hold2_dc_value(self, tmp_path):
        out = tmp_path / "filter.csv"
        assert (
            main(
                [
                    "filter",
                    "--out",
                    str(out),
                    "--orders",
                    "2",
                    "--omega-min",
                    "1e-9",
                    "--omega-max",
                    "1",
                    "--omega-points",
                    "3",
                ]
            )
            == 0
        )
        _, rows = read_csv(out)
        hold2 = [r for r in rows if r[1] == "hold2"]
        assert abs(float(hold2[0][2]) - 2.0) <= 1e-9

    def test_svg_written(self, tmp_path):
        out = tmp_path / "filter.csv"
        assert main(["filter", "--out", str(out), "--svg"]) == 0
        svg = out.with_suffix(".svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_impulse_table(self, tmp_path):
        out = tmp_path / "filter.csv"
        imp = tmp_path / "impulse.csv"
        assert (
            main(
                [
                    "filter",
                    "--out",
                    str(out),
                    "--impulse-out",
                    str(imp),
                    "--impulse-points",
                    "10",
                ]
            )
            == 0
        )
        header, rows = read_csv(imp)
        assert header == ["t", "label", "h"]
        ou_zero = [r for r in rows if r[1] == "ou" and float(r[0]) == 0.0]
        assert float(ou_zero[0][2]) == -1.0
        hold_zero = [r for r in rows if r[1] == "hold3" and float(r[0]) == 0.0]
        assert float(hold_zero[0][2]) == 0.0

    def test_impulse_table_into_a_new_directory(self, tmp_path):
        # Like --out, --impulse-out creates its parent directory.
        out, imp = tmp_path / "a" / "filter.csv", tmp_path / "b" / "impulse.csv"
        argv = ["filter", "--out", str(out), "--impulse-out", str(imp)]
        assert main(argv + ["--impulse-points", "10"]) == 0
        assert read_csv(imp)[0] == ["t", "label", "h"] and out.exists()


    @pytest.mark.parametrize(
        "flags",
        [
            ["--omega-min", "0"],
            ["--omega-min", "-1"],
            ["--omega-max", "inf"],
            ["--omega-max", "nan"],
            ["--omega-points", "0"],
        ],
    )
    def test_bad_frequency_grid_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "filter.csv"
        assert main(["filter", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --omega-")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--impulse-points", "-3"],
            ["--impulse-points", "0"],
            ["--impulse-t-max", "-1"],
            ["--impulse-t-max", "0"],
            ["--impulse-t-max", "nan"],
        ],
    )
    def test_bad_impulse_grid_exits_2(self, tmp_path, capsys, flags):
        out, imp = tmp_path / "filter.csv", tmp_path / "impulse.csv"
        argv = ["filter", *flags, "--out", str(out), "--impulse-out", str(imp)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {flags[0]} must be ")
        assert not out.exists() and not imp.exists()


class TestCollapseCommand:
    def test_svg_written(self, tmp_path):
        out = tmp_path / "collapse.csv"
        assert (
            main(
                [
                    "collapse",
                    "--out",
                    str(out),
                    "--svg",
                    "--orders",
                    "1,2",
                    "--t-points",
                    "10",
                ]
            )
            == 0
        )
        assert out.with_suffix(".svg").read_text().startswith("<svg")

    def test_values(self, tmp_path):
        out = tmp_path / "collapse.csv"
        assert (
            main(
                [
                    "collapse",
                    "--out",
                    str(out),
                    "--orders",
                    "1,2,3",
                    "--t-min",
                    "1e-2",
                    "--t-max",
                    "1",
                    "--t-points",
                    "5",
                ]
            )
            == 0
        )
        header, rows = read_csv(out)
        assert header == ["n", "t", "det_ratio"]
        assert len(rows) == 15
        table = {(int(r[0]), float(r[1])): float(r[2]) for r in rows}
        assert abs(table[(2, 1e-2)] - 0.75) <= 0.02
        assert table[(1, 1e-2)] <= 1e-2
        assert table[(3, 1e-2)] > table[(2, 1e-2)]

    @pytest.mark.parametrize("xi", ["0", "-1", "nan"])
    def test_bad_friction_exits_2(self, tmp_path, capsys, xi):
        # Orders >= 2 do not read xi, and must reject it all the same.
        out = tmp_path / "collapse.csv"
        for orders in ([], ["--orders", "2,3"]):
            assert main(["collapse", *orders, "--ou-xi", xi, "--out", str(out)]) == 2
            assert "friction" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--t-min", "0"], ["--t-max", "-1"], ["--t-points", "0"]]
    )
    def test_degenerate_grid_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "collapse.csv"
        assert main(["collapse", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "order, why", [("12", "leaves the float range"), ("16", "needed a floor")]
    )
    def test_out_of_range_orders_exit_2(self, tmp_path, capsys, order, why):
        # Order 12's ratio passes 1e308 at the default t_min = 1e-3; order
        # 16's Sigma_t needs a Cholesky floor there.
        out = tmp_path / "collapse.csv"
        assert main(["collapse", "--orders", order, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: det_ratio at order {order}, t=0.001")
        assert why in err
        assert not out.exists()


class TestGenerateCommand:
    def test_bookkeeping_and_determinism(self, tmp_path):
        args = [
            "generate",
            "--orders",
            "1,2",
            "--n-train",
            "8",
            "--runs",
            "16",
            "--steps",
            "200",
            "--seed",
            "5",
            "--out-dir",
            str(tmp_path / "a"),
        ]
        assert main(args) == 0
        for order in (1, 2):
            header, rows = read_csv(tmp_path / "a" / f"endpoints_{order}.csv")
            assert header == ["run", "x0", "x1"]
            assert len(rows) == 16
        assert (tmp_path / "a" / "resolved_config.json").exists()
        args2 = args[:-1] + [str(tmp_path / "b")]
        assert main(args2) == 0
        for name in ("endpoints_1.csv", "endpoints_2.csv", "failures.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        resolved_a = json.loads((tmp_path / "a" / "resolved_config.json").read_text())
        resolved_b = json.loads((tmp_path / "b" / "resolved_config.json").read_text())
        resolved_a.pop("out_dir")
        resolved_b.pop("out_dir")
        assert resolved_a == resolved_b

    def test_singleton_memorizes(self, tmp_path):
        # Singleton endpoints land on the training point through the
        # covariance collapse of the lifted chain (order 2 here; the
        # first-order marginal keeps width ~sqrt(2 xi t_end) ~ 0.045 at the
        # default floor, so no such bound exists for it).
        out = tmp_path / "single"
        assert (
            main(
                [
                    "generate",
                    "--orders",
                    "2",
                    "--dataset",
                    "grid:side=1,dim=1",
                    "--n-train",
                    "1",
                    "--runs",
                    "8",
                    "--seed",
                    "2",
                    "--out-dir",
                    str(out),
                ]
            )
            == 0
        )
        _, rows = read_csv(out / "endpoints_2.csv")
        ends = np.array([float(r[1]) for r in rows])
        assert np.abs(ends - 0.0).max() <= 1e-2

    def test_multi_n_train_rejected(self, tmp_path):
        code = main(
            [
                "generate",
                "--n-train",
                "8,16",
                "--out-dir",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"runs": 4, "typo_key": 1}))
        assert main(["generate", "--config", str(cfg)]) == 2

    def test_divergent_runs_exit_3(self, tmp_path):
        # At t_end = 1e-8 the order-3 Sigma_t has L_00 ~ 2e-20, so Heun's
        # corrector on the last 2.5e-3 step meets an exact score of ~5e19
        # and every run passes the 1e6 divergence guard on step 399; the
        # divergences land in failures.csv and the failure budget trips.
        out = tmp_path / "diverge"
        code = main(
            [
                "generate",
                "--orders",
                "3",
                "--n-train",
                "4",
                "--runs",
                "8",
                "--steps",
                "400",
                "--t-end",
                "1e-8",
                "--seed",
                "1",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 3
        _, rows = read_csv(out / "failures.csv")
        assert len(rows) == 8

    def test_out_dir_on_a_file_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["generate", "--runs", "2", "--out-dir", str(blocker)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestFmemSweepCommand:
    def test_rows_and_determinism(self, tmp_path):
        args = [
            "fmem-sweep",
            "--orders",
            "1,2",
            "--n-train",
            "4,8",
            "--runs",
            "8",
            "--steps",
            "150",
            "--seed",
            "7",
            "--out-dir",
            str(tmp_path / "a"),
        ]
        assert main(args) == 0
        header, rows = read_csv(tmp_path / "a" / "sweep.csv")
        assert header == [
            "order",
            "n_train",
            "policy",
            "fmem",
            "ci_low",
            "ci_high",
            "w2",
        ]
        assert len(rows) == 4
        assert main(args[:-1] + [str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()

    def test_divergent_runs_exit_3(self, tmp_path, capsys):
        # Every run of the cell diverges (see the generate twin): the cell
        # gets NaN scores instead of crashing, and the budget still trips.
        out = tmp_path / "diverge"
        code = main(
            [
                "fmem-sweep",
                "--orders",
                "3",
                "--n-train",
                "4",
                "--runs",
                "8",
                "--steps",
                "400",
                "--t-end",
                "1e-8",
                "--seed",
                "1",
                "--aux-policy",
                "fixed",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 3
        assert "8/8 runs diverged" in capsys.readouterr().err
        _, rows = read_csv(out / "failures.csv")
        assert len(rows) == 8
        _, rows = read_csv(out / "sweep.csv")
        assert rows == [["3", "4", "fixed", "nan", "nan", "nan", "nan"]]

    def test_both_policies_emitted(self, tmp_path):
        assert (
            main(
                [
                    "fmem-sweep",
                    "--orders",
                    "2",
                    "--n-train",
                    "4",
                    "--runs",
                    "8",
                    "--steps",
                    "100",
                    "--aux-policy",
                    "both",
                    "--seed",
                    "1",
                    "--out-dir",
                    str(tmp_path / "p"),
                ]
            )
            == 0
        )
        _, rows = read_csv(tmp_path / "p" / "sweep.csv")
        assert [r[2] for r in rows] == ["fixed", "marginalized"]

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "orders": [1],
                    "dataset": {"kind": "ring", "radius": 4.0, "noise": 0.05},
                    "n_train": 6,
                    "runs": 8,
                    "grid": {"steps": 100},
                    "seed": 9,
                }
            )
        )
        out = tmp_path / "cfg_out"
        assert (
            main(
                [
                    "fmem-sweep",
                    "--config",
                    str(cfg),
                    "--runs",
                    "4",
                    "--out-dir",
                    str(out),
                ]
            )
            == 0
        )
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["runs"] == 4
        assert resolved["dataset"]["kind"] == "ring"
        assert resolved["grid"]["steps"] == 100

    @pytest.mark.parametrize("n_train", ["1", "4,1"])
    def test_single_training_point_rejected_before_generation(
        self, tmp_path, capsys, n_train
    ):
        # The gap ratio needs two training points; nothing is generated.
        out = tmp_path / "sweep"
        argv = ["fmem-sweep", "--orders", "2", "--n-train", n_train, "--runs", "2"]
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert "n_train >= 2" in capsys.readouterr().err
        assert not out.exists()


def test_one_stacked_factorization_per_order(monkeypatch):
    # The grid's schedule is factored once per order; no grid time falls
    # back to a single-time factor or a fresh mixture_at.
    stacks, blocks = [], []
    real_stack, real_block = forward.cholesky_stack, forward.cholesky_block

    def stack(cov, *args):
        stacks.append(cov.small.shape)
        return real_stack(cov, *args)

    def block(cov, *args):
        blocks.append(cov.t)
        return real_block(cov, *args)

    monkeypatch.setattr(forward, "cholesky_stack", stack)
    monkeypatch.setattr(forward, "cholesky_block", block)
    monkeypatch.setattr(score_module, "mixture_at", None)  # never reached
    forward._schedule.cache_clear()
    config = load_config(None, {"grid.steps": 250, "runs": 4})
    train = training_points(config.dataset, 8, config.seed)
    cells = list(_cells(config, [(8, Dataset(train))]))
    assert [cell[0] for cell in cells] == config.orders
    assert stacks == [(251, n, n) for n in config.orders]
    assert blocks == []


@pytest.mark.parametrize("command", ["generate", "fmem-sweep"])
def test_order_above_cap_exits_2_before_writing(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--orders", "2,40", "--runs", "2", "--steps", "10"]
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert "orders must be" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_training_point_exits_2(tmp_path, capsys):
    # A one-point lattice repeated four times has no second-nearest
    # distinct training point, so there is no gap ratio.
    argv = ["fmem-sweep", "--orders", "2", "--n-train", "4", "--runs", "2"]
    argv += ["--steps", "10", "--dataset", "grid:side=1,dim=1"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    assert "distinct training points" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()
    # Rejected before any work: not even the output directory is made.
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["generate", "fmem-sweep"])
@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--ou-xi", "nan", "ou_xi"),
        ("--alpha", "nan", "alpha"),
        ("--l-inv", "inf", "l_inv"),
        ("--t-start", "inf", "t_start"),
        ("--dataset", "gaussian_mixture:k=4,spread=nan", "spread"),
        ("--dataset", "gaussian_mixture:k=4,spread=inf", "spread"),
        ("--dataset", "ring:radius=inf,noise=0.1", "radius"),
        ("--dataset", "ring:radius=1,noise=nan", "noise"),
    ],
)
def test_non_finite_parameter_exits_2_before_writing(
    tmp_path, capsys, command, flag, value, field
):
    out = tmp_path / "out"
    argv = [command, "--orders", "2", "--runs", "4", "--steps", "5", flag, value]
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not out.exists()


def test_unreachable_mixture_spec_exits_2_before_writing(tmp_path, capsys):
    # Eight centers at least 6 apart on a line from 6 N(0, 1) draws: the
    # rejection loop gives up at its cap instead of hanging.
    out = tmp_path / "out"
    argv = ["fmem-sweep", "--orders", "1,2,3,4", "--steps", "250"]
    argv += ["--aux-policy", "both", "--dataset", "gaussian_mixture:k=8,spread=6,dim=1"]
    assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "k=8, spread=6, dim=1" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "fmem-sweep"])
def test_non_finite_csv_exits_2_before_writing(tmp_path, capsys, command):
    data = tmp_path / "points.csv"
    data.write_text("1,2\n3,4\nnan,0\n5,6\n")
    out = tmp_path / "out"
    argv = [command, "--orders", "2", "--n-train", "4", "--runs", "4", "--steps", "5"]
    argv += ["--dataset", f"csv:path={data}", "--out-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(data) in err and "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["filter", "collapse", "theorem1-check"])
def test_orders_flags_parse_with_the_config_converter(capsys, command):
    # _int_list_flag hands argparse config._int_list's reason, not its name;
    # the repeated-value test below shows the same for config's own check.
    action = next(a for a in _subparser(command)._actions if a.dest == "orders")
    assert action.type is cli._int_list_flag
    with pytest.raises(SystemExit) as exc:
        main([command, "--orders", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --orders: bad value 'x' (invalid literal for int()" in err
    assert "_int_list" not in err


def _exit_code(argv):
    """main's return value, or the code of argparse's usage-error exit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["filter", "--orders", "2,2", "--svg", "--impulse-out", "{out}/h.csv"],
        ["collapse", "--orders", "2,2", "--svg", "--out", "{out}/collapse.csv"],
        ["theorem1-check", "--orders", "2,2", "--out", "{out}/theorem1.csv"],
        ["generate", "--orders", "2,2", "--runs", "2", "--out-dir", "{out}"],
        ["fmem-sweep", "--orders", "2,2", "--runs", "2", "--out-dir", "{out}"],
        ["fmem-sweep", "--n-train", "3,3", "--runs", "2", "--out-dir", "{out}"],
    ],
)
def test_repeated_value_exits_2_before_writing(tmp_path, capsys, argv):
    # A repeated order or training-set size would repeat a row or a file.
    out = tmp_path / "out"
    argv = [arg.replace("{out}", str(out)) for arg in argv]
    repeated = next(arg for arg in argv if arg in ("2,2", "3,3"))
    assert _exit_code(argv) == 2
    value = repeated.split(",")[0]
    reason = f"'{repeated}' (repeated value in [{value}, {value}])"
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_exits_2_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["generate", "--orders", "2", "--runs", "2", "--steps", "5"]
    assert main(argv + ["--seed", "-1", "--out-dir", str(out)]) == 2
    assert "seed must be a nonnegative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "fmem-sweep"])
def test_missing_config_file_exits_1(tmp_path, capsys, command):
    missing = tmp_path / "missing.json"
    out = tmp_path / "out"
    assert main([command, "--config", str(missing), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert not out.exists()


# One non-default value per experiment field: (JSON value, flag string).
SAMPLES = {
    "orders": ([2, 3], "2,3"),
    "dataset": (
        {"kind": "ring", "radius": 2.0, "noise": 0.1},
        "ring:radius=2,noise=0.1",
    ),
    "n_train": ([4, 16], "4,16"),
    "runs": (7, "7"),
    "tau": (0.25, "0.25"),
    "l_inv": (2.0, "2"),
    "alpha": (0.5, "0.5"),
    "ou_xi": (3.0, "3"),
    "aux_policy": ("both", "both"),
    "seed": (11, "11"),
    "out_dir": ("elsewhere", "elsewhere"),
    "grid.t_start": (2.0, "2"),
    "grid.t_end": (0.01, "0.01"),
    "grid.steps": (50, "50"),
    "grid.spacing": ("quadratic", "quadratic"),
}
# Every ExperimentConfig field, with the grid's own fields dotted.
SCHEMA_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "grid"]
SCHEMA_KEYS += [f"grid.{f.name}" for f in dataclasses.fields(TimeGrid)]


def _nested(key, value):
    head, dot, tail = key.partition(".")
    return {head: {tail: value}} if dot else {key: value}


def _flag(key):
    """The flag spelling: ``grid.t_end`` is --t-end."""
    return "--" + key.rpartition(".")[2].replace("_", "-")


def _subparser(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


class TestExperimentSchema:
    """A field added to ExperimentConfig or TimeGrid without a flag, a JSON
    round trip or a flag that parses like its JSON value fails here."""

    def test_samples_cover_every_field(self):
        assert sorted(SAMPLES) == sorted(SCHEMA_KEYS)

    @pytest.mark.parametrize("command", ["generate", "fmem-sweep"])
    def test_one_flag_per_field(self, command):
        actions = _subparser(command)._actions
        dests = sorted(a.dest for a in actions)
        assert dests == sorted(SCHEMA_KEYS + ["config", "help"])
        for key in SCHEMA_KEYS:
            assert [a.option_strings for a in actions if a.dest == key] == [[_flag(key)]]

    @pytest.mark.parametrize("key", SCHEMA_KEYS)
    def test_json_round_trip(self, key):
        cfg = config_from_dict(_nested(key, SAMPLES[key][0]))
        assert cfg != ExperimentConfig()
        assert config_from_dict(json.loads(json.dumps(cfg.to_json_dict()))) == cfg

    @pytest.mark.parametrize("command", ["generate", "fmem-sweep"])
    @pytest.mark.parametrize("key", SCHEMA_KEYS)
    def test_flag_parses_like_json(self, command, key):
        value, text = SAMPLES[key]
        args = build_parser().parse_args([command, _flag(key), text])
        assert _config_from_args(args) == config_from_dict(_nested(key, value))

    @pytest.mark.parametrize(
        "key, text", [("runs", "x"), ("aux_policy", "sometimes"), ("grid.steps", "1.5")]
    )
    def test_bad_flag_fails_like_bad_json(self, capsys, key, text):
        with pytest.raises(ConfigError) as info:
            config_from_dict(_nested(key, text))
        assert main(["generate", _flag(key), text]) == 2
        assert capsys.readouterr().err == f"error: {info.value}\n"


class TestTheoremCheckCommand:
    def test_defaults_pass(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert main(["theorem1-check", "--steps", "4000", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["label", "forcing", "rel_l2_error"]
        labels = {r[0] for r in rows}
        assert labels == {"ou", "hold2", "hold3", "hold4"}
        assert all(float(r[2]) <= 1e-3 for r in rows)

    def test_zero_forcing_exact(self, tmp_path):
        out = tmp_path / "t0.csv"
        assert (
            main(
                [
                    "theorem1-check",
                    "--forcings",
                    "zero",
                    "--steps",
                    "500",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        _, rows = read_csv(out)
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_coarse_grid_exits_4(self, tmp_path):
        out = tmp_path / "bad.csv"
        code = main(
            [
                "theorem1-check",
                "--orders",
                "4",
                "--steps",
                "40",
                "--out",
                str(out),
            ]
        )
        assert code == 4

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_error_exits_4(self, tmp_path, capsys):
        # A constant 1e308 forcing is finite, but both routes overflow on
        # the way (the FFT product, the RK4 half-step forcing), so the
        # errors are NaN: a NaN is a failure.
        out = tmp_path / "t1.csv"
        argv = ["theorem1-check", "--forcings", "const:1e308", "--steps", "1000"]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv + ["--out", str(out)]) == 4
        _, rows = read_csv(out)
        assert len(rows) == 4 and all(math.isnan(float(r[2])) for r in rows)
        assert "nan exceeds" in capsys.readouterr().err

    def test_nan_error_prints_only_its_error_line(self, tmp_path):
        # The overflows on the way to the NaN error are not shown: a script
        # reading stderr sees the error line and nothing else.
        argv = ["theorem1-check", "--forcings", "const:1e308", "--steps", "1000"]
        env = {**os.environ, "PYTHONPATH": str(Path(holdlab.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "holdlab.cli", *argv, "--out", str(tmp_path / "t1.csv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 4
        assert proc.stderr == "error: worst relative L2 error nan exceeds 0.001\n"

    def test_huge_positions_keep_a_finite_error(self, tmp_path):
        # At const:1e300 both routes stay finite, but the plain L2 norms of
        # their positions would overflow; in units of the oracle's largest
        # entry they do not, and the error is that of a smaller constant
        # (the initial state is negligible next to both).
        out = tmp_path / "t1.csv"
        argv = ["theorem1-check", "--forcings", "const:1e100,const:1e300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--steps", "1000", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        errors = np.array([float(r[2]) for r in rows]).reshape(4, 2)
        assert np.isfinite(errors).all() and errors.max() <= 1e-5
        assert np.allclose(errors[:, 1], errors[:, 0], rtol=1e-9, atol=0)

    @pytest.mark.parametrize("forcing", ["exp:-1000", "const:nan", "const:-inf"])
    def test_non_finite_forcing_exits_2(self, tmp_path, capsys, forcing):
        # exp(1000 t) overflows on the grid, and NaN or infinite constants
        # are not finite anywhere: a usage error, not a failed theorem,
        # refused before any file is written and without warnings.
        out = tmp_path / "t1.csv"
        argv = ["theorem1-check", "--forcings", f"sin:3,{forcing}", "--steps", "100"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert "forcing column 1 is not finite" in capsys.readouterr().err

    def test_bad_forcing_exits_2(self, tmp_path):
        code = main(
            ["theorem1-check", "--forcings", "warble:3", "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_spaced_forcings_match_unspaced(self, tmp_path):
        outs = []
        for spec in ["sin:3,cos:2", " sin:3 , cos:2 "]:
            outs.append(tmp_path / f"t1_{len(outs)}.csv")
            argv = ["theorem1-check", "--forcings", spec, "--steps", "200"]
            assert main(argv + ["--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_bad_forcing_value_exits_2(self, tmp_path, capsys):
        code = main(
            ["theorem1-check", "--forcings", "sin:abc", "--out", str(tmp_path / "x")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("xi", ["0", "-1", "nan"])
    def test_bad_friction_exits_2(self, tmp_path, capsys, xi):
        out = tmp_path / "theorem1.csv"
        assert main(["theorem1-check", "--ou-xi", xi, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "friction" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--steps", "0"], ["--t-max", "0"], ["--t-max", "-1"], ["--forcings", ","]],
    )
    def test_degenerate_grid_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "theorem1.csv"
        assert main(["theorem1-check", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_stacked_forcings_match_per_forcing_runs(self, tmp_path):
        # The command evaluates all forcings of a case as the columns of one
        # state; each row must match a run of that forcing alone.
        names = ["zero", "sin:3", "const:1", "zero", "exp:1"]
        out = tmp_path / "t1.csv"
        argv = ["theorem1-check", "--forcings", ",".join(names), "--steps", "500"]
        assert main(argv + ["--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[:2] for r in rows] == [
            [label, name] for label in ("ou", "hold2", "hold3", "hold4") for name in names
        ]
        times = np.linspace(0.0, 5.0, 501)
        cases = [(HoldParams(order=1, gammas=(), xi=2.0, l_inv=1.0), [1.0])]
        cases += [(critically_damped_params(n), [1.0] + [0.5] * (n - 1)) for n in (2, 3, 4)]
        got = iter(float(r[2]) for r in rows)
        for params, u0 in cases:
            u0 = LiftedState(params.order, 1, np.array(u0))
            spec = HoldFilter.from_params(params)
            for name in names:
                value = next(got)
                if name == "zero":
                    assert value == 0.0
                    continue
                forcing = _forcing_values(name, times)
                recon = convolution_reconstruct(spec, params, u0, forcing, times)
                oracle = forced_ode_positions(params, u0, forcing, times)
                want = np.linalg.norm(recon - oracle) / np.linalg.norm(oracle)
                assert abs(value - want) <= 1e-13


class TestEnvSeed:
    def test_env_seed_ignored(self, tmp_path, monkeypatch):
        # The seed comes from the config and its flags alone: a config that
        # names none runs at seed 0 whatever the shell exports.
        argv = ["generate", "--orders", "1", "--n-train", "2", "--runs", "2"]
        argv += ["--steps", "50"]
        for value in ["321", "abc"]:
            monkeypatch.setenv("HOLDLAB_SEED", value)
            out = tmp_path / value
            assert main(argv + ["--out-dir", str(out)]) == 0
            resolved = json.loads((out / "resolved_config.json").read_text())
            assert resolved["seed"] == 0


@pytest.mark.parametrize("diverged, code", [(0, 0), (1, 3)])
def test_finish_exits_3_from_one_percent(tmp_path, capsys, diverged, code):
    # One cell of 100 runs: a single diverged run is 1 %, which reaches the
    # failure budget.
    config = ExperimentConfig(orders=[2], n_train=[8], runs=100)
    rows = [[2, run, 7] for run in range(diverged)]
    assert cli._finish(config, tmp_path, ["order", "run", "step"], rows) == code
    assert len((tmp_path / "failures.csv").read_text().splitlines()) == 1 + diverged
    assert capsys.readouterr().err == ("error: 1/100 runs diverged\n" if diverged else "")


class TestParserBuiltOnce:
    def test_main_reuses_one_parser(self, tmp_path):
        assert build_parser() is not build_parser()
        assert main(["params", "--order", "2"]) == 0
        parser = cli._parser()
        argv = ["collapse", "--t-points", "3", "--out", str(tmp_path / "c.csv")]
        assert main(argv) == 0
        assert cli._parser() is parser

    def test_commands_leave_the_shared_defaults_alone(self, tmp_path):
        commands = {
            "filter": ["--omega-points", "3"],
            "collapse": ["--t-points", "3"],
            "theorem1-check": ["--steps", "400"],
        }

        def defaults():
            return {cmd: vars(cli._parser().parse_args([cmd])) for cmd in commands}

        before = defaults()
        for cmd, flags in commands.items():
            assert main([cmd, *flags, "--out", str(tmp_path / f"{cmd}.csv")]) == 0
        assert defaults() == before
        assert before["collapse"]["orders"] == [1, 2, 3, 4]
        forcings = ["sin:3", "cos:2", "exp:1", "sinexp:5", "const:1"]
        assert before["theorem1-check"]["forcings"] == forcings

    def test_a_rebound_command_runs(self, monkeypatch):
        # A tracer wraps cli.cmd_* after the parser may have been built.
        assert main(["params", "--order", "2"]) == 0
        seen = []
        stub = lambda args: seen.append(args.order) or 0  # noqa: E731
        monkeypatch.setattr(cli, "cmd_params", stub)
        assert main(["params", "--order", "3"]) == 0
        assert seen == [3]

    def test_a_command_wrapped_before_the_first_parse_runs(self, monkeypatch):
        # The tracer's wrappers are all named ``traced``; one bound before the
        # parser is built must neither be looked up by its own name nor stick.
        cli._parser.cache_clear()
        seen = []
        original = cli.cmd_params

        def traced(args):
            seen.append(args.order)
            return original(args)

        traced.__wrapped__ = original
        monkeypatch.setattr(cli, "cmd_params", traced)
        assert main(["params", "--order", "2"]) == 0
        monkeypatch.undo()
        assert main(["params", "--order", "3"]) == 0
        assert seen == [2]
