"""Configuration parsing tests: strict keys, overrides, dataset DSL."""

import json

import pytest

from holdlab.config import (
    ConfigError,
    config_from_dict,
    load_config,
    parse_dataset,
)
from holdlab.core import MAX_ORDER
from holdlab.datasets import CsvFileSpec, GaussianMixtureSpec, GridSpec, RingSpec
from holdlab.forward import FixedPerSample, Marginalized


class TestParseDataset:
    def test_dict_form(self):
        spec = parse_dataset({"kind": "gaussian_mixture", "k": 4, "spread": 2.5})
        assert spec == GaussianMixtureSpec(k=4, spread=2.5, dim=2)

    def test_string_dsl(self):
        assert parse_dataset("ring:radius=3,noise=0.1") == RingSpec(
            radius=3.0, noise=0.1
        )
        assert parse_dataset("grid:side=4,dim=3") == GridSpec(side=4, dim=3)
        assert parse_dataset("csv:path=/tmp/x.csv") == CsvFileSpec(path="/tmp/x.csv")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            parse_dataset("torus:radius=1")

    def test_unknown_field(self):
        with pytest.raises(ConfigError):
            parse_dataset({"kind": "ring", "radius": 1.0, "noise": 0.0, "warp": 2})

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_dataset("grid:side=two")


class TestConfigFromDict:
    def test_defaults(self):
        cfg = config_from_dict({})
        assert cfg.orders == [1, 2, 3]
        assert cfg.n_train == [8]
        assert cfg.tau == 0.333
        assert cfg.l_inv == 1.0
        assert cfg.grid.steps == 1000

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"stepz": 10})

    def test_orders_capped_at_max_order(self):
        assert config_from_dict({"orders": [1, MAX_ORDER]}).orders == [1, MAX_ORDER]
        with pytest.raises(ConfigError, match=str(MAX_ORDER)):
            config_from_dict({"orders": [2, MAX_ORDER + 1]})

    def test_unknown_grid_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"grid": {"steps": 10, "warp": 1}})

    def test_scalar_n_train_normalized(self):
        assert config_from_dict({"n_train": 16}).n_train == [16]
        assert config_from_dict({"n_train": [4, 8]}).n_train == [4, 8]

    @pytest.mark.parametrize(
        "doc",
        [
            {"runs": 2.7},
            {"runs": True},
            {"seed": 1.5},
            {"grid": {"steps": 5.9}},
            {"orders": [True]},
            {"orders": 2.0},
            {"n_train": [8, 16.0]},
            {"dataset": {"kind": "gaussian_mixture", "k": 4.0}},
            {"dataset": {"kind": "gaussian_mixture", "dim": 2.5}},
            {"dataset": {"kind": "ring", "radius": 1.0, "noise": 0.1, "dim": False}},
            {"dataset": {"kind": "grid", "side": 3.2}},
            {"dataset": {"kind": "grid", "side": 3, "dim": 1.0}},
        ],
    )
    def test_integer_fields_reject_floats_and_bools(self, doc):
        # int() would truncate 2.7 to 2 and read true as 1.
        with pytest.raises(ConfigError, match="want an integer"):
            config_from_dict(doc)

    def test_integer_fields_take_integer_strings(self):
        cfg = config_from_dict({"runs": "3", "seed": "2", "orders": "1, 2",
                                "grid": {"steps": "5"}})
        assert (cfg.runs, cfg.seed, cfg.orders, cfg.grid.steps) == (3, 2, [1, 2], 5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            config_from_dict({"runs": 0})
        with pytest.raises(ConfigError):
            config_from_dict({"tau": 1.5})
        with pytest.raises(ConfigError):
            config_from_dict({"orders": []})
        with pytest.raises(ConfigError):
            config_from_dict({"aux_policy": "sometimes"})
        with pytest.raises(ConfigError):
            config_from_dict({"grid": {"t_end": 0.0}})

    def test_bad_nested_value_is_config_error(self):
        with pytest.raises(ConfigError, match="steps"):
            config_from_dict({"grid": {"steps": "x"}})
        with pytest.raises(ConfigError, match="must be an object"):
            config_from_dict({"grid": 5})
        with pytest.raises(ConfigError, match="orders"):
            config_from_dict({"orders": 2.5})

    def test_policies(self):
        cfg = config_from_dict({"seed": 5, "aux_policy": "both"})
        names = [name for name, _ in cfg.policies()]
        assert names == ["fixed", "marginalized"]
        assert cfg.policies()[0][1] == FixedPerSample(seed=5)
        assert cfg.policies()[1][1] == Marginalized()

    @pytest.mark.parametrize("key", ["orders", "n_train"])
    @pytest.mark.parametrize("value", [[2, 2], "2, 3,2"])
    def test_repeated_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"bad value for {key}"):
            config_from_dict({key: value})


class TestLoadConfig:
    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"runs": 100, "seed": 1}))
        cfg = load_config(str(path), {"runs": 5, "grid.steps": 50})
        assert cfg.runs == 5
        assert cfg.seed == 1
        assert cfg.grid.steps == 50

    def test_none_overrides_ignored(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"runs": 7}))
        cfg = load_config(str(path), {"runs": None, "seed": None})
        assert cfg.runs == 7

    def test_grid_override_merges_with_file_grid(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": {"steps": 200, "spacing": "quadratic"}}))
        cfg = load_config(str(path), {"grid.t_end": 0.01})
        assert cfg.grid.steps == 200
        assert cfg.grid.spacing == "quadratic"
        assert cfg.grid.t_end == 0.01

    @pytest.mark.parametrize("key", ["grid.warp", "warp.steps", "stepz"])
    def test_unknown_override_rejected(self, key):
        with pytest.raises(ConfigError, match="unknown"):
            load_config(None, {key: 1})

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    def test_round_trip_dict(self):
        cfg = config_from_dict(
            {
                "orders": [2],
                "dataset": {"kind": "ring", "radius": 2.0, "noise": 0.1},
                "n_train": [4],
                "runs": 3,
                "seed": 9,
            }
        )
        doc = cfg.to_json_dict()
        again = config_from_dict(doc)
        assert again == cfg


class TestSvgPlot:
    def test_empty_series_rejected(self, tmp_path):
        from holdlab.svgplot import line_chart

        with pytest.raises(ValueError):
            line_chart({"a": []}, tmp_path / "x.svg", "t", "x", "y")

    def test_log_axes(self, tmp_path):
        from holdlab.svgplot import line_chart

        pts = [(10.0**k, 10.0 ** (-k)) for k in range(-2, 4)]
        out = tmp_path / "log.svg"
        line_chart({"curve": pts}, out, title="t", x_label="omega", y_label="gain")
        text = out.read_text()
        assert all(f">{label}</text>" in text for label in ("t", "omega", "gain"))
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert "polyline" in text
