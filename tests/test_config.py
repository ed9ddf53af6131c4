"""Run configuration: defaults, seed fan-out, validation, round trips."""

import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from tripcast.config import (
    DEFAULT_GRID_CASES,
    SEED_BUILD,
    SEED_DATA,
    SEED_TRAIN,
    DataConfig,
    ModelConfig,
    RunConfig,
    apply_overrides,
    config_from_dict,
    fan_seed,
    load_config,
)
from tripcast.models import KINDS, ModelSpec
from tripcast.serialize import write_json


class TestDefaults:
    def test_empty_dict_gives_full_defaults(self):
        cfg = config_from_dict({})
        assert cfg.seed == 0
        assert cfg.data.window == 12 and cfg.data.horizon == 6
        assert cfg.model.kind == "v_tst"
        assert cfg.model.d_model == 128 and cfg.model.n_heads == 8
        assert cfg.train.epochs == 200 and cfg.train.batch_size == 64
        assert tuple(cfg.grid.kinds) == KINDS
        assert tuple(tuple(c) for c in cfg.grid.cases) == DEFAULT_GRID_CASES

    def test_reference_grid_cases(self):
        assert DEFAULT_GRID_CASES == ((12, 6), (30, 6), (50, 30))

    def test_compose_spec_uses_schema_widths(self):
        cfg = config_from_dict({})
        spec = cfg.model.compose_spec(cfg.data)
        assert spec.n_features == 15
        assert spec.n_targets == 2
        assert (spec.window, spec.horizon) == (12, 6)

    def test_default_sections_compose_the_standard_spec(self):
        assert ModelConfig().compose_spec(DataConfig()) == ModelSpec(
            kind="v_tst")


class TestSeedFanOut:
    def test_fan_seed_deterministic_and_distinct(self):
        assert fan_seed(0, SEED_DATA) == fan_seed(0, SEED_DATA)
        tags = {fan_seed(7, t) for t in (SEED_DATA, SEED_TRAIN, SEED_BUILD)}
        assert len(tags) == 3

    def test_component_seeds_derived_from_root(self):
        cfg = config_from_dict({"seed": 11})
        assert cfg.data.seed == fan_seed(11, SEED_DATA)
        assert cfg.train.seed == fan_seed(11, SEED_TRAIN)

    def test_explicit_component_seed_wins(self):
        cfg = config_from_dict({"seed": 11, "data": {"seed": 5}})
        assert cfg.data.seed == 5
        assert cfg.train.seed == fan_seed(11, SEED_TRAIN)

    def test_different_roots_give_different_components(self):
        a = config_from_dict({"seed": 1})
        b = config_from_dict({"seed": 2})
        assert a.data.seed != b.data.seed


class TestUnknownKeys:
    def test_all_offenders_reported_at_once(self):
        with pytest.raises(ValueError) as err:
            config_from_dict({"nope": 1, "data": {"bogus": 2},
                              "train": {"wat": 3}})
        msg = str(err.value)
        assert "unknown config key(s)" in msg
        assert "nope" in msg and "data.bogus" in msg and "train.wat" in msg

    def test_non_dict_root_rejected(self):
        with pytest.raises(ValueError, match="object"):
            config_from_dict([1, 2])

    def test_non_dict_section_rejected(self):
        with pytest.raises(ValueError, match="section"):
            config_from_dict({"data": 5})


class TestValidation:
    def test_bad_kind_reported(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            config_from_dict({"model": {"kind": "gru"}})

    def test_bad_source_reported(self):
        with pytest.raises(ValueError, match="data.source"):
            config_from_dict({"data": {"source": "parquet"}})

    def test_csv_source_requires_path(self):
        with pytest.raises(ValueError, match="trips_path"):
            config_from_dict({"data": {"source": "csv"}})

    def test_train_section_validated(self):
        with pytest.raises(ValueError, match=re.escape(
                "invalid config: train.epochs must be a positive integer")):
            config_from_dict({"train": {"epochs": 0}})

    @pytest.mark.parametrize("raw, message", [
        ({"data": {"schema": {"input_channels": ["a"]}}},
         "data.schema is not a valid schema"),
        ({"data": {"train_n": 0}},
         "data.train_n must be a positive integer, got 0"),
        ({"data": {"window": -3}},
         "data.window must be a positive integer, got -3"),
        ({"data": {"split_mode": "by_day"}},
         "data.split_mode must be 'shuffle' or 'trip_holdout', "
         "got 'by_day'"),
        ({"grid": {"kinds": ["lstm", "gru"]}},
         "grid.kinds entry 'gru' unknown"),
        ({"grid": {"cases": [[12, 6], [12]]}},
         "grid.cases entry [12] must be a [window, horizon] pair"),
        ({"grid": {"cases": [[12, 0]]}},
         "grid.cases entry [12, 0] must be a [window, horizon] pair"),
        ({"grid": {"kinds": 5}}, "grid.kinds must be a list, got 5"),
        ({"grid": {"cases": 5}}, "grid.cases must be a list, got 5"),
        ({"grid": {"kinds": []}}, "grid.kinds must not be empty"),
        ({"grid": {"cases": []}}, "grid.cases must not be empty"),
        ({"grid": {"kinds": ["lstm", "v_tst", "lstm"]}},
         "grid.kinds entry 'lstm' is repeated"),
        ({"grid": {"cases": [[12, 6], [6, 3], [12, 6]]}},
         "grid.cases entry [12, 6] is repeated"),
        ({"data": {"trips_path": 5}}, "data.trips_path must be a string"),
        ({"output_dir": 5}, "output_dir must be a string, got 5"),
        ({"data": {"velocity_scale": -1}},
         "data.velocity_scale must be a non-negative number, got -1"),
        ({"data": {"target_period_s": float("inf")}},
         "data.target_period_s must be a positive number, got inf"),
        ({"data": {"horizon": 1, "train_n": 1, "test_n": 1}},
         "data.train_n, data.test_n = 1 with data.horizon = 1 leaves one "
         "point per target"),
    ])
    def test_data_and_grid_errors_reported(self, raw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_dict(raw)

    def test_single_window_portions_scoreable_beyond_horizon_1(self):
        # two horizon steps are two points per target; trip_holdout ignores
        # train_n and checks the portions it builds
        config_from_dict({"data": {"horizon": 2, "val_n": 1, "test_n": 1}})
        config_from_dict({"data": {"horizon": 1, "train_n": 1,
                                   "split_mode": "trip_holdout"}})

    @pytest.mark.parametrize("raw, message", [
        ({"data": {"window": -3}},
         "data.window must be a positive integer, got -3"),
        ({"data": {"horizon": 0}},
         "data.horizon must be a positive integer, got 0"),
        ({"data": {"schema": {"input_channels": [],
                              "target_channels": ["soc"],
                              "aggregations": []}}},
         "data.schema is not a valid schema: "
         "FeatureSchema.input_channels must not be empty"),
        ({"data": {"schema": {"input_channels": ["soc"],
                              "target_channels": [],
                              "aggregations": []}}},
         "data.schema is not a valid schema: "
         "FeatureSchema.target_channels must not be empty"),
    ])
    def test_data_problem_reported_once(self, raw, message):
        # the model section is checked with placeholder sizes, so a bad
        # data size or schema is not reported again as a ModelSpec error
        with pytest.raises(ValueError) as err:
            config_from_dict(raw)
        assert str(err.value) == "invalid config: " + message


class TestRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        cfg = config_from_dict({"seed": 3, "model": {"kind": "lstm"},
                                "train": {"epochs": 7},
                                "data": {"n_trips": 4}})
        path = tmp_path / "cfg.json"
        write_json(path, asdict(cfg))
        assert load_config(path) == cfg

    def test_echo_contains_derived_seeds(self, tmp_path):
        # the echoed file must materialize derived seeds so a rerun from the
        # echo reproduces the exact same randomness
        cfg = config_from_dict({"seed": 9})
        path = tmp_path / "cfg.json"
        write_json(path, asdict(cfg))
        raw = json.loads(path.read_text())
        assert raw["data"]["seed"] == fan_seed(9, SEED_DATA)
        assert raw["train"]["seed"] == fan_seed(9, SEED_TRAIN)

    def test_asdict_is_json_serializable(self):
        json.dumps(asdict(RunConfig()))

    def test_failed_save_leaves_previous_file(self, tmp_path):
        path = tmp_path / "config.json"
        cfg = config_from_dict({})
        write_json(path, asdict(cfg))
        before = path.read_bytes()
        # keys are sorted, so most of "data" is written before this raises
        cfg.data.schema = {"input_channels": object()}
        with pytest.raises(TypeError):
            write_json(path, asdict(cfg))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_invalid_json_file_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            load_config(p)


class TestOverrides:
    def test_load_config_applies_overrides_after_the_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3, "data": {"window": 8}}))
        cfg = load_config(path, ["data.window=30", "model.kind=lstm"])
        assert (cfg.seed, cfg.data.window, cfg.model.kind) == (3, 30, "lstm")

    def test_typed_values_parse_as_json(self):
        d = apply_overrides({}, ["data.window=30", "train.epochs=5",
                                 "model.kind=lstm"])
        assert d["data"]["window"] == 30
        assert d["train"]["epochs"] == 5
        assert d["model"]["kind"] == "lstm"  # bare word falls back to string

    def test_json_lists_supported(self):
        d = apply_overrides({}, ['grid.cases=[[2,1],[3,1]]'])
        assert d["grid"]["cases"] == [[2, 1], [3, 1]]

    def test_existing_values_overwritten(self):
        d = apply_overrides({"data": {"window": 12}}, ["data.window=50"])
        assert d["data"]["window"] == 50

    def test_malformed_override_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            apply_overrides({}, ["data.window"])

    def test_override_into_a_value_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "override 'data.window.x=1': 'window' is not a section")):
            apply_overrides({"data": {"window": 12}}, ["data.window.x=1"])

    def test_top_level_override(self):
        d = apply_overrides({}, ["seed=42"])
        assert d["seed"] == 42
