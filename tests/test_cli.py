"""End-to-end tests for the command line interface.

Every test drives ``tripcast.cli.main`` in process with an argv list, so
exit codes, stderr messages, and emitted artifacts are all checked against
the real dispatch path.  A module-scoped workspace runs ``datagen`` and one
tiny ``train`` once and shares the outputs across the read-only tests.
"""

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tripcast.cli
import tripcast.training
from tripcast.cli import main
from tripcast.config import (SECTIONS, SEED_DATA, RunConfig, fan_seed,
                             load_config)
from tripcast.models import ModelSpec, build, save_checkpoint
from tripcast.pipeline import DEFAULT_SCHEMA
from tripcast.serialize import read_container, write_container
from tripcast.training import GridCell


def base_config() -> dict:
    """A deliberately tiny run: seconds, not minutes, per train call."""
    return {
        "seed": 7,
        "data": {
            "n_trips": 6,
            "trip_length": 600,
            "sample_period_s": 0.5,
            "target_period_s": 2.0,
            "savgol_window": 9,
            "savgol_order": 2,
            "window": 6,
            "horizon": 3,
            "train_n": 120,
            "val_n": 30,
            "test_n": 30,
        },
        "model": {
            "kind": "lstm",
            "d_model": 16,
            "n_heads": 2,
            "enc_layers": 1,
            "dec_layers": 1,
            "ffn_width": 16,
            "lstm_layers": 1,
        },
        "train": {"epochs": 2, "batch_size": 32},
    }


def write_config(path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: one datagen dir and one finished train run."""
    root = tmp_path_factory.mktemp("cli_ws")
    cfg_path = write_config(root / "config.json", base_config())
    gen = root / "gen"
    assert main(["datagen", "--config", cfg_path, "--out", str(gen)]) == 0
    run = root / "run"
    assert main(["train", "--config", cfg_path, "--out", str(run)]) == 0
    return {"root": root, "config": cfg_path, "gen": gen, "run": run}


# ----------------------------------------------------------------- datagen

class TestDatagen:
    def test_manifest_matches_files(self, ws):
        gen = ws["gen"]
        manifest = json.loads((gen / "manifest.json").read_text())
        # the manifest records the derived data-stage seed, not the root
        assert manifest["seed"] == fan_seed(7, SEED_DATA)
        assert manifest["n_trips"] == 6
        assert manifest["trip_length"] == 600
        assert len(manifest["trips"]) == 6
        for entry in manifest["trips"]:
            f = gen / entry["file"]
            assert f.is_file()
            assert entry["length"] == 600
            with open(f) as fh:
                n_rows = sum(1 for _ in fh) - 1  # header
            assert n_rows == 600

    def test_echoes_config_and_meta(self, ws):
        gen = ws["gen"]
        echoed = json.loads((gen / "config.json").read_text())
        assert echoed["seed"] == 7
        # derived per-stage seeds are materialized in the echo
        assert isinstance(echoed["data"]["seed"], int)
        assert isinstance(echoed["train"]["seed"], int)
        meta = json.loads((gen / "meta.json").read_text())
        assert meta["command"] == "datagen"
        assert meta["seconds"] > 0

    def test_deterministic_output(self, ws, tmp_path):
        again = tmp_path / "gen2"
        rc = main(["datagen", "--config", ws["config"], "--out", str(again)])
        assert rc == 0
        assert ((again / "manifest.json").read_bytes()
                == (ws["gen"] / "manifest.json").read_bytes())
        for entry in json.loads((again / "manifest.json").read_text())["trips"]:
            assert ((again / entry["file"]).read_bytes()
                    == (ws["gen"] / entry["file"]).read_bytes())


# ------------------------------------------------------------------- train

class TestTrain:
    def test_artifacts_exist(self, ws):
        run = ws["run"]
        for name in ("checkpoint.ckpt", "report.json", "epochs.csv",
                     "config.json", "meta.json"):
            assert (run / name).is_file(), name
        # every output was renamed into place; no temporary file is left
        assert not [p.name for p in run.iterdir() if p.name.startswith(".")]

    def test_report_structure(self, ws):
        report = json.loads((ws["run"] / "report.json").read_text())
        assert report["model"]["kind"] == "lstm"
        assert report["param_count"] > 0
        for split in ("train", "validation", "test"):
            block = report["splits"][split]
            assert block["split"] == split
            assert block["n_samples"] > 0
            assert block["mse"] >= 0
            assert "r2_pooled" in block
            assert set(block["r2_per_target"]) == {"soc", "batt_temp"}
            # timing lives in meta.json, never in the deterministic report
            assert "wall_clock_seconds" not in block
        assert report["training"]["epochs_run"] == 2
        assert report["training"]["stop_reason"]

    def test_checkpoint_schema_is_json_lists(self, ws):
        _, meta, _ = read_container(ws["run"] / "checkpoint.ckpt")
        assert meta["extra"]["schema"] == {
            "input_channels": list(DEFAULT_SCHEMA.input_channels),
            "target_channels": list(DEFAULT_SCHEMA.target_channels),
            "aggregations": [[out, list(members)] for out, members
                             in DEFAULT_SCHEMA.aggregations],
        }

    def test_epochs_csv_layout(self, ws):
        with open(ws["run"] / "epochs.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_loss", "seconds"]
        assert len(rows) - 1 == 2
        # the csv module's line terminator is written untranslated
        raw = (ws["run"] / "epochs.csv").read_bytes()
        assert raw.count(b"\r\n") == 3 and raw.endswith(b"\r\n")
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i
            float(row[1]), float(row[2]), float(row[3])

    def test_meta_holds_timing(self, ws):
        meta = json.loads((ws["run"] / "meta.json").read_text())
        assert meta["command"] == "train"
        assert set(meta["eval_seconds"]) == {"train", "validation", "test"}

    def test_rerun_bit_identical(self, ws, tmp_path):
        run2 = tmp_path / "run2"
        rc = main(["train", "--config", ws["config"], "--out", str(run2)])
        assert rc == 0
        assert ((run2 / "checkpoint.ckpt").read_bytes()
                == (ws["run"] / "checkpoint.ckpt").read_bytes())
        assert ((run2 / "report.json").read_bytes()
                == (ws["run"] / "report.json").read_bytes())
        # epoch losses match; only the timing column may differ
        for a, b in zip((ws["run"] / "epochs.csv").read_text().splitlines(),
                        (run2 / "epochs.csv").read_text().splitlines()):
            assert a.split(",")[:3] == b.split(",")[:3]

    def test_echoed_config_reproduces_run(self, ws, tmp_path):
        """The config.json echo is a complete recipe for the same run."""
        run3 = tmp_path / "run3"
        rc = main(["train", "--config", str(ws["run"] / "config.json"),
                   "--out", str(run3)])
        assert rc == 0
        assert ((run3 / "checkpoint.ckpt").read_bytes()
                == (ws["run"] / "checkpoint.ckpt").read_bytes())

    def test_csv_reingest_matches_synth(self, ws, tmp_path):
        """Training from the datagen CSVs reproduces the synth-source run."""
        run4 = tmp_path / "run4"
        rc = main([
            "train", "--config", ws["config"],
            "-O", "data.source=csv",
            "-O", f"data.trips_path={ws['gen'] / 'trips'}",
            "--out", str(run4),
        ])
        assert rc == 0
        got = json.loads((run4 / "report.json").read_text())
        want = json.loads((ws["run"] / "report.json").read_text())
        assert got["splits"] == want["splits"]


# ------------------------------------------------------- config validation

CONFIG_KEYS = [f.name for f in fields(RunConfig)] + [
    f"{section}.{f.name}" for section, cls in SECTIONS.items()
    for f in fields(cls)]


def _key_as_named(key: str) -> str:
    """How an ``invalid config`` message names ``key``."""
    section, _, name = key.rpartition(".")
    if key in SECTIONS:
        return f"config section {key!r}"
    if not section:                 # a root setting
        return f"{key} must"
    if section == "model":          # checked through ModelSpec
        return f"model: ModelSpec.{name}"
    return key


class TestValidation:
    def test_unknown_keys_reported_together(self, tmp_path, capsys):
        cfg = base_config()
        cfg["bogus"] = 1
        cfg["data"]["nope"] = 2
        path = write_config(tmp_path / "bad.json", cfg)
        rc = main(["train", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown config key(s)" in err
        assert "bogus" in err and "data.nope" in err

    def test_invalid_model_kind(self, tmp_path, capsys):
        cfg = base_config()
        path = write_config(tmp_path / "c.json", cfg)
        rc = main(["train", "--config", path, "-O", "model.kind=transformer",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "transformer" in err
        assert "v_tst" in err  # allowed kinds are listed

    def test_unscorable_split_refused_before_training(self, tmp_path, capsys):
        # one test window at horizon 1 is one point per target; R² needs two
        path = write_config(tmp_path / "c.json", base_config())
        out = tmp_path / "o"
        rc = main(["train", "--config", path, "-O", "data.horizon=1",
                   "-O", "data.test_n=1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "data.test_n" in err and "data.horizon" in err
        assert not (out / "epochs.csv").exists()

    def test_schema_missing_a_key(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", base_config())
        rc = main(["train", "--config", path,
                   "-O", 'data.schema={"input_channels": ["soc"]}',
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert ("data.schema is not a valid schema: 'target_channels'"
                in capsys.readouterr().err)

    def test_csv_source_requires_trips_path(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", base_config())
        rc = main(["train", "--config", path, "-O", "data.source=csv",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "data.trips_path" in capsys.readouterr().err

    def test_csv_source_without_csv_files(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        path = write_config(tmp_path / "c.json", base_config())
        rc = main(["train", "--config", path, "-O", "data.source=csv",
                   "-O", f"data.trips_path={empty}",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert (f"{empty}: no .csv trip files found"
                in capsys.readouterr().err)

    def test_csv_trip_not_utf8(self, ws, tmp_path, capsys):
        trips = shutil.copytree(ws["gen"] / "trips", tmp_path / "trips")
        bad = trips / "synth-002.csv"
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        path = write_config(tmp_path / "c.json", base_config())
        rc = main(["train", "--config", path, "-O", "data.source=csv",
                   "-O", f"data.trips_path={trips}",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert (f"error: {bad}: not UTF-8 text"
                in capsys.readouterr().err)

    def test_csv_trip_file_cannot_be_read(self, ws, tmp_path, capsys):
        trips = shutil.copytree(ws["gen"] / "trips", tmp_path / "trips")
        bad = trips / "x.csv"
        bad.mkdir()
        path = write_config(tmp_path / "c.json", base_config())
        rc = main(["train", "--config", path, "-O", "data.source=csv",
                   "-O", f"data.trips_path={trips}",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: cannot read trip file: Is a directory\n")

    @pytest.mark.parametrize("command", ["train", "grid", "predict"])
    def test_csv_cell_beyond_magnitude_bound(self, ws, tmp_path, capsys,
                                             command):
        trips = shutil.copytree(ws["gen"] / "trips", tmp_path / "trips")
        bad = trips / "synth-002.csv"
        rows = bad.read_bytes().decode("utf-8").split("\r\n")
        cells = rows[2].split(",")
        cells[rows[0].split(",").index("velocity")] = "1e308"
        rows[2] = ",".join(cells)
        bad.write_bytes("\r\n".join(rows).encode("utf-8"))
        if command == "predict":
            argv = ["predict", "--checkpoint",
                    str(ws["run"] / "checkpoint.ckpt"), "--trip", str(bad),
                    "--start", "20"]
        else:
            argv = [command, "--config", write_config(tmp_path / "c.json",
                                                      base_config()),
                    "-O", "data.source=csv", "-O", f"data.trips_path={trips}",
                    "-O", 'grid.kinds=["lstm"]', "-O", "grid.cases=[[6,3]]"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: out-of-range value 1e+308 (|v| > 1e+150) in "
            "column 'velocity' at data row 3\n")

    def test_csv_trip_too_short(self, ws, tmp_path, capsys):
        trips = shutil.copytree(ws["gen"] / "trips", tmp_path / "trips")
        lines = (trips / "synth-000.csv").read_bytes().splitlines(True)
        (trips / "stub.csv").write_bytes(b"".join(lines[:4]))
        path = write_config(tmp_path / "c.json", base_config())
        rc = main(["train", "--config", path, "-O", "data.source=csv",
                   "-O", f"data.trips_path={trips}",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert ("error: trip 'stub': savgol window_len 9 exceeds series "
                "length 3" in capsys.readouterr().err)

    def test_override_into_a_value(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", base_config())
        rc = main(["train", "--config", path, "-O", "seed.x=1",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert ("override 'seed.x=1': 'seed' is not a section"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("content, message", [
        (b"{not json", "not valid JSON"),
        (b'{"seed": "\xff"}', "not UTF-8 text"),
    ])
    def test_malformed_config_file(self, tmp_path, capsys, content, message):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        rc = main(["train", "--config", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"error: {path}: {message}" in capsys.readouterr().err

    def test_config_root_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        rc = main(["train", "--config", str(path), "-O", "seed=1",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (f"error: {path}: config root must be an object, "
                       "got list\n")
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        rc = main(["train", "--config", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}: config file not found\n")
        assert not (tmp_path / "o").exists()

    def test_non_positive_window_reported_once(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", base_config())
        rc = main(["train", "--config", path, "-O", "data.window=-3",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: invalid config: data.window must be a positive integer, "
            "got -3\n")

    @pytest.mark.parametrize("override, message", [
        ("data.n_trips=true", "invalid config: data.n_trips must be a "
         "positive integer, got True"),
        ("model.d_model=true", "invalid config: model: ModelSpec.d_model "
         "must be a positive integer, got True"),
        ("train.epochs=abc", "invalid config: train.epochs must be a "
         "positive integer, got 'abc'"),
        ("grid.cases=[[12,true]]", "invalid config: grid.cases entry "
         "[12, True] must be a [window, horizon] pair of positive integers"),
    ])
    def test_bool_or_non_number_size(self, tmp_path, capsys, override,
                                     message):
        path = write_config(tmp_path / "c.json", base_config())
        rc = main(["train", "--config", path, "-O", override,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("override, message", [
        ("data.seed=abc", "data.seed must be a non-negative integer, "
         "got 'abc'"),
        ("train.seed=abc", "train.seed must be a non-negative integer, "
         "got 'abc'"),
        ("train.seed=-1", "train.seed must be a non-negative integer, got -1"),
        ("seed=abc", "seed must be a non-negative integer, got 'abc'"),
        ("seed=true", "seed must be a non-negative integer, got True"),
    ])
    def test_bad_seed_or_betas(self, tmp_path, capsys, override, message):
        path = write_config(tmp_path / "c.json", base_config())
        rc = main(["train", "--config", path, "-O", override,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: invalid config: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_every_key_refuses_a_bool(self, tmp_path, capsys, key):
        path = write_config(tmp_path / "c.json", base_config())
        rc = main(["train", "--config", path, "-O", f"{key}=true",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ")
        assert _key_as_named(key) in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "datagen"])
    @pytest.mark.parametrize("override, message", [
        ("data.sample_period_s=0",
         "data.sample_period_s must be a positive number, got 0"),
        ("data.target_period_s=abc",
         "data.target_period_s must be a positive number, got 'abc'"),
        ("data.sample_period_s=0.3",
         "data.sample_period_s, data.target_period_s: target period 2.0 s "
         "is not an integer multiple of the source period 0.3 s"),
        ("data.savgol_window=4",
         "data.savgol_window, data.savgol_order: savgol window_len must be "
         "odd, got 4"),
        ("data.savgol_order=-1",
         "data.savgol_window, data.savgol_order: savgol poly_order -1 must "
         "be ≥ 0 and smaller than window_len 9"),
        ("data.noise_std=-1",
         "data.noise_std must be a non-negative number, got -1"),
    ])
    def test_pipeline_setting_refused_before_data_work(
            self, tmp_path, capsys, monkeypatch, command, override, message):
        def no_data_work(*args, **kwargs):
            raise AssertionError("synthesize_trips called")

        monkeypatch.setattr(tripcast.cli, "synthesize_trips", no_data_work)
        path = write_config(tmp_path / "c.json", base_config())
        rc = main([command, "--config", path, "-O", override,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: invalid config: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_odd_d_model_refused_before_data_work(self, tmp_path, capsys,
                                                  monkeypatch):
        def no_data_work(*args, **kwargs):
            raise AssertionError("synthesize_trips called")

        monkeypatch.setattr(tripcast.cli, "synthesize_trips", no_data_work)
        path = write_config(tmp_path / "c.json", base_config())
        rc = main(["train", "--config", path, "-O", "model.kind=v_tst",
                   "-O", "model.d_model=9", "-O", "model.n_heads=1",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: invalid config: model: ModelSpec.d_model must be even "
            "for the sin/cos position tables of kind 'v_tst', got 9\n")
        assert not (tmp_path / "o").exists()

    def test_grid_kind_refused_before_data_work(self, tmp_path, capsys,
                                                monkeypatch):
        def no_data_work(*args, **kwargs):
            raise AssertionError("synthesize_trips called")

        monkeypatch.setattr(tripcast.cli, "synthesize_trips", no_data_work)
        overrides = ["-O", "model.d_model=9", "-O", "model.n_heads=1",
                     "-O", 'grid.kinds=["lstm","v_tst"]']
        path = write_config(tmp_path / "c.json", base_config())
        # train runs no grid, so the config itself may name the kind
        assert load_config(path, overrides[1::2]).grid.kinds == [
            "lstm", "v_tst"]
        rc = main(["grid", "--config", path, *overrides,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: invalid config: grid.kinds entry 'v_tst': ModelSpec."
            "d_model must be even for the sin/cos position tables of kind "
            "'v_tst', got 9\n")
        assert not (tmp_path / "o" / "grid_report.json").exists()

    @pytest.mark.parametrize("override, message", [
        ("grid.kinds=[]", "grid.kinds must not be empty"),
        ("grid.cases=[]", "grid.cases must not be empty"),
        # named once however often it repeats
        ('grid.kinds=["lstm","lstm","lstm"]',
         "grid.kinds entry 'lstm' is repeated"),
        ("grid.cases=[[6,3],[4,3],[6,3],[6,3]]",
         "grid.cases entry [6, 3] is repeated"),
    ])
    def test_empty_or_repeated_grid_entry_refused_before_data_work(
            self, tmp_path, capsys, monkeypatch, override, message):
        def no_data_work(*args, **kwargs):
            raise AssertionError("synthesize_trips called")

        monkeypatch.setattr(tripcast.cli, "synthesize_trips", no_data_work)
        path = write_config(tmp_path / "c.json", base_config())
        rc = main(["grid", "--config", path, "-O", override,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: invalid config: {message}\n")
        assert not (tmp_path / "o").exists()

    def test_removed_optimizer_keys_refused(self, tmp_path, capsys):
        cfg = base_config()
        cfg["train"].update(optimizer="adam", betas=[0.9, 0.999],
                            epsilon=1e-8)
        path = write_config(tmp_path / "c.json", cfg)
        rc = main(["train", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: unknown config key(s): train.betas, train.epsilon, "
            "train.optimizer\n")

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path}: cannot read config file: Is a directory\n")
        assert not (tmp_path / "o").exists()

    def test_malformed_override(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", base_config())
        rc = main(["train", "--config", path, "-O", "data.window",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "is not of the form key=value" in capsys.readouterr().err


# -------------------------------------------------------------------- grid

class TestGrid:
    def test_single_cell_grid(self, ws, tmp_path):
        out = tmp_path / "grid"
        rc = main([
            "grid", "--config", ws["config"],
            "-O", 'grid.kinds=["lstm"]',
            "-O", "grid.cases=[[6,3]]",
            "-O", "train.epochs=1",
            "--out", str(out),
        ])
        assert rc == 0
        report = json.loads((out / "grid_report.json").read_text())
        assert report["kinds"] == ["lstm"]
        assert report["cases"] == [[6, 3]]
        [cell] = report["cells"]
        assert cell["status"] == "ok"
        assert cell["test_mse"] >= 0
        # every GridCell field but the timing, which is meta-only
        assert set(cell) == {f.name for f in fields(GridCell)} - {"seconds"}
        table = (out / "grid_table.txt").read_text()
        assert "Case W=6, H=3" in table
        assert not [p.name for p in out.iterdir() if p.name.startswith(".")]
        assert "lstm" in table
        meta = json.loads((out / "meta.json").read_text())
        assert "lstm@W6H3" in meta["cell_seconds"]

    def test_all_cells_failed_exit_code(self, ws, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(tripcast.training, "train", boom)
        rc = main([
            "grid", "--config", ws["config"],
            "-O", 'grid.kinds=["lstm"]',
            "-O", "grid.cases=[[6,3]]",
            "--out", str(tmp_path / "grid"),
        ])
        assert rc == 3
        report = json.loads(
            (tmp_path / "grid" / "grid_report.json").read_text())
        assert report["cells"][0]["status"] == "failed"
        assert "boom" in report["cells"][0]["error"]
        meta = json.loads((tmp_path / "grid" / "meta.json").read_text())
        assert set(meta) == {"command", "started", "finished", "seconds",
                             "cell_seconds"}
        assert set(meta["cell_seconds"]) == {"lstm@W6H3"}


# ----------------------------------------------------------------- predict

class TestPredict:
    def test_forecast_csv(self, ws, tmp_path):
        out = tmp_path / "forecast.csv"
        rc = main([
            "predict", "--checkpoint", str(ws["run"] / "checkpoint.ckpt"),
            "--trip", str(ws["gen"] / "trips" / "synth-000.csv"),
            "--start", "20", "--out", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "time_s", "role", "soc_pct", "batt_temp_C"]
        body = rows[1:]
        assert len(body) == 6 + 3  # window observed + horizon forecast
        assert out.read_bytes().count(b"\r\n") == 1 + 9
        assert [r[2] for r in body] == ["observed"] * 6 + ["forecast"] * 3
        assert [int(r[0]) for r in body] == list(range(14, 23))
        for r in body:
            # resampled to 2 s steps; all values parse as finite floats
            assert float(r[1]) == int(r[0]) * 2.0
            assert all(abs(float(v)) < 1e6 for v in r[3:])

    def test_insufficient_history(self, ws, tmp_path, capsys):
        rc = main([
            "predict", "--checkpoint", str(ws["run"] / "checkpoint.ckpt"),
            "--trip", str(ws["gen"] / "trips" / "synth-000.csv"),
            "--start", "2", "--out", str(tmp_path / "f.csv"),
        ])
        assert rc == 1
        assert "insufficient history" in capsys.readouterr().err

    def test_start_beyond_trip(self, ws, tmp_path, capsys):
        rc = main([
            "predict", "--checkpoint", str(ws["run"] / "checkpoint.ckpt"),
            "--trip", str(ws["gen"] / "trips" / "synth-000.csv"),
            "--start", "10000", "--out", str(tmp_path / "f.csv"),
        ])
        assert rc == 1
        assert "beyond the trip" in capsys.readouterr().err

    def test_missing_checkpoint(self, ws, tmp_path, capsys):
        rc = main([
            "predict", "--checkpoint", str(tmp_path / "nope.ckpt"),
            "--trip", str(ws["gen"] / "trips" / "synth-000.csv"),
            "--start", "20", "--out", str(tmp_path / "f.csv"),
        ])
        assert rc == 1
        assert "checkpoint not found" in capsys.readouterr().err

    def test_missing_trip(self, ws, tmp_path, capsys):
        rc = main([
            "predict", "--checkpoint", str(ws["run"] / "checkpoint.ckpt"),
            "--trip", str(tmp_path / "nope.csv"),
            "--start", "20", "--out", str(tmp_path / "f.csv"),
        ])
        assert rc == 1
        assert "trip CSV not found" in capsys.readouterr().err

    def test_trip_too_short(self, ws, tmp_path, capsys):
        lines = (ws["gen"] / "trips" / "synth-000.csv").read_bytes() \
            .splitlines(True)
        trip = tmp_path / "stub.csv"
        trip.write_bytes(b"".join(lines[:4]))
        rc = main([
            "predict", "--checkpoint", str(ws["run"] / "checkpoint.ckpt"),
            "--trip", str(trip), "--start", "20",
            "--out", str(tmp_path / "f.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {trip}: trip 'stub': savgol window_len 9 exceeds")
        assert not (tmp_path / "f.csv").exists()

    def test_checkpoint_with_unknown_spec_key(self, ws, tmp_path, capsys):
        kind, meta, arrays = read_container(ws["run"] / "checkpoint.ckpt")
        meta["spec"]["dropout"] = 0.5
        path = tmp_path / "extra.ckpt"
        write_container(path, kind, meta, list(arrays.items()))
        rc = main([
            "predict", "--checkpoint", str(path),
            "--trip", str(ws["gen"] / "trips" / "synth-000.csv"),
            "--start", "20", "--out", str(tmp_path / "f.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: bad model spec: ")
        assert "dropout" in err
        assert not (tmp_path / "f.csv").exists()

    def test_truncated_checkpoint(self, ws, tmp_path, capsys):
        path = tmp_path / "short.ckpt"
        path.write_bytes((ws["run"] / "checkpoint.ckpt").read_bytes()[:12])
        rc = main([
            "predict", "--checkpoint", str(path),
            "--trip", str(ws["gen"] / "trips" / "synth-000.csv"),
            "--start", "20", "--out", str(tmp_path / "f.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_checkpoint_with_per_gate_names(self, ws, tmp_path, capsys):
        # the layout before LSTM gates were fused: lstm.layer.0.w_i, ...
        kind, meta, arrays = read_container(ws["run"] / "checkpoint.ckpt")
        old = []
        for name, arr in arrays.items():
            if name.rsplit(".", 1)[1] in ("w", "u", "b"):
                old += [(f"{name}_{g}", part)
                        for g, part in zip("ifog", np.split(arr, 4, axis=-1))]
            else:
                old.append((name, arr))
        assert len(old) > len(arrays)
        path = tmp_path / "old.ckpt"
        write_container(path, kind, meta, old)
        rc = main([
            "predict", "--checkpoint", str(path),
            "--trip", str(ws["gen"] / "trips" / "synth-000.csv"),
            "--start", "20", "--out", str(tmp_path / "f.csv"),
        ])
        assert rc == 1
        assert (f"error: {path}: checkpoint parameters do not match spec"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("extras", ["none", "no_norm", "no_spec"])
    def test_checkpoint_without_training_data(self, ws, tmp_path, capsys,
                                              extras):
        # a library-written checkpoint lacks what ``train`` stores with it
        spec = ModelSpec(kind="lstm", window=6, horizon=3, n_features=5,
                         n_targets=2, d_model=8, n_heads=2, lstm_layers=1)
        path = tmp_path / "bare.ckpt"
        save_checkpoint(build(spec, seed=0), path)
        if extras != "none":
            kind, meta, arrays = read_container(ws["run"] / "checkpoint.ckpt")
            if extras == "no_norm":
                arrays = {n: a for n, a in arrays.items()
                          if not n.startswith("extra.norm.")}
            else:
                del meta["spec"]
            write_container(path, kind, meta, list(arrays.items()))
        rc = main([
            "predict", "--checkpoint", str(path),
            "--trip", str(ws["gen"] / "trips" / "synth-000.csv"),
            "--start", "20", "--out", str(tmp_path / "f.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("sample_period_s", 0,
         "data.sample_period_s must be a positive number, got 0"),
        ("sample_period_s", "x",
         "data.sample_period_s must be a positive number, got 'x'"),
        ("savgol_window", 8,
         "data.savgol_window, data.savgol_order: savgol window_len must be "
         "odd, got 8"),
    ])
    def test_checkpoint_with_bad_pipeline_setting(self, ws, tmp_path, capsys,
                                                  key, value, message):
        kind, meta, arrays = read_container(ws["run"] / "checkpoint.ckpt")
        meta["extra"]["pipeline"][key] = value
        path = tmp_path / "recipe.ckpt"
        write_container(path, kind, meta, list(arrays.items()))
        rc = main([
            "predict", "--checkpoint", str(path),
            "--trip", str(ws["gen"] / "trips" / "synth-000.csv"),
            "--start", "20", "--out", str(tmp_path / "f.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "f.csv").exists()

    def test_checkpoint_with_wrongly_shaped_weight(self, ws, tmp_path,
                                                   capsys):
        kind, meta, arrays = read_container(ws["run"] / "checkpoint.ckpt")
        arrays["param.head.weight"] = arrays["param.head.weight"].T
        path = tmp_path / "shape.ckpt"
        write_container(path, kind, meta, list(arrays.items()))
        rc = main([
            "predict", "--checkpoint", str(path),
            "--trip", str(ws["gen"] / "trips" / "synth-000.csv"),
            "--start", "20", "--out", str(tmp_path / "f.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}: shape mismatch for head.weight")
        assert not (tmp_path / "f.csv").exists()

    def test_checkpoint_with_non_finite_weight(self, ws, tmp_path, capsys):
        kind, meta, arrays = read_container(ws["run"] / "checkpoint.ckpt")
        name = next(n for n in arrays if n.startswith("param."))
        arrays[name].reshape(-1)[0] = np.nan
        path = tmp_path / "nan.ckpt"
        write_container(path, kind, meta, list(arrays.items()))
        rc = main([
            "predict", "--checkpoint", str(path),
            "--trip", str(ws["gen"] / "trips" / "synth-000.csv"),
            "--start", "20", "--out", str(tmp_path / "f.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {path}: parameter {name[len('param.'):]} holds non-finite")
        assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("command, extra", [
    ("datagen", set()),
    ("train", {"eval_seconds"}),
    ("grid", {"cell_seconds"}),
])
def test_run_record(ws, tmp_path, monkeypatch, command, extra):
    argv = [command, "--config", ws["config"], "-O", "train.epochs=1",
            "-O", 'grid.kinds=["lstm"]', "-O", "grid.cases=[[6,3]]"]
    assert main([*argv, "--out", str(tmp_path / "ok")]) == 0
    meta = json.loads((tmp_path / "ok" / "meta.json").read_text())
    assert set(meta) == {"command", "started", "finished", "seconds"} | extra
    assert meta["command"] == command
    assert meta["started"] <= meta["finished"] and meta["seconds"] > 0

    # a run that fails after loading its config leaves only the echo
    def no_trips(*args, **kwargs):
        raise RuntimeError("no trips")

    monkeypatch.setattr(tripcast.cli, "synthesize_trips", no_trips)
    assert main([*argv, "--out", str(tmp_path / "failed")]) == 2
    assert [p.name for p in (tmp_path / "failed").iterdir()] == [
        "config.json"]


def test_interrupted_training_leaves_previous_epochs_csv(ws, tmp_path,
                                                         monkeypatch):
    run = tmp_path / "run"
    run.mkdir()
    (run / "epochs.csv").write_text("previous\n")

    def one_epoch_then_fail(model, split, cfg, on_epoch):
        on_epoch(SimpleNamespace(epoch=0, train_loss=1.0, val_loss=1.0,
                                 seconds=0.1))
        raise RuntimeError("interrupted")

    monkeypatch.setattr(tripcast.cli, "train", one_epoch_then_fail)
    rc = main(["train", "--config", ws["config"], "--out", str(run)])
    assert rc == 2
    assert (run / "epochs.csv").read_text() == "previous\n"
    assert sorted(p.name for p in run.iterdir()) == ["config.json",
                                                     "epochs.csv"]


def test_failed_forecast_write_leaves_previous_file(ws, tmp_path,
                                                    monkeypatch):
    out = tmp_path / "forecast.csv"
    out.write_text("previous\n")

    def writer_failing_at_row_4(fh):
        inner = csv.writer(fh)
        rows = []

        def writerow(row):
            if len(rows) == 3:
                raise OSError("disk full")
            rows.append(row)
            inner.writerow(row)

        return SimpleNamespace(writerow=writerow)

    monkeypatch.setattr(tripcast.cli, "csv",
                        SimpleNamespace(writer=writer_failing_at_row_4))
    rc = main([
        "predict", "--checkpoint", str(ws["run"] / "checkpoint.ckpt"),
        "--trip", str(ws["gen"] / "trips" / "synth-000.csv"),
        "--start", "20", "--out", str(out),
    ])
    assert rc == 2
    assert out.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["forecast.csv"]


# --------------------------------------------------------------- gradcheck

class TestGradcheck:
    def test_clean_run_exit_0(self, capsys):
        rc = main(["gradcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "matmul" in out and "lstm_cell" in out

    def test_corrupted_backward_exit_2(self, capsys):
        rc = main(["gradcheck", "--corrupt-op", "mul"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "FAIL" in out

    # tanh lives only in the test oracles, so the audit has no rule for it
    @pytest.mark.parametrize("op", ["mull", "tanh"])
    def test_unknown_corrupt_op_exit_1(self, op, capsys):
        rc = main(["gradcheck", "--corrupt-op", op])
        assert rc == 1
        assert f"unknown op '{op}'" in capsys.readouterr().err


# ------------------------------------------------------------ entry points

def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "tripcast", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("datagen", "train", "grid", "predict", "gradcheck"):
        assert name in proc.stdout


# a CLI command in a child interpreter; the last line it prints is the pid
# of the worker process it used, or 0 where every stage ran inline
_CLI_CHILD = """
import sys
from tripcast import worker as W
from tripcast.cli import main
code = main(sys.argv[1:])
print(W._worker.process.pid if W._worker.process is not None else 0)
sys.exit(code)
"""

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _cli_child(argv, pinned: bool) -> int:
    """Run ``argv`` in a child interpreter, with BLAS at one thread or
    unset; returns the worker's pid, checked gone once the child exits."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["PYTHONPATH"] = str(Path(tripcast.cli.__file__).parent.parent)
    if pinned:
        env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run([sys.executable, "-c", _CLI_CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pid = int(proc.stdout.split()[-1])
    if pid:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    return pid


@pytest.mark.skipif(not hasattr(os, "memfd_create")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="the worker process needs Linux and two CPUs")
def test_datagen_and_predict_bytes_do_not_depend_on_the_worker(tmp_path):
    # trips of 1,200 samples: synthesis, CSV writing and parsing all pair;
    # with BLAS unpinned the gate keeps every stage inline
    cfg = base_config()
    cfg["data"].update(n_trips=3, trip_length=1200)
    config = write_config(tmp_path / "config.json", cfg)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", config,
                     "--out", str(tmp_path / "run")]) == 0
    outputs = {}
    for pinned in (True, False):
        gen, forecast = tmp_path / f"gen{pinned}", tmp_path / f"f{pinned}.csv"
        pids = [_cli_child(["datagen", "--config", config, "--out", str(gen)],
                           pinned),
                _cli_child(["predict", "--checkpoint",
                            str(tmp_path / "run" / "checkpoint.ckpt"),
                            "--trip", str(gen / "trips" / "synth-001.csv"),
                            "--start", "40", "--out", str(forecast)], pinned)]
        assert all(pids) if pinned else not any(pids)
        outputs[pinned] = [forecast.read_bytes(),
                           (gen / "manifest.json").read_bytes(),
                           *(p.read_bytes()
                             for p in sorted((gen / "trips").iterdir()))]
    assert len(outputs[True]) == 2 + 3
    assert outputs[True] == outputs[False]
