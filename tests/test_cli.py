"""End-to-end tests for the command line interface.

Every test drives ``tripcast.cli.main`` in process with an argv list, so
exit codes, stderr messages, and emitted artifacts are all checked against
the real dispatch path.  A module-scoped workspace runs ``datagen`` and one
tiny ``train`` once and shares the outputs across the read-only tests.
"""

import csv
import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import tripcast.cli
import tripcast.training
from tripcast.cli import _write_json, main
from tripcast.config import SEED_DATA, fan_seed
from tripcast.models import ModelSpec, build, save_checkpoint
from tripcast.serialize import read_container, write_container


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

    def test_override_into_a_value(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", base_config())
        rc = main(["train", "--config", path, "-O", "seed.x=1",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert ("override 'seed.x=1': 'seed' is not a section"
                in capsys.readouterr().err)

    def test_malformed_config_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["train", "--config", str(path),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

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
        assert "seconds" not in cell  # timing is meta-only
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


def test_failed_json_write_leaves_previous_file(tmp_path):
    path = tmp_path / "report.json"
    _write_json(path, {"a": 1})
    before = path.read_bytes()
    # json.dump streams: "a" is written before the unserializable value raises
    with pytest.raises(TypeError):
        _write_json(path, {"a": 2, "b": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


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

    def test_unknown_corrupt_op_exit_1(self, capsys):
        rc = main(["gradcheck", "--corrupt-op", "mull"])
        assert rc == 1
        assert "unknown op 'mull'" in capsys.readouterr().err


# ------------------------------------------------------------ entry points

def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "tripcast", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("datagen", "train", "grid", "predict", "gradcheck"):
        assert name in proc.stdout
