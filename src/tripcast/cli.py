"""Command-line entry point: datagen, train, grid, predict, gradcheck.

Every command reads an optional JSON config (defaults fill the gaps),
applies ``-O section.key=value`` overrides, and writes deterministic
primary outputs plus a separate ``meta.json`` holding timestamps and
durations. Exit codes: 0 success, 1 validation error, 2 runtime failure,
3 when every grid cell failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import RunConfig, SEED_BUILD, fan_seed
from .gradcheck import run_gradcheck
from .models import build, load_checkpoint, save_checkpoint
from .pipeline import (
    FeatureSchema,
    NormStats,
    load_trips,
    prepare_dataset,
    preprocess_trip,
    write_trip_csv,
)
from .synth import synthesize_trips
from .tensor import RECORDED_OPS, no_grad
from .training import evaluate, run_grid, train

log = logging.getLogger("tripcast")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_ALL_CELLS_FAILED = 3

# physical-unit column names for the default forecast targets
UNIT_COLUMNS = {"soc": "soc_pct", "batt_temp": "batt_temp_C"}

# what ``train`` stores with a checkpoint and ``predict`` reads back
PIPELINE_FIELDS = ("sample_period_s", "savgol_window", "savgol_order",
                   "target_period_s")
NORM_FIELDS = ("input_mean", "input_std", "target_mean", "target_std")


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_config(args) -> RunConfig:
    raw = {}
    if args.config:
        with open(args.config) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.config}: not valid JSON: {exc}") \
                    from None
    cfgmod.apply_overrides(raw, args.override or [])
    return cfgmod.config_from_dict(raw)


def _prepare_out(cfg: RunConfig, args) -> Path:
    out = Path(args.out) if getattr(args, "out", None) else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfgmod.save_config(cfg, out / "config.json")
    return out


def _get_trips(data) -> list:
    if data.source == "csv":
        return load_trips(data.trips_path, data.feature_schema(),
                          data.sample_period_s)
    return synthesize_trips(data.n_trips, data.trip_length, data.seed,
                            data.sample_period_s, data.noise_std,
                            data.velocity_scale)


def _build_split(cfg: RunConfig, trips, window: int, horizon: int):
    d = cfg.data
    return prepare_dataset(trips, d.feature_schema(), window, horizon,
                           d.savgol_window, d.savgol_order, d.target_period_s,
                           d.train_n, d.val_n, d.test_n, d.seed,
                           split_mode=d.split_mode)


# ---------------------------------------------------------------- commands

def cmd_datagen(args) -> int:
    started = _now_iso()
    tic = time.perf_counter()
    cfg = _resolve_config(args)
    out = _prepare_out(cfg, args)
    d = cfg.data
    trips = synthesize_trips(d.n_trips, d.trip_length, d.seed,
                             d.sample_period_s, d.noise_std, d.velocity_scale)
    trips_dir = out / "trips"
    trips_dir.mkdir(exist_ok=True)
    entries = []
    for trip in trips:
        fname = f"{trip.trip_id}.csv"
        write_trip_csv(trip, trips_dir / fname)
        entries.append({"trip_id": trip.trip_id, "file": f"trips/{fname}",
                        "length": trip.length})
    _write_json(out / "manifest.json", {
        "seed": d.seed,
        "n_trips": d.n_trips,
        "trip_length": d.trip_length,
        "sample_period_s": d.sample_period_s,
        "noise_std": d.noise_std,
        "velocity_scale": d.velocity_scale,
        "trips": entries,
    })
    _write_json(out / "meta.json", {
        "command": "datagen", "started": started, "finished": _now_iso(),
        "seconds": time.perf_counter() - tic,
    })
    print(f"wrote {len(trips)} trips to {trips_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    started = _now_iso()
    tic = time.perf_counter()
    cfg = _resolve_config(args)
    out = _prepare_out(cfg, args)
    schema = cfg.data.feature_schema()
    trips = _get_trips(cfg.data)
    split = _build_split(cfg, trips, cfg.data.window, cfg.data.horizon)
    spec = cfg.model.compose_spec(cfg.data)
    model = build(spec, seed=fan_seed(cfg.train.seed, SEED_BUILD))
    log.info("training %s: W=%d H=%d, %s parameters, %d train samples",
             spec.kind, spec.window, spec.horizon,
             f"{model.count_parameters():,}", len(split.train))

    with open(out / "epochs.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "seconds"])

        def on_epoch(entry):
            writer.writerow([entry.epoch, repr(entry.train_loss),
                             repr(entry.val_loss), f"{entry.seconds:.3f}"])
            fh.flush()
            log.info("epoch %d: train %.6f val %.6f (%.1fs)", entry.epoch,
                     entry.train_loss, entry.val_loss, entry.seconds)

        model, tlog = train(model, split, cfg.train, on_epoch=on_epoch)

    reports = {}
    eval_seconds = {}
    for name, portion in (("train", split.train),
                          ("validation", split.validation),
                          ("test", split.test)):
        rep = evaluate(model, portion, split.stats, schema.target_channels,
                       name, cfg.train.batch_size)
        reports[name] = rep.to_dict(include_timing=False)
        eval_seconds[name] = rep.wall_clock_seconds

    save_checkpoint(
        model, out / "checkpoint.ckpt",
        extra_meta={
            "schema": schema.to_dict(),
            "pipeline": {k: getattr(cfg.data, k) for k in PIPELINE_FIELDS},
        },
        extra_arrays={f"norm.{k}": getattr(split.stats, k)
                      for k in NORM_FIELDS},
    )
    _write_json(out / "report.json", {
        "model": spec.to_dict(),
        "param_count": model.count_parameters(),
        "splits": reports,
        "training": {
            "epochs_run": len(tlog.entries),
            "best_epoch": tlog.best_epoch,
            "best_val_loss": tlog.best_val_loss,
            "stop_reason": tlog.stop_reason,
        },
    })
    _write_json(out / "meta.json", {
        "command": "train", "started": started, "finished": _now_iso(),
        "seconds": time.perf_counter() - tic,
        "eval_seconds": eval_seconds,
    })
    test = reports["test"]
    print(f"{spec.kind}: test mse {test['mse']:.6f}, "
          f"pooled test R^2 {test['r2_pooled']:.4f} "
          f"({len(tlog.entries)} epochs, best {tlog.best_epoch})")
    return EXIT_OK


def cmd_grid(args) -> int:
    started = _now_iso()
    tic = time.perf_counter()
    cfg = _resolve_config(args)
    out = _prepare_out(cfg, args)
    schema = cfg.data.feature_schema()
    trips = _get_trips(cfg.data)

    def make_dataset(window, horizon):
        return _build_split(cfg, trips, window, horizon)

    def on_cell(cell):
        status = (f"R^2 {cell.test_r2_pooled:.4f}" if cell.status == "ok"
                  else f"FAILED: {cell.error}")
        log.info("cell %s W=%d H=%d: %s (%.0fs)", cell.kind, cell.window,
                 cell.horizon, status, cell.seconds)

    model_fields = {
        "n_features": len(schema.input_channels),
        "n_targets": len(schema.target_channels),
        "d_model": cfg.model.d_model,
        "n_heads": cfg.model.n_heads,
        "enc_layers": cfg.model.enc_layers,
        "dec_layers": cfg.model.dec_layers,
        "ffn_width": cfg.model.ffn_width,
        "lstm_layers": cfg.model.lstm_layers,
    }
    report = run_grid(cfg.grid.kinds, [tuple(c) for c in cfg.grid.cases],
                      make_dataset, cfg.train, model_fields=model_fields,
                      seed=cfg.seed, target_names=schema.target_channels,
                      on_cell=on_cell)
    _write_json(out / "grid_report.json", report.to_dict(include_timing=False))
    table = report.format_table()
    (out / "grid_table.txt").write_text(table + "\n")
    _write_json(out / "meta.json", {
        "command": "grid", "started": started, "finished": _now_iso(),
        "seconds": time.perf_counter() - tic,
        "cell_seconds": {
            f"{c.kind}@W{c.window}H{c.horizon}": c.seconds
            for c in report.cells
        },
    })
    print(table)
    if all(c.status == "failed" for c in report.cells):
        return EXIT_ALL_CELLS_FAILED
    return EXIT_OK


def cmd_predict(args) -> int:
    ckpt_path = Path(args.checkpoint)
    if not ckpt_path.is_file():
        raise ValueError(f"{ckpt_path}: checkpoint not found")
    model, extra_meta, extra_arrays = load_checkpoint(ckpt_path)
    try:
        schema = FeatureSchema.from_dict(extra_meta["schema"])
        sample_period, sg_window, sg_order, target_period = (
            extra_meta["pipeline"][k] for k in PIPELINE_FIELDS)
        stats = NormStats(**{k: extra_arrays[f"norm.{k}"]
                             for k in NORM_FIELDS})
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"{ckpt_path}: checkpoint lacks the training-run data predict "
            f"needs ({exc!r}); use one written by `tripcast train`"
        ) from None
    trip_path = Path(args.trip)
    if not trip_path.is_file():
        raise ValueError(f"{trip_path}: trip CSV not found")
    trip = load_trips(trip_path, schema, sample_period)[0]
    trip = preprocess_trip(trip, schema, sg_window, sg_order, target_period)

    w, h = model.spec.window, model.spec.horizon
    start = args.start
    if start < w:
        raise ValueError(
            f"insufficient history: start index {start} is less than the "
            f"model window {w} (need {w} observed steps before the forecast)"
        )
    if start >= trip.length:
        raise ValueError(
            f"start index {start} is beyond the trip "
            f"(resampled length {trip.length})"
        )
    feats = np.stack([trip.channels[c] for c in schema.input_channels], axis=1)
    x = stats.normalize_inputs(feats[start - w:start])[None]
    last_obs = np.array([trip.channels[c][start - 1]
                         for c in schema.target_channels])
    start_vals = stats.normalize_targets(last_obs)[None]
    with no_grad():
        pred = model.forward(x, start=start_vals, training=False).data[0]
    pred_phys = stats.denormalize_targets(pred)

    out_path = Path(args.out) if args.out else Path("forecast.csv")
    if out_path.parent != Path("."):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    cols = [UNIT_COLUMNS.get(c, c) for c in schema.target_channels]
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "time_s", "role", *cols])
        for i in range(start - w, start):
            vals = [repr(float(trip.channels[c][i]))
                    for c in schema.target_channels]
            writer.writerow([i, repr(i * target_period), "observed", *vals])
        for k in range(h):
            vals = [repr(float(v)) for v in pred_phys[k]]
            writer.writerow([start + k, repr((start + k) * target_period),
                             "forecast", *vals])
    print(f"wrote {w} observed + {h} forecast rows to {out_path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.corrupt_op is not None and args.corrupt_op not in RECORDED_OPS:
        raise ValueError(
            f"--corrupt-op: unknown op {args.corrupt_op!r}; recordable ops: "
            + ", ".join(sorted(RECORDED_OPS))
        )
    report = run_gradcheck(tolerance=args.tolerance, step=args.step,
                           corrupt_op=args.corrupt_op)
    print(report.format())
    return EXIT_OK if report.passed else EXIT_RUNTIME


# -------------------------------------------------------------- arg wiring

def _add_config_args(p):
    p.add_argument("--config", help="JSON config file (defaults when omitted)")
    p.add_argument("-O", "--override", action="append", metavar="KEY=VALUE",
                   help="override a config key, e.g. -O data.window=30")
    p.add_argument("--out", help="output directory (overrides output_dir)")


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tripcast",
        description="Trip-telemetry sequence forecasting: data synthesis, "
                    "training, grid experiments, prediction, diagnostics.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("datagen", help="write synthetic trip CSVs")
    _add_config_args(sp)
    sp.set_defaults(handler=cmd_datagen)

    sp = sub.add_parser("train", help="train one model and evaluate it")
    _add_config_args(sp)
    sp.set_defaults(handler=cmd_train)

    sp = sub.add_parser("grid", help="run the W x H experiment grid")
    _add_config_args(sp)
    sp.set_defaults(handler=cmd_grid)

    sp = sub.add_parser("predict", help="forecast from a checkpoint and trip")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--trip", required=True, help="trip CSV file")
    sp.add_argument("--start", type=int, required=True,
                    help="index of the first forecast step (resampled)")
    sp.add_argument("--out", help="forecast CSV path (default forecast.csv)")
    sp.set_defaults(handler=cmd_predict)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    sp.add_argument("--tolerance", type=float, default=1e-4)
    sp.add_argument("--step", type=float, default=1e-6)
    sp.add_argument("--corrupt-op", dest="corrupt_op",
                    help=argparse.SUPPRESS)  # test hook: corrupt a backward rule
    sp.set_defaults(handler=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:          # includes ShapeError, config errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FloatingPointError, RuntimeError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
