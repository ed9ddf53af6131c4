"""Command-line entry point: datagen, train, grid, predict, gradcheck.

The config-driven commands (datagen, train, grid) read an optional JSON
config (defaults fill the gaps), apply ``-O section.key=value``
overrides, and write deterministic primary outputs plus a separate
``meta.json`` holding timestamps and durations. Exit codes: 0 success,
1 validation error, 2 runtime failure, 3 when every grid cell failed.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
import time
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import DataConfig, RunConfig, SEED_BUILD, fan_seed, load_config
from .gradcheck import run_gradcheck
from .models import build, load_checkpoint, save_checkpoint
from .pipeline import (
    NormStats,
    load_trips,
    prepare_dataset,
    preprocess_trip,
    write_trip_csv,
)
from .serialize import atomic_write, write_json
from .synth import synthesize_trips
from .tensor import no_grad
from .training import evaluate_split, run_grid, train

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

# the data settings ``synthesize_trips`` reads, in its argument order; they
# are what ``datagen`` echoes in manifest.json
SYNTH_FIELDS = ("n_trips", "trip_length", "seed", "sample_period_s",
                "noise_std", "velocity_scale")


def _now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _synthesize(data: DataConfig) -> list:
    return synthesize_trips(*(getattr(data, k) for k in SYNTH_FIELDS))


def _get_trips(data: DataConfig) -> list:
    if data.source == "csv":
        return load_trips(data.trips_path, data.feature_schema(),
                          data.sample_period_s)
    return _synthesize(data)


def _build_split(cfg: RunConfig, trips, window: int, horizon: int):
    d = cfg.data
    return prepare_dataset(trips, d.feature_schema(), window, horizon,
                           d.savgol_window, d.savgol_order, d.target_period_s,
                           d.train_n, d.val_n, d.test_n, d.seed,
                           split_mode=d.split_mode)


# ---------------------------------------------------------------- commands

def run_recorded(args) -> int:
    """Run a config-driven command and keep its run record.

    Loads the config, makes the output directory and echoes the config
    into it as ``config.json``, then runs ``args.body(cfg, out)``, which
    returns its exit code and any extra ``meta.json`` fields. ``meta.json``
    (command, start and finish times, seconds) is written only when the
    body returns, so a failed run leaves ``config.json`` and no record.
    """
    started = _now_iso()
    tic = time.perf_counter()
    cfg = load_config(args.config, args.override)
    out = Path(args.out or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.json", asdict(cfg))
    code, extra = args.body(cfg, out)
    write_json(out / "meta.json", {
        "command": args.command, "started": started, "finished": _now_iso(),
        "seconds": time.perf_counter() - tic, **extra,
    })
    return code


def cmd_datagen(cfg: RunConfig, out: Path) -> tuple:
    trips = _synthesize(cfg.data)
    trips_dir = out / "trips"
    trips_dir.mkdir(exist_ok=True)
    entries = []
    for trip in trips:
        fname = f"{trip.trip_id}.csv"
        write_trip_csv(trip, trips_dir / fname)
        entries.append({"trip_id": trip.trip_id, "file": f"trips/{fname}",
                        "length": trip.length})
    write_json(out / "manifest.json", {
        **{k: getattr(cfg.data, k) for k in SYNTH_FIELDS}, "trips": entries})
    print(f"wrote {len(trips)} trips to {trips_dir}")
    return EXIT_OK, {}


def cmd_train(cfg: RunConfig, out: Path) -> tuple:
    schema = cfg.data.feature_schema()
    trips = _get_trips(cfg.data)
    split = _build_split(cfg, trips, cfg.data.window, cfg.data.horizon)
    spec = cfg.model.compose_spec(cfg.data)
    model = build(spec, seed=fan_seed(cfg.train.seed, SEED_BUILD))
    log.info("training %s: W=%d H=%d, %s parameters, %d train samples",
             spec.kind, spec.window, spec.horizon,
             f"{model.count_parameters():,}", len(split.train))

    # streamed into a temporary file, renamed over epochs.csv once
    # training ends
    with atomic_write(out / "epochs.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss", "seconds"])

        def on_epoch(entry):
            writer.writerow([entry.epoch, repr(entry.train_loss),
                             repr(entry.val_loss), f"{entry.seconds:.3f}"])
            fh.flush()
            log.info("epoch %d: train %.6f val %.6f (%.1fs)", entry.epoch,
                     entry.train_loss, entry.val_loss, entry.seconds)

        model, tlog = train(model, split, cfg.train, on_epoch=on_epoch)

    reports = evaluate_split(model, split, schema.target_channels,
                             cfg.train.batch_size)

    save_checkpoint(
        model, out / "checkpoint.ckpt",
        extra_meta={
            "schema": asdict(schema),
            "pipeline": {k: getattr(cfg.data, k) for k in PIPELINE_FIELDS},
        },
        extra_arrays={f"norm.{k}": getattr(split.stats, k)
                      for k in NORM_FIELDS},
    )
    write_json(out / "report.json", {
        "model": asdict(spec),
        "param_count": model.count_parameters(),
        "splits": {name: rep.to_dict() for name, rep in reports.items()},
        "training": {
            "epochs_run": len(tlog.entries),
            "best_epoch": tlog.best_epoch,
            "best_val_loss": tlog.best_val_loss,
            "stop_reason": tlog.stop_reason,
        },
    })
    test = reports["test"]
    print(f"{spec.kind}: test mse {test.mse:.6f}, "
          f"pooled test R^2 {test.r2_pooled:.4f} "
          f"({len(tlog.entries)} epochs, best {tlog.best_epoch})")
    return EXIT_OK, {"eval_seconds": {name: rep.wall_clock_seconds
                                      for name, rep in reports.items()}}


def cmd_grid(cfg: RunConfig, out: Path) -> tuple:
    schema = cfg.data.feature_schema()
    spec = cfg.model.compose_spec(cfg.data)
    # every kind is built from the one model section; refuse a kind that
    # section cannot build before any data work
    for kind in cfg.grid.kinds:
        try:
            replace(spec, kind=kind)
        except ValueError as exc:
            raise ValueError(f"invalid config: grid.kinds entry {kind!r}: "
                             f"{exc}") from None
    trips = _get_trips(cfg.data)

    def make_dataset(window, horizon):
        return _build_split(cfg, trips, window, horizon)

    def on_cell(cell):
        status = (f"R^2 {cell.test_r2_pooled:.4f}" if cell.status == "ok"
                  else f"FAILED: {cell.error}")
        log.info("cell %s W=%d H=%d: %s (%.0fs)", cell.kind, cell.window,
                 cell.horizon, status, cell.seconds)

    report = run_grid(cfg.grid.kinds, cfg.grid.cases, make_dataset, cfg.train,
                      spec, seed=cfg.seed,
                      target_names=schema.target_channels, on_cell=on_cell)
    write_json(out / "grid_report.json", report.to_dict())
    table = report.format_table()
    with atomic_write(out / "grid_table.txt", "w") as fh:
        fh.write(table + "\n")
    print(table)
    failed = all(c.status == "failed" for c in report.cells)
    return (EXIT_ALL_CELLS_FAILED if failed else EXIT_OK,
            {"cell_seconds": {f"{c.kind}@W{c.window}H{c.horizon}": c.seconds
                              for c in report.cells}})


def cmd_predict(args) -> int:
    ckpt_path = Path(args.checkpoint)
    if not ckpt_path.is_file():
        raise ValueError(f"{ckpt_path}: checkpoint not found")
    model, extra_meta, extra_arrays = load_checkpoint(ckpt_path)
    try:
        stats = NormStats(**{k: extra_arrays[f"norm.{k}"]
                             for k in NORM_FIELDS})
        # the stored recipe must pass the rules a config's recipe does
        data = DataConfig(schema=extra_meta["schema"], **{
            k: extra_meta["pipeline"][k] for k in PIPELINE_FIELDS})
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"{ckpt_path}: checkpoint lacks the training-run data predict "
            f"needs ({exc!r}); use one written by `tripcast train`"
        ) from None
    except ValueError as exc:
        raise ValueError(f"{ckpt_path}: {exc}") from None
    schema, target_period = data.feature_schema(), data.target_period_s
    trip_path = Path(args.trip)
    if not trip_path.is_file():
        raise ValueError(f"{trip_path}: trip CSV not found")
    trip = load_trips(trip_path, schema, data.sample_period_s)[0]
    try:
        trip = preprocess_trip(trip, schema, data.savgol_window,
                               data.savgol_order, target_period)
    except ValueError as exc:
        raise ValueError(f"{trip_path}: {exc}") from None

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
    with atomic_write(out_path, "w", newline="") as fh:
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
    report = run_gradcheck(tolerance=args.tolerance, step=args.step,
                           corrupt_op=args.corrupt_op)
    print(report.format())
    return EXIT_OK if report.passed else EXIT_RUNTIME


# -------------------------------------------------------------- arg wiring

def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tripcast",
        description="Trip-telemetry sequence forecasting: data synthesis, "
                    "training, grid experiments, prediction, diagnostics.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    for name, body, text in (
            ("datagen", cmd_datagen, "write synthetic trip CSVs"),
            ("train", cmd_train, "train one model and evaluate it"),
            ("grid", cmd_grid, "run the W x H experiment grid")):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config",
                        help="JSON config file (defaults when omitted)")
        sp.add_argument("-O", "--override", action="append",
                        metavar="KEY=VALUE",
                        help="override a config key, e.g. -O data.window=30")
        sp.add_argument("--out", help="output directory (overrides output_dir)")
        sp.set_defaults(handler=run_recorded, body=body)

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
