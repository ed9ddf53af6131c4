"""Trip-log ingestion and dataset preparation.

The path from raw logs to supervised samples: parse trip CSVs, collapse
redundant sensor groups (the four vent thermometers become one averaged
channel), Savitzky-Golay smooth each channel, decimate to the model time
step, cut sliding windows, then shuffle, split, and z-score normalize with
statistics taken from the training portion only.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .savgol import savgol_smooth
from .serialize import atomic_write

log = logging.getLogger(__name__)

# largest cell magnitude a trip CSV may hold, so that squares and sums of
# squares (z-score statistics, traction power) stay finite
MAX_ABS = 1e150


@dataclass
class TripSeries:
    """One drive's worth of equal-length sensor channels."""

    trip_id: str
    sample_period_s: float
    channels: dict  # name -> float64 1-d array, insertion-ordered

    def __post_init__(self):
        lengths = {name: len(seq) for name, seq in self.channels.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(
                f"trip {self.trip_id!r}: channel lengths differ: {lengths}"
            )

    @property
    def length(self) -> int:
        for seq in self.channels.values():
            return len(seq)
        return 0

    def replace_channels(self, channels: dict) -> "TripSeries":
        return TripSeries(self.trip_id, self.sample_period_s, channels)


@dataclass(frozen=True)
class FeatureSchema:
    """Names of model inputs and targets, plus sensor aggregation rules.

    Each aggregation rule is ``(output_name, member_names)``; members are
    averaged into the output channel and dropped.
    """

    input_channels: tuple
    target_channels: tuple
    aggregations: tuple = ()

    def __post_init__(self):
        for name in ("input_channels", "target_channels"):
            if not getattr(self, name):
                raise ValueError(f"FeatureSchema.{name} must not be empty")

    def required_raw_channels(self) -> list:
        """Raw CSV columns needed to realize this schema."""
        produced = {out for out, _ in self.aggregations}
        needed = [n for n in (*self.input_channels, *self.target_channels)
                  if n not in produced]
        needed += [m for _, members in self.aggregations for m in members]
        return list(dict.fromkeys(needed))

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSchema":
        return cls(
            input_channels=tuple(d["input_channels"]),
            target_channels=tuple(d["target_channels"]),
            aggregations=tuple((out, tuple(members))
                               for out, members in d["aggregations"]),
        )


VENT_CHANNELS = ("vent_temp_fl", "vent_temp_fr", "vent_temp_rl", "vent_temp_rr")

DEFAULT_SCHEMA = FeatureSchema(
    input_channels=(
        "velocity", "acceleration", "throttle", "elevation", "ambient_temp",
        "batt_voltage", "batt_current", "batt_temp", "soc", "heater_power",
        "ac_power", "avg_vent_temp", "cabin_temp", "cabin_setpoint",
        "regen_power",
    ),
    target_channels=("soc", "batt_temp"),
    aggregations=(("avg_vent_temp", VENT_CHANNELS),),
)


@dataclass(eq=False)
class Windows:
    """Supervised windows cut from trips, one row per window.

    Row ``i`` starts at step ``s = start[i]`` of trip ``trip_id[i]``; with
    ``t = s + W - 1`` the last observed step, ``x_enc`` covers t-W+1..t,
    ``y`` covers t+1..t+H, and ``teacher`` is ``y`` shifted back one step,
    so ``teacher[:, 0]`` is the target value at t. An int index gives one
    window's arrays without the leading axis, as views; a slice or an index
    array gives the ``Windows`` of those rows.
    """

    x_enc: np.ndarray    # (N, W, F)
    teacher: np.ndarray  # (N, H, v)
    y: np.ndarray        # (N, H, v)
    trip_id: np.ndarray  # (N,) str
    start: np.ndarray    # (N,) int

    def __len__(self) -> int:
        return len(self.start)

    def __getitem__(self, idx) -> "Windows":
        return Windows(*(getattr(self, f.name)[idx] for f in fields(self)))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @classmethod
    def concat(cls, parts: list) -> "Windows":
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts])
                     for f in fields(cls)))


@dataclass
class NormStats:
    """Per-channel z-score statistics, computed from training data only."""

    input_mean: np.ndarray   # (F,)
    input_std: np.ndarray    # (F,)
    target_mean: np.ndarray  # (v,)
    target_std: np.ndarray   # (v,)

    def normalize_inputs(self, x: np.ndarray) -> np.ndarray:
        return (x - self.input_mean) / self.input_std

    def normalize_targets(self, y: np.ndarray) -> np.ndarray:
        return (y - self.target_mean) / self.target_std

    def denormalize_targets(self, y: np.ndarray) -> np.ndarray:
        return y * self.target_std + self.target_mean


@dataclass
class DatasetSplit:
    """Train/validation/test windows in normalized units."""

    train: Windows
    validation: Windows
    test: Windows
    stats: NormStats


# ------------------------------------------------------------------ loading

def load_trips(path, schema: FeatureSchema, sample_period_s: float) -> list:
    """Parse one trip CSV, or every ``*.csv`` in a directory (sorted)."""
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.csv"))
        if not files:
            raise ValueError(f"{p}: no .csv trip files found")
    elif p.exists():
        files = [p]
    else:
        raise ValueError(f"{p}: no such file or directory")
    return [_load_trip_file(f, schema, sample_period_s) for f in files]


def _load_trip_file(path: Path, schema: FeatureSchema,
                    sample_period_s: float) -> TripSeries:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ValueError(f"{path}: cannot read trip file: "
                         f"{exc.strerror or exc}") from None
    except csv.Error as exc:
        raise ValueError(f"{path}: unreadable CSV: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    required = schema.required_raw_channels()
    missing = [c for c in required if c not in header]
    if missing:
        raise ValueError(
            f"{path}: missing required column(s): {', '.join(missing)}"
        )
    twice = [c for c in required if header.count(c) > 1]
    if twice:
        raise ValueError(f"{path}: duplicate column(s): {', '.join(twice)}")
    data = rows[1:]
    if not data:
        raise ValueError(f"{path}: no data rows")
    keep = [(i, name) for i, name in enumerate(header) if name in required]
    if set(map(len, data)) != {len(header)}:
        raise ValueError(_first_fault(path, header, keep, data))
    cells = list(zip(*data))
    try:
        channels = {name: np.fromiter(map(float, map(str.strip, cells[i])),
                                      np.float64, len(data))
                    for i, name in keep}
    except ValueError:
        raise ValueError(_first_fault(path, header, keep, data)) from None
    for name, arr in channels.items():
        ok = np.abs(arr) <= MAX_ABS  # False for NaN and ±inf too
        if not ok.all():
            bad = int(np.flatnonzero(~ok)[0])
            value = float(arr[bad])
            what = ("non-finite value" if not np.isfinite(value) else
                    f"out-of-range value {value!r} (|v| > {MAX_ABS:g})")
            raise ValueError(
                f"{path}: {what} in column {name!r} at data row {bad + 2}"
            )
    return TripSeries(path.stem, sample_period_s, channels)


def _first_fault(path: Path, header: list, keep: list, data: list) -> str:
    """The first ragged row or non-numeric kept cell, rows numbered as lines."""
    for row_num, row in enumerate(data, start=2):
        if len(row) != len(header):
            return (f"{path}: ragged row {row_num}: expected {len(header)} "
                    f"cells, got {len(row)}")
        for i, _ in keep:
            cell = row[i].strip()
            try:
                float(cell)
            except ValueError:
                return (f"{path}: non-numeric cell {cell!r} at row "
                        f"{row_num}, column {header[i]!r}")
    raise AssertionError(f"{path}: no fault to report")


def write_trip_csv(trip: TripSeries, path) -> None:
    """Atomically write a trip as CSV: a header of channel names, then one
    CRLF-ended row of ``%.17g`` cells per sample."""
    names = list(trip.channels)
    row = ",".join(["%.17g"] * len(names)) + "\r\n"
    with atomic_write(path, "w", newline="") as fh:
        csv.writer(fh).writerow(names)
        block = np.column_stack([trip.channels[n] for n in names])
        fh.write(row * len(block)
                 % tuple(block.astype(np.float64).ravel().tolist()))


# -------------------------------------------------------------- transforms

def aggregate_redundant(trip: TripSeries,
                        schema: FeatureSchema = DEFAULT_SCHEMA) -> TripSeries:
    """Average each aggregation group into its output channel, dropping members."""
    channels = dict(trip.channels)
    for out, members in schema.aggregations:
        missing = [m for m in members if m not in channels]
        if missing:
            raise ValueError(
                f"trip {trip.trip_id!r}: aggregation {out!r} is missing member "
                f"channel(s): {', '.join(missing)}"
            )
        stacked = np.stack([channels[m] for m in members])
        for m in members:
            del channels[m]
        channels[out] = stacked.mean(axis=0)
    return trip.replace_channels(channels)


def smooth_trip(trip: TripSeries, window_len: int,
                poly_order: int) -> TripSeries:
    """Savitzky-Golay filter every channel."""
    try:
        channels = {name: savgol_smooth(seq, window_len, poly_order)
                    for name, seq in trip.channels.items()}
    except ValueError as exc:
        raise ValueError(f"trip {trip.trip_id!r}: {exc}") from None
    return trip.replace_channels(channels)


def resample_stride(sample_period_s: float, target_period_s: float) -> int:
    """Decimation stride from the source to the target period; raises
    ``ValueError`` unless the target is a whole multiple of the source."""
    ratio = target_period_s / sample_period_s
    stride = int(round(ratio))
    if stride < 1 or abs(ratio - stride) > 1e-9:
        raise ValueError(
            f"target period {target_period_s} s is not an integer multiple "
            f"of the source period {sample_period_s} s"
        )
    return stride


def resample(trip: TripSeries, target_period_s: float) -> TripSeries:
    """Stride-decimate to a coarser sampling period."""
    stride = resample_stride(trip.sample_period_s, target_period_s)
    channels = {n: seq[::stride].copy() for n, seq in trip.channels.items()}
    return TripSeries(trip.trip_id, target_period_s, channels)


def preprocess_trip(trip: TripSeries, schema: FeatureSchema,
                    savgol_window: int, savgol_order: int,
                    target_period_s: float) -> TripSeries:
    """Aggregate redundant sensors, smooth every channel, then resample."""
    trip = aggregate_redundant(trip, schema)
    trip = smooth_trip(trip, savgol_window, savgol_order)
    return resample(trip, target_period_s)


def make_windows(trip: TripSeries, schema: FeatureSchema,
                 window: int, horizon: int) -> Windows:
    """Cut stride-1 sliding windows; a too-short trip yields none (warned)."""
    n = trip.length
    if n < window + horizon:
        log.warning("trip %r too short for windowing: length %d < W+H=%d; "
                    "skipped", trip.trip_id, n, window + horizon)
    missing = [c for c in (*schema.input_channels, *schema.target_channels)
               if c not in trip.channels]
    if missing:
        raise ValueError(
            f"trip {trip.trip_id!r}: schema channel(s) not present: "
            f"{', '.join(missing)} (did aggregation run?)"
        )
    feats = np.stack([trip.channels[c] for c in schema.input_channels], axis=1)
    targs = np.stack([trip.channels[c] for c in schema.target_channels], axis=1)
    start = np.arange(max(n - window - horizon + 1, 0))
    t = start[:, None] + window - 1 + np.arange(horizon)  # teacher steps
    return Windows(x_enc=feats[start[:, None] + np.arange(window)],
                   teacher=targs[t], y=targs[t + 1],
                   trip_id=np.full(len(start), trip.trip_id), start=start)


# ------------------------------------------------------------ split & norm

def _compute_stats(xs: np.ndarray, ys: np.ndarray) -> NormStats:
    in_mean = xs.mean(axis=(0, 1))
    in_std = xs.std(axis=(0, 1))
    t_mean = ys.mean(axis=(0, 1))
    t_std = ys.std(axis=(0, 1))
    # a flat channel would divide by zero; leave it centered but unscaled
    in_std = np.where(in_std < 1e-12, 1.0, in_std)
    t_std = np.where(t_std < 1e-12, 1.0, t_std)
    return NormStats(in_mean, in_std, t_mean, t_std)


def normalize_and_split(windows: Windows, train_n: int, val_n: int,
                        test_n: int, seed: int,
                        mode: str = "shuffle") -> DatasetSplit:
    """Shuffle, split, and z-score normalize a set of windows.

    ``mode="shuffle"`` (default) permutes the windows and takes exact split
    sizes. ``mode="trip_holdout"`` keeps whole trips together: trips are
    assigned (in seeded shuffled order) to test until ``test_n`` windows
    are reached, then to validation until ``val_n``, and the remainder
    trains; split sizes are then approximate and ``train_n`` is ignored.
    """
    if mode not in ("shuffle", "trip_holdout"):
        raise ValueError(f"unknown split mode {mode!r}; "
                         "expected 'shuffle' or 'trip_holdout'")
    rng = np.random.default_rng(seed)
    if mode == "shuffle":
        need = train_n + val_n + test_n
        if len(windows) < need:
            raise ValueError(
                f"insufficient samples: need {need} "
                f"(train {train_n} + val {val_n} + test {test_n}), "
                f"have {len(windows)}"
            )
        order = rng.permutation(len(windows))
        train, val, test = np.split(order[:need], [train_n, train_n + val_n])
    else:
        trip_ids = list(dict.fromkeys(windows.trip_id.tolist()))
        rng.shuffle(trip_ids)
        test = val = train = np.empty(0, dtype=np.intp)
        for tid in trip_ids:
            rows = np.flatnonzero(windows.trip_id == tid)
            if len(test) < test_n:
                test = np.concatenate([test, rows])
            elif len(val) < val_n:
                val = np.concatenate([val, rows])
            else:
                train = np.concatenate([train, rows])
        # R² needs two points per target: one window is too few at H = 1
        least = 2 if windows.y.shape[1] == 1 else 1
        if min(len(train), len(val), len(test)) < least:
            raise ValueError(
                "trip_holdout split left an empty portion (or, at horizon 1, "
                "a one-window portion that R² cannot score): "
                f"train {len(train)}, val {len(val)}, test {len(test)} "
                f"samples across {len(trip_ids)} trips"
            )
        train = train[rng.permutation(len(train))]
    stats = _compute_stats(windows.x_enc[train], windows.y[train])
    normed = Windows(stats.normalize_inputs(windows.x_enc),
                     stats.normalize_targets(windows.teacher),
                     stats.normalize_targets(windows.y),
                     windows.trip_id, windows.start)
    return DatasetSplit(normed[train], normed[val], normed[test], stats)


# ------------------------------------------------------------ full pipeline

def prepare_dataset(trips: list, schema: FeatureSchema, window: int,
                    horizon: int, savgol_window: int, savgol_order: int,
                    target_period_s: float, train_n: int, val_n: int,
                    test_n: int, seed: int,
                    split_mode: str = "shuffle") -> DatasetSplit:
    """Run the whole pipeline: aggregate, smooth, resample, window, split."""
    windows = Windows.concat([
        make_windows(preprocess_trip(trip, schema, savgol_window,
                                     savgol_order, target_period_s),
                     schema, window, horizon)
        for trip in trips])
    return normalize_and_split(windows, train_n, val_n, test_n, seed,
                               mode=split_mode)
