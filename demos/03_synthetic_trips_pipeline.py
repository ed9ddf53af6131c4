"""From raw trip telemetry to a training-ready dataset.

Synthesizes a few drive cycles, pokes at the physical relationships baked
into the channels, then walks the full preparation pipeline: redundant-
sensor aggregation, Savitzky-Golay smoothing, resampling, windowing, and
z-score normalization.

Run:  python3 demos/03_synthetic_trips_pipeline.py
"""

import numpy as np

from tripcast.pipeline import (
    DEFAULT_SCHEMA,
    aggregate_redundant,
    make_windows,
    prepare_dataset,
    resample,
    smooth_trip,
)
from tripcast.savgol import savgol_smooth
from tripcast.synth import synthesize_trips

rule = "-" * 64

# ----------------------------------------------------------------------
print(rule)
print("1. Synthesize four trips at a 0.5 s sample period")
print(rule)

trips = synthesize_trips(4, 1200, seed=3)
for trip in trips:
    soc = trip.channels["soc"]
    v = trip.channels["velocity"]
    print(f"{trip.trip_id}: {trip.length} samples, "
          f"soc {soc[0]:.1f} -> {soc[-1]:.1f} %, "
          f"mean speed {np.mean(v):.1f} m/s")

# ----------------------------------------------------------------------
print()
print(rule)
print("2. The channels obey the physics they were generated from")
print(rule)

trip = trips[0]
dt = trip.sample_period_s
# battery power is recoverable from voltage and current
p_batt = trip.channels["batt_voltage"] * trip.channels["batt_current"] / 1000.0
# and the SOC trace is its Euler integral (up to sensor noise)
soc = trip.channels["soc"]
recon = soc[:-1] - p_batt[:-1] * dt / (18.0 * 36.0)
print("p_batt from V*I/1000, mean abs:", f"{np.mean(np.abs(p_batt)):.2f} kW")
print("max |soc[k+1] - Euler step|:  ",
      f"{np.max(np.abs(soc[1:] - recon)):.2e} (noise-level)")

accel = trip.channels["acceleration"]
fd = np.gradient(trip.channels["velocity"], dt)
print("acceleration vs d(velocity)/dt, correlation:",
      f"{np.corrcoef(accel, fd)[0, 1]:.4f}")

# ----------------------------------------------------------------------
print()
print(rule)
print("3. Savitzky-Golay smoothing takes out sensor noise")
print(rule)

noisy = trip.channels["batt_current"]
smooth = savgol_smooth(noisy, 21, 2)
print("current std before/after:",
      f"{np.std(noisy):.3f} / {np.std(smooth):.3f}")
print("residual std (removed noise):", f"{np.std(noisy - smooth):.3f}")

# ----------------------------------------------------------------------
print()
print(rule)
print("4. Aggregate -> smooth -> resample, step by step")
print(rule)

print("raw channels:      ", len(trip.channels))
agg = aggregate_redundant(trip, DEFAULT_SCHEMA)
print("after aggregation: ", len(agg.channels),
      "(vent temperatures averaged into one)")
sm = smooth_trip(agg, 21, 2)
rs = resample(sm, target_period_s=5.0)
print(f"resampled: {trip.length} samples @ {dt}s -> "
      f"{rs.length} steps @ {rs.sample_period_s}s")

# ----------------------------------------------------------------------
print()
print(rule)
print("5. Windowing: W observed steps in, H future target steps out")
print(rule)

W, H = 12, 6
windows = make_windows(rs, DEFAULT_SCHEMA, W, H)
print(f"one {rs.length}-step trip yields {len(windows)} windows "
      f"(= {rs.length} - {W} - {H} + 1), held as row-aligned arrays:")
print("x_enc", windows.x_enc.shape, "teacher", windows.teacher.shape,
      "y", windows.y.shape)
s = windows[0]
print("teacher step 0 is the last observed target; y is shifted one ahead:")
print("  teacher[0] =", np.round(s.teacher[0], 3))
print("  y[0]       =", np.round(s.y[0], 3))

# ----------------------------------------------------------------------
print()
print(rule)
print("6. prepare_dataset does all of it, with train-only statistics")
print(rule)

split = prepare_dataset(trips, DEFAULT_SCHEMA, window=W, horizon=H,
                        savgol_window=21, savgol_order=2, target_period_s=5.0,
                        train_n=300, val_n=50, test_n=50, seed=1)
print("split sizes:", len(split.train), len(split.validation),
      len(split.test))
xs = split.train.x_enc
print("train inputs are z-scored: mean ~0, std ~1 per channel")
print("  worst |mean|:", f"{np.max(np.abs(xs.mean(axis=(0, 1)))):.2e}")
print("  worst |std-1|:", f"{np.max(np.abs(xs.std(axis=(0, 1)) - 1)):.2e}")
