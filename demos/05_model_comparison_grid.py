"""Compare all five architectures across window/horizon cases.

Runs the experiment grid at a deliberately small scale: every architecture
is trained once per (window, horizon) case on the same synthetic dataset,
then the aligned comparison table and the non-binding annotations are
printed.  Expect a couple of minutes of CPU.

The full-scale counterpart of this script is the ``tripcast grid``
command, which also writes grid_report.json and grid_table.txt.

Run:  python3 demos/05_model_comparison_grid.py
"""

from tripcast.models import KINDS, ModelSpec
from tripcast.pipeline import DEFAULT_SCHEMA, prepare_dataset
from tripcast.synth import synthesize_trips
from tripcast.training import TrainConfig, run_grid

rule = "-" * 64

print(rule)
print("Setup: 8 trips, three window/horizon cases, all five architectures")
print(rule)

trips = synthesize_trips(8, 1200, seed=17)


def make_dataset(window, horizon):
    return prepare_dataset(trips, DEFAULT_SCHEMA, window, horizon,
                           savgol_window=21, savgol_order=2,
                           target_period_s=5.0, train_n=200, val_n=40,
                           test_n=40, seed=4)


# every cell trains this spec with its own kind, window and horizon
spec = ModelSpec(kind="lstm", n_features=15, n_targets=2, d_model=32,
                 n_heads=4, enc_layers=1, dec_layers=1, ffn_width=32,
                 lstm_layers=1)
cfg = TrainConfig(epochs=3, batch_size=32, learning_rate=1e-3, seed=0)
cases = [(12, 6), (30, 6), (50, 30)]


def on_cell(cell):
    status = (f"test R^2 {cell.test_r2_pooled:7.4f}" if cell.status == "ok"
              else f"FAILED: {cell.error}")
    print(f"  {cell.kind:18s} W={cell.window:2d} H={cell.horizon:2d}  "
          f"{status}  ({cell.seconds:.0f}s)")


report = run_grid(list(KINDS), cases, make_dataset, cfg, spec, seed=23,
                  target_names=DEFAULT_SCHEMA.target_channels,
                  on_cell=on_cell)

print()
print(rule)
print("Comparison table (annotations are observations, never pass/fail)")
print(rule)
print(report.format_table())
