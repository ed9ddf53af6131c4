"""Train one forecaster end to end, then use it.

Builds a small LSTM variant, trains it on synthetic trips with teacher
forcing, evaluates autoregressively on held-out windows, round-trips the
model through a checkpoint file, and rolls one forecast forward.

Takes roughly half a minute on a desktop CPU.

Run:  python3 demos/04_train_single_model.py
"""

import tempfile
from pathlib import Path

import numpy as np

from tripcast.models import ModelSpec, build, load_checkpoint, save_checkpoint
from tripcast.pipeline import DEFAULT_SCHEMA, prepare_dataset
from tripcast.synth import synthesize_trips
from tripcast.tensor import no_grad
from tripcast.training import TrainConfig, evaluate, train

rule = "-" * 64

# ----------------------------------------------------------------------
print(rule)
print("1. Data and model")
print(rule)

trips = synthesize_trips(8, 1800, seed=42)
split = prepare_dataset(trips, DEFAULT_SCHEMA, window=12, horizon=6,
                        savgol_window=21, savgol_order=2, target_period_s=5.0,
                        train_n=800, val_n=150, test_n=150, seed=7)
print("windows: train", len(split.train), "val", len(split.validation),
      "test", len(split.test))

spec = ModelSpec(kind="lstm", d_model=32, n_heads=4, enc_layers=1,
                 dec_layers=1, ffn_width=32, lstm_layers=2)
model = build(spec, seed=1)
print(f"{spec.kind}: {model.count_parameters():,} parameters")

# ----------------------------------------------------------------------
print()
print(rule)
print("2. Teacher-forced training with validation-based early stopping")
print(rule)

cfg = TrainConfig(epochs=8, batch_size=64, learning_rate=1e-3, seed=0,
                  patience=3)
model, tlog = train(model, split, cfg,
                    on_epoch=lambda e: print(
                        f"  epoch {e.epoch}: train {e.train_loss:.5f} "
                        f"val {e.val_loss:.5f} ({e.seconds:.1f}s)"))
print("stop reason:", tlog.stop_reason or "ran all epochs")
print(f"best epoch {tlog.best_epoch} (val {tlog.best_val_loss:.5f}); "
      "those weights were restored")

# ----------------------------------------------------------------------
print()
print(rule)
print("3. Autoregressive evaluation on held-out windows")
print(rule)

for name, portion in (("validation", split.validation),
                      ("test", split.test)):
    rep = evaluate(model, portion, split.stats,
                   DEFAULT_SCHEMA.target_channels, name, cfg.batch_size)
    per = ", ".join(f"{ch} {rep.r2_per_target[ch]:.4f}"
                    for ch in DEFAULT_SCHEMA.target_channels)
    print(f"{name:>10}: mse {rep.mse:.5f}, pooled R^2 {rep.r2_pooled:.4f} "
          f"({per})")

# ----------------------------------------------------------------------
print()
print(rule)
print("4. Checkpoints round-trip bit-exactly")
print(rule)

xs = split.test[:4].x_enc
with tempfile.TemporaryDirectory() as td:
    path = Path(td) / "model.ckpt"
    save_checkpoint(model, path)
    print(f"saved {path.stat().st_size:,} bytes")
    clone, _, _ = load_checkpoint(path)
    with no_grad():
        a = model.forward(xs).data
        b = clone.forward(xs).data
    print("reloaded forward pass identical:", np.array_equal(a, b))

# ----------------------------------------------------------------------
print()
print(rule)
print("5. One forecast, denormalized to physical units")
print(rule)

sample = split.test[0]
with no_grad():
    pred = model.forward(sample.x_enc[None]).data[0]
pred_phys = split.stats.denormalize_targets(pred)
true_phys = split.stats.denormalize_targets(sample.y)
print("step |  soc%  pred/true | battC  pred/true")
for k in range(pred_phys.shape[0]):
    print(f"  +{k + 1}  | {pred_phys[k, 0]:6.2f} / {true_phys[k, 0]:6.2f} "
          f"| {pred_phys[k, 1]:6.2f} / {true_phys[k, 1]:6.2f}")
