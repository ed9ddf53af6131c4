"""Package-level acceptance suite.

Each test here pins a headline guarantee end to end: the gradient audit,
attention and smoothing checked against independent oracles, architecture
conformance, learning on the synthetic task at desk scale, per-architecture
overfit sanity, the window-size experiment grid, bit-exact run determinism,
and the windowing/normalization invariants.  These are slower than the
per-module suites; the desk-scale learning tests dominate (a few minutes
of CPU in total).
"""

import json
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tripcast import tensor as T
from tripcast.cli import main
from tripcast.gradcheck import run_gradcheck
from tripcast.layers import causal_mask, scaled_dot_attention
from tripcast.models import DECODER_INPUT_KINDS, KINDS, ModelSpec, build
from tripcast.pipeline import (
    DEFAULT_SCHEMA,
    FeatureSchema,
    TripSeries,
    make_windows,
    normalize_and_split,
    prepare_dataset,
)
from tripcast.savgol import savgol_smooth
from tripcast.synth import synthesize_trips
from tripcast.tensor import Tensor, no_grad
from tripcast.training import (
    Adam,
    TrainConfig,
    evaluate,
    mse_loss,
    run_grid,
    train,
)

LAYER_RULES = (
    "embedding_linear", "positional_path", "attention_head",
    "multi_head_attention", "feed_forward", "layer_norm_affine",
    "lstm_cell", "lstm_stack",
)


# ------------------------------------------------------- 1. gradient audit

def test_gradient_audit_covers_everything_under_budget():
    """Every primitive and layer rule beats 1e-4 in under two minutes."""
    tic = time.perf_counter()
    report = run_gradcheck(tolerance=1e-4, step=1e-6)
    elapsed = time.perf_counter() - tic
    assert report.passed, report.format()
    names = {name for name, _ in report.entries}
    assert T.RECORDED_OPS <= names
    assert set(LAYER_RULES) <= names
    for name, err in report.entries:
        assert err < 1e-4, f"{name}: {err}"
    assert elapsed < 120.0


# ------------------------------------------------ 2. attention oracle twin

def attention_oracle(q, k, v, masked):
    """Attention one output position at a time, in plain numpy."""
    lq, d_k = q.shape
    out = np.empty((lq, v.shape[1]))
    for i in range(lq):
        scores = q[i] @ k.T / np.sqrt(d_k)
        if masked:
            scores = scores + np.where(np.arange(k.shape[0]) > i, -1e30, 0.0)
        w = np.exp(scores - scores.max())
        w = w / w.sum()
        out[i] = w @ v
    return out


def test_attention_matches_per_position_oracle():
    rng = np.random.default_rng(20240815)
    for case in range(100):
        masked = bool(case % 2)
        lq = int(rng.integers(1, 7))
        lk = lq if masked else int(rng.integers(1, 7))
        d_k = int(rng.integers(1, 7))
        d_v = int(rng.integers(1, 7))
        q = rng.normal(size=(lq, d_k))
        k = rng.normal(size=(lk, d_k))
        v = rng.normal(size=(lk, d_v))
        mask = causal_mask(lq) if masked else None
        out, weights = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v),
                                            mask=mask, return_weights=True)
        want = attention_oracle(q, k, v, masked)
        assert np.max(np.abs(out.data - want)) < 1e-12, case
        assert np.max(np.abs(weights.data.sum(axis=-1) - 1.0)) < 1e-9, case


# ----------------------------------------------- 3. smoothing oracle twin

def vandermonde_smooth(series, window_len, poly_order):
    """Per-position least-squares polynomial fit via normal equations."""
    n = len(series)
    half = window_len // 2
    offsets = np.arange(window_len) - half
    a = np.vander(offsets, poly_order + 1, increasing=True)
    coef_map = np.linalg.solve(a.T @ a, a.T)  # rows: poly coefficients
    out = np.empty(n)
    for i in range(n):
        if i < half:
            coefs = coef_map @ series[:window_len]
            out[i] = np.polyval(coefs[::-1], i - half)
        elif i >= n - half:
            coefs = coef_map @ series[n - window_len:]
            out[i] = np.polyval(coefs[::-1], i - (n - 1 - half))
        else:
            coefs = coef_map @ series[i - half:i + half + 1]
            out[i] = coefs[0]
    return out


@pytest.mark.parametrize("window_len", [5, 9, 21])
def test_savgol_reproduces_quadratics(window_len):
    rng = np.random.default_rng(3)
    t = np.arange(80, dtype=float)
    series = rng.normal() * t * t + rng.normal() * t + rng.normal()
    smoothed = savgol_smooth(series, window_len, 2)
    assert np.max(np.abs(smoothed - series)) < 1e-9


@pytest.mark.parametrize("window_len", [5, 9, 21])
def test_savgol_matches_vandermonde_oracle(window_len):
    rng = np.random.default_rng(4)
    series = rng.normal(size=90)
    got = savgol_smooth(series, window_len, 2)
    want = vandermonde_smooth(series, window_len, 2)
    assert np.max(np.abs(got - want)) < 1e-12


# --------------------------------------- 4. architecture conformance

@pytest.fixture(scope="module")
def default_models():
    return {kind: build(ModelSpec(kind=kind), seed=0) for kind in KINDS}


def test_parameter_count_ordering(default_models):
    counts = {k: m.count_parameters() for k, m in default_models.items()}
    order = ("enc_tst", "lstm", "enc_tst_dec_lstm", "v_tst", "tst_lstm")
    values = [counts[k] for k in order]
    assert all(a < b for a, b in zip(values, values[1:])), counts
    assert 500_000 <= counts["v_tst"] <= 2_000_000


@pytest.mark.parametrize("kind", DECODER_INPUT_KINDS)
def test_decoder_self_attention_is_causal(default_models, kind):
    """Perturbing later teacher steps never reaches the first output step."""
    model = default_models[kind]
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 12, 15))
    teacher = rng.normal(size=(2, 6, 2))
    with no_grad():
        base = model.forward(x, teacher=teacher, training=True).data
        bumped = teacher.copy()
        bumped[:, 1:, :] += 0.5
        pert = model.forward(x, teacher=bumped, training=True).data
    np.testing.assert_array_equal(base[:, 0, :], pert[:, 0, :])
    assert np.max(np.abs(base[:, 1:, :] - pert[:, 1:, :])) > 1e-6


# ------------------------------------------ 5. learning at desk scale

@pytest.fixture(scope="module")
def desk_split():
    trips = synthesize_trips(20, 3000, seed=42)
    assert len(trips) == 20
    split = prepare_dataset(trips, DEFAULT_SCHEMA, window=12, horizon=6,
                            savgol_window=21, savgol_order=2,
                            target_period_s=5.0, train_n=4000, val_n=500,
                            test_n=500, seed=7)
    total = len(split.train) + len(split.validation) + len(split.test)
    assert total >= 5000
    return split


@pytest.mark.slow
@pytest.mark.parametrize("kind", KINDS)
def test_trains_to_target_r2_at_desk_scale(desk_split, kind):
    """Each architecture reaches a strong pooled test R² within budget.

    Validation-based early stopping keeps this to one or two epochs per
    architecture; the budget of 30 minutes per model is generous.
    """
    model = build(ModelSpec(kind=kind), seed=1)
    cfg = TrainConfig(epochs=200, batch_size=64, learning_rate=1e-3,
                      seed=0, patience=50, target_val_r2=0.98)
    tic = time.perf_counter()
    model, tlog = train(model, desk_split, cfg)
    elapsed = time.perf_counter() - tic
    assert elapsed < 1800.0
    assert len(tlog.entries) <= 200
    report = evaluate(model, desk_split.test, desk_split.stats,
                      DEFAULT_SCHEMA.target_channels, "test", cfg.batch_size)
    floor = 0.95 if kind in ("v_tst", "lstm") else 0.90
    assert report.r2_pooled >= floor, (
        f"{kind}: pooled test R² {report.r2_pooled:.4f} < {floor} "
        f"after {len(tlog.entries)} epoch(s) ({tlog.stop_reason})"
    )


# ------------------------------------------------- 6. overfit sanity

@pytest.mark.parametrize("kind", KINDS)
def test_overfits_ten_samples(kind):
    """Training MSE drops below 1e-3 on ten samples within 2000 steps."""
    spec = ModelSpec(kind=kind, window=4, horizon=2, n_features=6,
                     n_targets=2, d_model=16, n_heads=2, enc_layers=1,
                     dec_layers=1, ffn_width=16, lstm_layers=1)
    model = build(spec, seed=2)
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(10, 4, 6))
    teach = rng.normal(size=(10, 2, 2))
    ys = rng.normal(size=(10, 2, 2))
    params = model.named_params()
    opt = Adam(params, lr=1e-2)
    final = np.inf
    for step in range(2000):
        pred = model.forward(xs, teacher=teach, training=True)
        loss = mse_loss(pred, ys)
        final = float(loss.data)
        if final < 1e-3:
            break
        loss.backward()
        grads = {}
        for name, p in params:
            grads[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
            p.zero_grad()
        opt.step(grads)
    assert final < 1e-3, f"{kind}: stuck at {final} after 2000 steps"


# ------------------------------------------------ 7. experiment grid

def test_window_size_grid_completes_and_reports():
    trips = synthesize_trips(8, 1000, seed=5)

    def make_dataset(window, horizon):
        return prepare_dataset(trips, DEFAULT_SCHEMA, window, horizon,
                               savgol_window=21, savgol_order=2,
                               target_period_s=5.0, train_n=120, val_n=24,
                               test_n=24, seed=13)

    model_fields = dict(n_features=15, n_targets=2, d_model=16, n_heads=2,
                        enc_layers=1, dec_layers=1, ffn_width=16,
                        lstm_layers=1)
    cfg = TrainConfig(epochs=1, batch_size=32, learning_rate=1e-3, seed=0)
    cases = [(12, 6), (30, 6), (50, 30)]
    report = run_grid(list(KINDS), cases, make_dataset, cfg,
                      model_fields=model_fields, seed=9,
                      target_names=DEFAULT_SCHEMA.target_channels)

    assert len(report.cells) == 15
    failures = [(c.kind, c.window, c.horizon, c.error)
                for c in report.cells if c.status != "ok"]
    assert not failures, failures

    table = report.format_table()
    for w, h in cases:
        assert f"Case W={w}, H={h}" in table
    for kind in KINDS:
        assert kind in table
    for label in ("Params", "Training error", "Validation error",
                  "Testing error", "R² (test)"):
        assert label in table

    assert report.annotations
    assert all("non-binding" in note for note in report.annotations)
    assert any("larger W" in note for note in report.annotations)


# -------------------------------------------------- 8. determinism

def test_identical_train_runs_are_bit_identical(tmp_path):
    config = {
        "seed": 7,
        "data": {"n_trips": 6, "trip_length": 600, "sample_period_s": 0.5,
                 "target_period_s": 2.0, "savgol_window": 9,
                 "savgol_order": 2, "window": 6, "horizon": 3,
                 "train_n": 120, "val_n": 30, "test_n": 30},
        "model": {"kind": "lstm", "d_model": 16, "n_heads": 2,
                  "enc_layers": 1, "dec_layers": 1, "ffn_width": 16,
                  "lstm_layers": 1},
        "train": {"epochs": 2, "batch_size": 32},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(b)]) == 0
    assert ((a / "checkpoint.ckpt").read_bytes()
            == (b / "checkpoint.ckpt").read_bytes())
    assert ((a / "report.json").read_bytes()
            == (b / "report.json").read_bytes())


# ------------------------------------------- 9. pipeline invariants

TINY_SCHEMA = FeatureSchema(input_channels=("a", "b"), target_channels=("b",))


def _const_trip(trip_id, length, value):
    channels = {"a": np.full(length, value), "b": np.full(length, value + 0.5)}
    return TripSeries(trip_id, 1.0, channels)


@given(length=st.integers(1, 60), window=st.integers(1, 12),
       horizon=st.integers(1, 8))
def test_window_count_property(length, window, horizon):
    rng = np.random.default_rng(length * 1000 + window * 10 + horizon)
    trip = TripSeries("t", 1.0, {"a": rng.normal(size=length),
                                 "b": rng.normal(size=length)})
    samples = make_windows(trip, TINY_SCHEMA, window, horizon)
    assert len(samples) == max(length - window - horizon + 1, 0)


def test_windows_never_cross_trip_boundaries():
    trips = [_const_trip(f"t{i}", 30, float(i)) for i in range(3)]
    for window, horizon in ((5, 3), (12, 6)):
        for i, trip in enumerate(trips):
            for s in make_windows(trip, TINY_SCHEMA, window, horizon):
                assert np.all(s.x_enc[:, 0] == float(i))
                assert 0 <= s.start <= 30 - window - horizon


def test_normalization_round_trip_and_shuffle_permutation():
    rng = np.random.default_rng(21)
    trips = [TripSeries(f"t{i}", 1.0, {"a": rng.normal(size=30),
                                       "b": rng.normal(size=30)})
             for i in range(3)]
    samples = [s for t in trips for s in make_windows(t, TINY_SCHEMA, 5, 3)]
    assert len(samples) == 69
    split = normalize_and_split(samples, 50, 10, 9, seed=1)

    originals = {(s.trip_id, s.start): s for s in samples}
    seen = []
    stats = split.stats
    for portion in (split.train, split.validation, split.test):
        for s in portion:
            seen.append((s.trip_id, s.start))
            orig = originals[(s.trip_id, s.start)]
            x_back = s.x_enc * stats.input_std + stats.input_mean
            assert np.max(np.abs(x_back - orig.x_enc)) < 1e-9
            y_back = stats.denormalize_targets(s.y)
            assert np.max(np.abs(y_back - orig.y)) < 1e-9
    # the split is a permutation of the inputs: every sample exactly once
    assert sorted(seen) == sorted(originals)
