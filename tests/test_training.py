"""Metrics, optimizers, the training loop, evaluation, and the grid runner.

Numeric examples are frozen from hand arithmetic (MSE of [0,0] vs [1,3] is
(1+9)/2; R² of [1,2,4] vs [1,2,3] is 1 - 1/2). Behavioral contracts run on
deliberately tiny models so the whole file stays fast.
"""

import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripcast import worker as W
from tripcast.models import DECODER_INPUT_KINDS, KINDS, Model, ModelSpec, build
from tripcast.pipeline import (
    DEFAULT_SCHEMA,
    NormStats,
    Windows,
    normalize_and_split,
    prepare_dataset,
)
from tripcast.synth import synthesize_trips
from tripcast.tensor import ShapeError, Tensor, no_grad
from tripcast.training import (
    Adam,
    GridCell,
    GridReport,
    TrainConfig,
    _forward,
    _no_tape_batches,
    _predict_ar,
    _teacher_forced_loss,
    clip_gradients,
    evaluate,
    evaluate_split,
    mse_loss,
    r_squared,
    run_grid,
    train,
)
from tripcast.worker import _blas_leaves_a_core, _worker_allowed, pair

TINY_MODEL = dict(window=4, horizon=2, n_features=15, n_targets=2,
                  d_model=16, n_heads=2, enc_layers=1, dec_layers=1,
                  ffn_width=16, lstm_layers=1)


@pytest.fixture(scope="module")
def tiny_split():
    trips = synthesize_trips(3, 260, seed=0)
    return prepare_dataset(trips, DEFAULT_SCHEMA, window=4, horizon=2,
                           savgol_window=9, savgol_order=2,
                           target_period_s=1.0, train_n=150, val_n=30,
                           test_n=30, seed=0)


def teacher_forced_loss(model, windows, batch_size=64):
    xs, teach, ys = windows.x_enc, windows.teacher, windows.y
    total = 0.0
    with no_grad():
        for lo in range(0, len(xs), batch_size):
            hi = min(lo + batch_size, len(xs))
            pred = model.forward(xs[lo:hi], teacher=teach[lo:hi],
                                 training=True)
            total += float(np.mean((pred.data - ys[lo:hi]) ** 2)) * (hi - lo)
    return total / len(xs)


class TestMseLoss:
    def test_identity_is_zero(self, rng):
        x = rng.standard_normal((2, 3, 2))
        assert float(mse_loss(Tensor(x), x).data) == 0.0

    def test_unit_offset_is_one(self, rng):
        x = rng.standard_normal((2, 3, 2))
        assert float(mse_loss(Tensor(x + 1.0), x).data) == pytest.approx(1.0)

    def test_hand_example(self):
        pred = Tensor(np.array([0.0, 0.0]))
        target = np.array([1.0, 3.0])
        assert float(mse_loss(pred, target).data) == pytest.approx(5.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor(np.zeros((2, 2))), np.zeros((2, 3)))

    def test_gradient_is_scaled_residual(self, rng):
        xv = rng.standard_normal((3, 4))
        tv = rng.standard_normal((3, 4))
        x = Tensor(xv.copy(), requires_grad=True)
        mse_loss(x, tv).backward()
        np.testing.assert_allclose(x.grad, 2.0 * (xv - tv) / 12.0, atol=1e-12)


class TestRSquared:
    def test_perfect_prediction(self):
        t = np.array([1.0, 2.0, 5.0])
        assert r_squared(t, t) == pytest.approx(1.0)

    def test_mean_prediction_is_zero(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        assert r_squared(np.full(4, 2.5), t) == pytest.approx(0.0)

    def test_hand_example(self):
        assert r_squared([1.0, 2.0, 4.0], [1.0, 2.0, 3.0]) \
            == pytest.approx(0.5)

    def test_zero_variance_is_nan(self):
        assert math.isnan(r_squared([1.0, 2.0], [3.0, 3.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            r_squared([1.0, 2.0], [1.0])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            r_squared([1.0], [1.0])

    def test_never_exceeds_one(self, rng):
        for _ in range(20):
            p = rng.standard_normal(10)
            t = rng.standard_normal(10)
            assert r_squared(p, t) <= 1.0


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    a=st.floats(min_value=0.01, max_value=100.0),
    b=st.floats(min_value=-50.0, max_value=50.0),
)
@settings(max_examples=40)
def test_r_squared_affine_invariance(seed, a, b):
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(30)
    p = t + 0.3 * rng.standard_normal(30)
    base = r_squared(p, t)
    scaled = r_squared(a * p + b, a * t + b)
    assert scaled == pytest.approx(base, abs=1e-9)


class TestOptimizers:
    def _param(self, rng, shape=(3, 2)):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    def test_adam_zero_grad_is_fixed_point(self, rng):
        p = self._param(rng)
        before = p.data.copy()
        opt = Adam([("p", p)], lr=0.1)
        opt.step({"p": np.zeros_like(p.data)})
        np.testing.assert_array_equal(p.data, before)
        np.testing.assert_array_equal(opt.m["p"], np.zeros_like(before))

    def test_adam_first_step_magnitude_is_lr(self, rng):
        p = self._param(rng)
        before = p.data.copy()
        g = rng.standard_normal(p.data.shape) * 4.0
        Adam([("p", p)], lr=1e-3).step({"p": g})
        delta = p.data - before
        # bias correction makes the first update lr * sign(g) up to epsilon
        np.testing.assert_allclose(np.abs(delta), 1e-3, rtol=1e-4)
        np.testing.assert_array_equal(np.sign(delta), -np.sign(g))

    def test_adam_deterministic(self, rng):
        gs = [rng.standard_normal((4,)) for _ in range(5)]
        results = []
        for _ in range(2):
            p = Tensor(np.ones(4), requires_grad=True)
            opt = Adam([("p", p)], lr=0.01)
            for g in gs:
                opt.step({"p": g.copy()})
            results.append(p.data.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_non_finite_gradient_names_parameter(self, rng):
        p = self._param(rng)
        g = np.full(p.data.shape, np.nan)
        with pytest.raises(FloatingPointError, match="'p'"):
            Adam([("p", p)], lr=0.1).step({"p": g})

    def test_clip_rescales_to_max_norm(self):
        grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
        pre = clip_gradients(grads, 1.0)
        assert pre == pytest.approx(5.0)
        post = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert post == pytest.approx(1.0)

    def test_clip_leaves_small_gradients_alone(self):
        grads = {"a": np.array([0.3, 0.4])}
        pre = clip_gradients(grads, 1.0)
        assert pre == pytest.approx(0.5)
        np.testing.assert_array_equal(grads["a"], [0.3, 0.4])

    def test_clip_none_disables(self):
        grads = {"a": np.array([30.0, 40.0])}
        clip_gradients(grads, None)
        np.testing.assert_array_equal(grads["a"], [30.0, 40.0])


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.batch_size, cfg.patience) == (200, 64, 20)
        assert cfg.learning_rate == pytest.approx(1e-3)
        assert cfg.grad_clip_norm == pytest.approx(1.0)

    def test_all_problems_reported_together(self):
        with pytest.raises(ValueError) as err:
            TrainConfig(epochs=0, learning_rate="fast", patience=-1)
        msg = str(err.value)
        assert msg == ("train.epochs must be a positive integer, got 0; "
                       "train.learning_rate must be a positive number, got "
                       "'fast'; train.patience must be a non-negative integer, "
                       "got -1")

    def test_target_r2_cannot_exceed_one(self):
        with pytest.raises(ValueError):
            TrainConfig(target_val_r2=1.5)


class TestTrainLoop:
    def test_loss_decreases_for_most_seeds(self, tiny_split):
        spec = ModelSpec(kind="lstm", **TINY_MODEL)
        decreased = 0
        for seed in range(20):
            model = build(spec, seed=seed)
            init = teacher_forced_loss(model, tiny_split.train)
            cfg = TrainConfig(epochs=1, batch_size=32, seed=seed, patience=20)
            model, log = train(model, tiny_split, cfg)
            if log.entries[0].train_loss < init:
                decreased += 1
        assert decreased >= 18

    @pytest.mark.parametrize("batch_size", [8, 64])    # whole, two halves
    def test_non_finite_loss_raised_before_any_update(self, tiny_split,
                                                      batch_size):
        t = tiny_split.train
        nan_rows = Windows(t.x_enc, t.teacher, np.full_like(t.y, np.nan),
                           t.trip_id, t.start)
        split = replace(tiny_split, train=nan_rows)
        model = build(ModelSpec(kind="lstm", **TINY_MODEL), seed=0)
        before = [p.data.copy() for _, p in model.named_params()]
        with pytest.raises(FloatingPointError, match=r"non-finite training "
                           r"loss \(nan\) at epoch 0, batch 0$"):
            train(model, split, TrainConfig(epochs=1, batch_size=batch_size))
        assert all(np.array_equal(p.data, b) for (_, p), b
                   in zip(model.named_params(), before))

    @pytest.mark.parametrize("kind", KINDS)
    def test_paired_steps_match_whole_batch_steps(self, kind, tiny_split,
                                                  monkeypatch):
        # a 65-row batch runs as halves of 32 and 33 rows; at every step
        # their row-weighted sum is the whole batch's loss and gradient at
        # the weights the step starts from
        spec = ModelSpec(kind=kind, **TINY_MODEL)
        rows = tiny_split.train[:65]
        cfg = TrainConfig(epochs=2, batch_size=65, grad_clip_norm=None)
        stepped, adam_step = [], Adam.step

        def step(opt, grads):
            stepped.append(({n: p.data.copy() for n, p in opt.params},
                            {n: g.copy() for n, g in grads.items()}))
            adam_step(opt, grads)

        monkeypatch.setattr(Adam, "step", step)
        _, log = train(build(spec, seed=0), replace(tiny_split, train=rows),
                       cfg)
        model = build(spec, seed=0)
        rng = np.random.default_rng(cfg.seed)
        for entry, (weights, grads) in zip(log.entries, stepped, strict=True):
            order = rng.permutation(65)
            for name, p in model.named_params():
                p.data = weights[name]
            loss = mse_loss(model.forward(rows.x_enc[order],
                                          teacher=rows.teacher[order],
                                          training=True), rows.y[order])
            loss.backward()
            assert entry.train_loss == pytest.approx(float(loss.data),
                                                     rel=1e-12)
            for name, p in model.named_params():
                np.testing.assert_allclose(grads[name], p.grad, rtol=1e-9,
                                           atol=1e-15, err_msg=name)
                p.zero_grad()

    def test_best_restore_matches_logged_minimum(self, tiny_split):
        spec = ModelSpec(kind="lstm", **TINY_MODEL)
        model = build(spec, seed=1)
        cfg = TrainConfig(epochs=4, batch_size=32, seed=1)
        model, log = train(model, tiny_split, cfg)
        assert log.best_val_loss == min(e.val_loss for e in log.entries)
        recomputed = teacher_forced_loss(model, tiny_split.validation, 32)
        assert recomputed == pytest.approx(log.best_val_loss, rel=1e-12)

    def test_patience_zero_stops_at_first_regression(self):
        # pure-noise targets cannot keep improving, so patience=0 must cut
        # the run at the first epoch whose validation loss fails to improve
        rng = np.random.default_rng(8)
        rows = [(rng.standard_normal((2, 2)), rng.standard_normal((1, 1)),
                 rng.standard_normal((1, 1))) for _ in range(50)]
        xs, teach, ys = (np.stack(a) for a in zip(*rows))
        samples = Windows(xs, teach, ys, np.full(50, "noise"), np.arange(50))
        split = normalize_and_split(samples, 36, 7, 7, seed=0)
        spec = ModelSpec(kind="lstm", window=2, horizon=1, n_features=2,
                         n_targets=1, d_model=8, n_heads=2, enc_layers=1,
                         dec_layers=1, ffn_width=8, lstm_layers=1)
        model = build(spec, seed=0)
        cfg = TrainConfig(epochs=50, batch_size=18, seed=0, patience=0)
        model, log = train(model, split, cfg)
        assert len(log.entries) < 50
        assert "early stop" in log.stop_reason
        vals = [e.val_loss for e in log.entries]
        for i in range(len(vals) - 1):
            assert vals[i] == min(vals[: i + 1])  # every prior epoch improved
        assert vals[-1] >= min(vals[:-1])

    def test_target_val_r2_stops_immediately_when_met(self, tiny_split):
        spec = ModelSpec(kind="lstm", **TINY_MODEL)
        model = build(spec, seed=2)
        cfg = TrainConfig(epochs=10, batch_size=32, seed=2,
                          target_val_r2=-100.0)
        model, log = train(model, tiny_split, cfg)
        assert len(log.entries) == 1
        assert "target validation" in log.stop_reason

    def test_training_is_deterministic(self, tiny_split):
        spec = ModelSpec(kind="lstm", **TINY_MODEL)
        final = []
        for _ in range(2):
            model = build(spec, seed=3)
            cfg = TrainConfig(epochs=2, batch_size=32, seed=3)
            model, _ = train(model, tiny_split, cfg)
            final.append({n: p.data.copy() for n, p in model.named_params()})
        for name in final[0]:
            np.testing.assert_array_equal(final[0][name], final[1][name])

    def test_shape_mismatch_between_model_and_data(self, tiny_split):
        spec = ModelSpec(kind="lstm", **{**TINY_MODEL, "window": 7})
        model = build(spec, seed=0)
        with pytest.raises(ShapeError):
            train(model, tiny_split, TrainConfig(epochs=1))

    def test_teacher_forced_loss_reproducible_across_passes(self, tiny_split):
        # no hidden state may leak between forward passes
        spec = ModelSpec(kind="v_tst", **TINY_MODEL)
        model = build(spec, seed=4)
        a = teacher_forced_loss(model, tiny_split.validation, 16)
        b = teacher_forced_loss(model, tiny_split.validation, 16)
        assert a == b

    def test_decoder_kind_trains(self, tiny_split):
        spec = ModelSpec(kind="v_tst", **TINY_MODEL)
        model = build(spec, seed=5)
        model, log = train(model, tiny_split,
                           TrainConfig(epochs=1, batch_size=64, seed=5))
        assert len(log.entries) == 1
        assert math.isfinite(log.entries[0].train_loss)


class TestEvaluate:
    def test_report_echoes_model_and_counts(self, tiny_split):
        spec = ModelSpec(kind="lstm", **TINY_MODEL)
        model = build(spec, seed=6)
        rep = evaluate(model, tiny_split.test, tiny_split.stats,
                       DEFAULT_SCHEMA.target_channels, "test", 16)
        assert (rep.kind, rep.window, rep.horizon) == ("lstm", 4, 2)
        assert rep.split == "test"
        assert rep.n_samples == len(tiny_split.test)
        assert rep.param_count == model.count_parameters()
        assert set(rep.r2_per_target) == {"soc", "batt_temp"}
        assert rep.wall_clock_seconds > 0

    def test_mse_matches_direct_recompute(self, tiny_split):
        spec = ModelSpec(kind="lstm", **TINY_MODEL)
        model = build(spec, seed=6)
        rep = evaluate(model, tiny_split.test, tiny_split.stats,
                       DEFAULT_SCHEMA.target_channels, "test", 16)
        test = tiny_split.test
        xs, teach, ys = test.x_enc, test.teacher, test.y
        with no_grad():
            preds = np.concatenate([
                model.forward(xs[lo:lo + 16], start=teach[lo:lo + 16, 0, :],
                              training=False).data
                for lo in range(0, len(xs), 16)
            ])
        assert rep.mse == pytest.approx(float(np.mean((preds - ys) ** 2)),
                                        rel=1e-12)

    def test_r2_computed_in_physical_units(self, tiny_split):
        # scaling target normalization stats must not change reported R²
        # because predictions are denormalized before scoring
        spec = ModelSpec(kind="lstm", **TINY_MODEL)
        model = build(spec, seed=7)
        rep_a = evaluate(model, tiny_split.test, tiny_split.stats,
                         DEFAULT_SCHEMA.target_channels, "test", 16)
        stats_b = NormStats(tiny_split.stats.input_mean,
                            tiny_split.stats.input_std,
                            tiny_split.stats.target_mean * 2.0 + 1.0,
                            tiny_split.stats.target_std * 3.0)
        rep_b = evaluate(model, tiny_split.test, stats_b,
                         DEFAULT_SCHEMA.target_channels, "test", 16)
        for name in rep_a.r2_per_target:
            assert rep_b.r2_per_target[name] == pytest.approx(
                rep_a.r2_per_target[name], abs=1e-9)

    def test_zero_variance_target_flagged(self, rng):
        spec = ModelSpec(kind="lstm", window=3, horizon=2, n_features=2,
                         n_targets=1, d_model=8, n_heads=2, enc_layers=1,
                         dec_layers=1, ffn_width=8, lstm_layers=1)
        model = build(spec, seed=0)
        xs = np.stack([rng.standard_normal((3, 2)) for _ in range(6)])
        samples = Windows(xs, np.zeros((6, 2, 1)), np.zeros((6, 2, 1)),
                          np.full(6, "flat"), np.arange(6))
        stats = NormStats(np.zeros(2), np.ones(2), np.zeros(1), np.ones(1))
        rep = evaluate(model, samples, stats, ("flat",), "test", 4)
        assert rep.r2_defined["flat"] is False
        assert math.isnan(rep.r2_per_target["flat"])

    def test_empty_samples_rejected(self, tiny_split):
        model = build(ModelSpec(kind="lstm", **TINY_MODEL), seed=0)
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, tiny_split.test[:0], tiny_split.stats)

    def test_no_future_ground_truth_used(self, tiny_split):
        # zeroing every teacher value after the seed position must leave
        # all reported metrics unchanged for an autoregressive decoder
        import copy

        spec = ModelSpec(kind="v_tst", **TINY_MODEL)
        model = build(spec, seed=8)
        rep_a = evaluate(model, tiny_split.test, tiny_split.stats,
                         DEFAULT_SCHEMA.target_channels, "test", 16)
        wiped = copy.deepcopy(tiny_split.test)
        wiped.teacher[:, 1:] = 0.0
        rep_b = evaluate(model, wiped, tiny_split.stats,
                         DEFAULT_SCHEMA.target_channels, "test", 16)
        assert rep_a.mse == rep_b.mse
        assert rep_a.r2_pooled == rep_b.r2_pooled

    def test_to_dict_leaves_out_timing(self, tiny_split):
        model = build(ModelSpec(kind="lstm", **TINY_MODEL), seed=0)
        rep = evaluate(model, tiny_split.test, tiny_split.stats,
                       DEFAULT_SCHEMA.target_channels, "test", 16)
        assert rep.wall_clock_seconds > 0
        assert "wall_clock_seconds" not in rep.to_dict()


def _row_windows(n, spec, rng):
    """``n`` random windows whose first input value is the row index."""
    x = rng.standard_normal((n, spec.window, spec.n_features))
    x[:, 0, 0] = np.arange(n)
    teach = rng.standard_normal((n, spec.horizon, spec.n_targets))
    return Windows(x, teach, rng.standard_normal(teach.shape),
                   np.full(n, "t"), np.arange(n))


@pytest.fixture
def forward_spy(monkeypatch):
    """Record ``(first row, rows)`` of every ``Model.forward`` call, and in
    ``finished`` each call's first row as it returns or raises. A call
    whose first row is in ``slow`` pauses first; one in ``fail`` raises."""
    calls, slow, fail, finished = [], set(), set(), []
    lock = threading.Lock()
    forward = Model.forward

    def spy(self, x, *args, **kwargs):
        row = int(x[0, 0, 0])
        with lock:
            calls.append((row, len(x)))
        try:
            if row in slow:
                time.sleep(0.05)
            if row in fail:
                raise FloatingPointError(f"half from row {row}")
            return forward(self, x, *args, **kwargs)
        finally:
            with lock:
                finished.append(row)

    monkeypatch.setattr(Model, "forward", spy)
    return calls, slow, fail, finished


class TestPair:
    """``pair`` returns its two halves' results in order whether the first
    runs in the worker process, inline before the second, or after it."""

    SPEC = ModelSpec(kind="tst_lstm", **TINY_MODEL)

    @pytest.mark.parametrize("environ, cpus, on", [
        ({}, {0, 1}, False),        # unset: OpenBLAS takes every core
        ({"OPENBLAS_NUM_THREADS": "1"}, {0, 1}, True),
        ({"OPENBLAS_NUM_THREADS": "1"}, {0}, False),
        ({"OPENBLAS_NUM_THREADS": "2"}, {0, 1, 2, 3}, False),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, {0, 1}, False),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, {0, 1}, True),
        ({"OMP_NUM_THREADS": "1"}, {2, 5}, True),
        ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, {0, 1}, True),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, {0, 1}, False),
        ({"MKL_NUM_THREADS": "1"}, {0, 1}, False),
    ])
    def test_worker_runs_only_when_blas_leaves_a_core(self, environ, cpus, on):
        assert _blas_leaves_a_core(environ, cpus) is on

    @pytest.mark.parametrize("environ, cpus, threads, on", [
        ({"OPENBLAS_NUM_THREADS": "1"}, {0, 1}, 1, True),
        ({}, {0, 1}, 1, False),                             # BLAS unpinned
        ({"OPENBLAS_NUM_THREADS": "1"}, {1}, 1, False),     # one CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, {0, 1}, 2, False),  # another thread
    ])
    def test_worker_forked_only_alone_and_with_a_core_to_spare(
            self, environ, cpus, threads, on):
        assert _worker_allowed(environ, cpus, threads) is on

    def _halves(self, model, x, start):
        return np.concatenate(pair(
            _forward, (x[:32], {"start": start[:32]}),
            (x[32:], {"start": start[32:]}), model)).tobytes()

    def _inputs(self, rng, n=64):
        return (rng.standard_normal((n, 4, 15)),
                rng.standard_normal((n, 2)))

    @pytest.mark.parametrize("mode", ["inline", "process", "late"])
    def test_results_join_in_row_order(self, rng, mode, worker):
        model = build(self.SPEC, seed=0)
        x, start = self._inputs(rng)
        want = np.concatenate([
            model.forward(x[:32], start=start[:32]).data,
            model.forward(x[32:], start=start[32:]).data]).tobytes()
        used = worker(mode)
        assert self._halves(model, x, start) == want
        assert used.calls == (mode != "inline")

    def test_pair_runs_inline_while_another_thread_holds_the_worker(
            self, rng, worker):
        model = build(self.SPEC, seed=0)
        x, start = self._inputs(rng)
        used = worker("process")
        want = self._halves(model, x, start)
        with used.lock:
            assert self._halves(model, x, start) == want
        assert used.calls == 1

    def test_a_cut_off_exchange_restarts_the_worker(self, rng, worker):
        # a task whose reply was never read, as when Ctrl-C lands between
        # the two, would hand the next pair a stale reply
        model = build(self.SPEC, seed=0)
        x, start = self._inputs(rng)
        used = worker("process")
        want = self._halves(model, x, start)
        key, _, _ = used.bind(model)
        used.send(("run", key, _forward, (x[32:], {"start": start[32:]})))
        used.busy = True
        pid = used.process.pid
        assert self._halves(model, x, start) == want
        assert used.process.pid != pid

    def test_many_pairs_over_several_models_keep_their_bytes(self, worker):
        # each model has its own block, and Adam-style in-place updates and
        # rebound parameters between pairs must reach the worker's replica;
        # a reply handed to the wrong pair, or a stale replica, changes bytes
        def run():
            rng = np.random.default_rng(3)
            models = [build(replace(self.SPEC, kind=k), seed=1)
                      for k in ("tst_lstm", "v_tst", "lstm")]
            out = []
            for i in range(24):
                model = models[i % 3]
                x, start = self._inputs(rng)
                out.append(self._halves(model, x, start))
                _, p = model.named_params()[i % 5]
                if i % 2:
                    p.data += 0.01              # in place, as Adam.step
                else:
                    p.data = p.data * 0.99      # rebound, as a restore
            return out

        worker("inline")
        inline = run()
        used = worker("process")
        assert run() == inline
        assert used.calls == 24

    @pytest.mark.parametrize("failing", ["first", "second", "both"])
    @pytest.mark.parametrize("mode", ["inline", "late"])
    def test_failure_raised_after_the_other_finished(self, mode, failing,
                                                     rng, worker,
                                                     forward_spy):
        _, slow, fail, finished = forward_spy
        rows = {"first": [0], "second": [32], "both": [0, 32]}[failing]
        fail.update(rows)
        slow.update({0, 32} - set(rows))    # slower than the failing half
        worker(mode)
        x, start = self._inputs(rng)
        x[:, 0, 0] = np.arange(64)
        with pytest.raises(FloatingPointError) as raised:
            self._halves(build(self.SPEC, seed=0), x, start)
        assert sorted(finished) == [0, 32]
        assert str(raised.value) == f"half from row {max(rows)}"

    @pytest.mark.parametrize("case", ["BLAS unpinned", "one CPU",
                                      "another thread"])
    def test_gate_keeps_the_halves_inline(self, case, rng, monkeypatch):
        # the real gate, not the fixture's: no process is started and the
        # bytes are those of the halves run in turn
        model = build(self.SPEC, seed=0)
        x, start = self._inputs(rng)
        want = np.concatenate([
            model.forward(x[:32], start=start[:32]).data,
            model.forward(x[32:], start=start[32:]).data]).tobytes()
        for var in W._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        if case != "BLAS unpinned":
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        cpus = {1} if case == "one CPU" else {0, 1}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        fresh = W._Worker()
        monkeypatch.setattr(W, "_worker", fresh)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        if case == "another thread":
            other.start()
        try:
            got = self._halves(model, x, start)
        finally:
            stop.set()
            if other.is_alive():
                other.join(10)
            started = fresh.process is not None
            fresh.close(kill=True)
        assert not started
        assert got == want


SRC = str(Path(__file__).resolve().parent.parent / "src")

# one v_tst pair in a child interpreter with BLAS at one thread, so that
# the real gate forks the worker
_CHILD_SETUP = """
import json, os, signal, sys, time
import numpy as np
from tripcast import worker as W
from tripcast.models import Model, ModelSpec, build
from tripcast.pipeline import DatasetSplit, NormStats, Windows
from tripcast.training import TrainConfig, evaluate, train
spec = ModelSpec(kind="v_tst", window=4, horizon=2, n_features=15,
                 n_targets=2, d_model=16, n_heads=2, enc_layers=1,
                 dec_layers=1, ffn_width=16)
model = build(spec, seed=0)
rng = np.random.default_rng(0)
x = rng.standard_normal((64, 4, 15))
teach = rng.standard_normal((64, 2, 2))
windows = Windows(x, teach, rng.standard_normal((64, 2, 2)),
                  np.full(64, "t"), np.arange(64))
stats = NormStats(np.zeros(15), np.ones(15), np.zeros(2), np.ones(2))

def report():
    try:
        return json.dumps(evaluate(model, windows, stats).to_dict())
    except RuntimeError as exc:
        return f"RuntimeError: {exc}"

first = report()
worker = W._worker.process
"""

_LIFECYCLE = _CHILD_SETUP + """
print(worker.pid, flush=True)
if sys.argv[1] == "killed":
    time.sleep(120)
"""

# a subreaper, so that the worker, orphaned when its caller is killed, is
# reaped here rather than left a zombie under an init that never reaps
_REAPER = """
import ctypes, os, signal, subprocess, sys, time
libc = ctypes.CDLL(None, use_errno=True)
libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
libc.prctl.restype = ctypes.c_int
if libc.prctl(36, 1, 0, 0, 0) != 0:     # PR_SET_CHILD_SUBREAPER
    sys.exit("prctl failed")
child = subprocess.Popen([sys.executable, "-c", sys.argv[1], sys.argv[2]],
                         stdout=subprocess.PIPE, text=True)
pid = int(child.stdout.readline())
if sys.argv[2] == "killed":
    child.kill()
child.wait(60)
deadline = time.monotonic() + 20
while True:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:       # not (yet) this process's child
        pass
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        print("gone")
        break
    if time.monotonic() > deadline:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        print("alive")
        break
    time.sleep(0.02)
"""

_DEATH = _CHILD_SETUP + """
FLAG = sys.argv[1]
os.kill(worker.pid, signal.SIGKILL)         # between two calls
between = report()
after = report()
open(FLAG, "w").close()                     # the worker dies in its half
during = report()
os.remove(FLAG)
again = report()
restarted = W._worker.process.pid
open(FLAG, "w").close()
from tripcast.cli import main
code = main(["train", "--config", sys.argv[2], "--out", sys.argv[3]])
print(json.dumps({"between": between, "after": after == first,
                  "during": during, "again": again == first,
                  "pids": [worker.pid, restarted],
                  "cli": code}))
"""

# the worker dies in its half when the flag file exists; the patch is in
# place before the first pair, so every worker forked later has it
_DIE_ON_FLAG = """
_forward, _main = Model.forward, os.getpid()
def _forward_or_die(self, *args, **kwargs):
    if os.getpid() != _main and os.path.exists(sys.argv[1]):
        os.kill(os.getpid(), signal.SIGKILL)
    return _forward(self, *args, **kwargs)
Model.forward = Model.__call__ = _forward_or_die
"""

_FORKED = _CHILD_SETUP + """
before = [p.data.copy() for _, p in model.named_params()]
pid = os.fork()
if pid == 0:
    W._worker.conn = None               # a pair sent to it would fail
    same = report() == first
    split = DatasetSplit(windows, windows, windows, stats=stats)
    train(model, split, TrainConfig(epochs=1, batch_size=64))
    try:
        os.waitpid(-1, os.WNOHANG)
        alone = False               # it started a process of its own
    except ChildProcessError:
        alone = True
    os._exit(0 if same and alone else 1)
_, status = os.waitpid(pid, 0)
print(json.dumps({
    "child": os.waitstatus_to_exitcode(status),
    "kept": all(p.data.tobytes() == b.tobytes()
                for (_, p), b in zip(model.named_params(), before)),
    "same": report() == first, "worker": worker is not None}))
"""


# two 3 MiB blocks allocated and freed again and again: a worker forked
# first thing, before the caller had freed any large block, keeps its heap
# and faults no page in after the first round; the caller, with glibc's
# sliding thresholds, gives the heap top back and faults it in every round
_HEAP = """
import json, resource
import numpy as np
from tripcast import worker as W

def _faults(rounds):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(rounds):
        a, b = np.ones(3 << 17), np.ones(3 << 17)
        del a, b
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

W.pair(_faults, (2,), (2,))
print(json.dumps([W._worker.process is not None,
                  W.pair(_faults, (100,), (100,))]))
"""


def _run_child(script, *args, timeout=120):
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.skipif(not hasattr(os, "memfd_create")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="the worker process needs Linux and two CPUs")
class TestWorkerProcess:
    """The real worker, in child interpreters with BLAS at one thread."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap settings are glibc's")
    def test_worker_keeps_its_freed_heap(self):
        proc = _run_child(_HEAP)
        assert proc.returncode == 0, proc.stderr
        ran, (worker, caller) = json.loads(proc.stdout)
        assert ran
        assert caller > 10_000 and worker < caller // 100

    @pytest.mark.parametrize("how", ["exits", "killed"])
    def test_worker_ends_with_its_caller(self, how):
        proc = _run_child(_REAPER, _LIFECYCLE, how)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["gone"]

    def test_dead_worker_raises_and_the_next_call_recovers(self, tmp_path):
        cfg = {"seed": 7, "data": {
            "n_trips": 3, "trip_length": 400, "sample_period_s": 1.0,
            "target_period_s": 1.0, "savgol_window": 9, "savgol_order": 2,
            "window": 4, "horizon": 2, "train_n": 64, "val_n": 8,
            "test_n": 8}, "model": {
            "kind": "lstm", "d_model": 8, "n_heads": 2, "lstm_layers": 1},
            "train": {"epochs": 1, "batch_size": 64}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        script = _CHILD_SETUP.replace(
            "first = report()", _DIE_ON_FLAG + "first = report()") + \
            _DEATH[len(_CHILD_SETUP):]
        proc = _run_child(script, str(tmp_path / "flag"),
                          str(tmp_path / "cfg.json"), str(tmp_path / "run"))
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        killed, restarted = out["pids"]
        assert out["between"] == (f"RuntimeError: the tripcast worker "
                                  f"process (pid {killed}) died with exit "
                                  f"code -9")
        assert out["during"].startswith("RuntimeError: the tripcast worker")
        assert out["after"] and out["again"]
        assert out["cli"] == 2
        assert "runtime failure: the tripcast worker" in proc.stderr
        assert restarted not in (None, killed)

    def test_forked_child_runs_inline_and_keeps_its_weights_apart(self):
        proc = _run_child(_FORKED)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {
            "child": 0, "kept": True, "same": True, "worker": True}


class TestNoTapeBatches:
    """Evaluation and the validation loss run each batch of at least 64 rows
    as two halves, one per core, and its bits depend only on the rows."""

    SPEC = ModelSpec(kind="v_tst", **TINY_MODEL)

    def _run(self, path, n, batch_size, rng):
        model = build(self.SPEC, seed=0)
        windows = _row_windows(n, self.SPEC, rng)
        if path == "evaluate":
            stats = NormStats(np.zeros(15), np.ones(15), np.zeros(2),
                              np.ones(2))
            evaluate(model, windows, stats, batch_size=batch_size)
        else:
            _teacher_forced_loss(model, windows.x_enc, windows.teacher,
                                 windows.y, batch_size)

    @pytest.mark.parametrize("path", ["evaluate", "validation loss"])
    @pytest.mark.parametrize("n, calls", [
        (63, [(0, 63)]),
        (64, [(0, 32), (32, 32)]),
        (130, [(0, 32), (32, 32), (64, 32), (96, 32), (128, 2)]),
    ])
    def test_batches_of_64_rows_or_more_run_as_halves(self, path, n, calls,
                                                       rng, worker,
                                                       forward_spy):
        worker("inline")
        self._run(path, n, 64, rng)
        assert forward_spy[0] == calls
        # handed to a worker, a batch's first half runs after its second
        forward_spy[0].clear()
        worker("late")
        self._run(path, n, 64, rng)
        assert sorted(forward_spy[0]) == calls

    @pytest.mark.parametrize("failing", [0, 32])
    def test_a_failing_half_raises_after_the_other_finished(self, failing,
                                                            rng, worker,
                                                            forward_spy):
        worker("late")
        _, slow, fail, finished = forward_spy
        fail.add(failing)
        slow.add(32 - failing)
        with pytest.raises(FloatingPointError, match=f"row {failing}$"):
            self._run("evaluate", 64, 64, rng)
        assert sorted(finished) == [0, 32]

    def test_outputs_keep_their_bytes_wherever_the_halves_run(self, worker):
        # every kind, at 64-row batches: train (with the autoregressive
        # validation of target_val_r2) and evaluate give the same bytes
        # with the first half inline, in the worker process, or after the
        # second
        trips = synthesize_trips(3, 260, seed=0)
        split = prepare_dataset(trips, DEFAULT_SCHEMA, window=4, horizon=2,
                                savgol_window=9, savgol_order=2,
                                target_period_s=1.0, train_n=64, val_n=64,
                                test_n=64, seed=0)
        cfg = TrainConfig(epochs=2, batch_size=64, seed=0, target_val_r2=1.0)

        def outputs(kind):
            model, log = train(build(ModelSpec(kind=kind, **TINY_MODEL), 0),
                               split, cfg)
            entries = [{**asdict(e), "seconds": None} for e in log.entries]
            reports = evaluate_split(model, split,
                                     DEFAULT_SCHEMA.target_channels, 64)
            return json.dumps([entries, log.stop_reason,
                               {k: r.to_dict() for k, r in reports.items()},
                               [p.data.tolist()
                                for _, p in model.named_params()]])

        for kind in KINDS:
            runs = {}
            for mode in ("inline", "process", "late"):
                used = worker(mode)
                runs[mode] = outputs(kind)
                assert (used.calls > 0) == (mode != "inline")
            assert runs["process"] == runs["inline"], kind
            assert runs["late"] == runs["inline"], kind

    def test_bits_follow_the_row_count_where_gemm_bits_do(self, rng,
                                                           worker):
        # at this enc_tst shape one 64-row head GEMM and two 32-row ones
        # differ in the last bits (OpenBLAS 0.3.31, x86_64), so a split
        # that depended on where the halves run would show here
        spec = ModelSpec(kind="enc_tst", window=12, horizon=6, d_model=128,
                         n_heads=2, enc_layers=1, ffn_width=16)
        model = build(spec, seed=0)
        w = _row_windows(64, spec, rng)
        outs = set()
        for mode in ("inline", "process", "late"):
            worker(mode)
            outs.add((_predict_ar(model, w.x_enc, w.teacher, 64).tobytes(),
                      _teacher_forced_loss(model, w.x_enc, w.teacher, w.y,
                                           64)))
        assert len(outs) == 1


@given(kind=st.sampled_from(DECODER_INPUT_KINDS),
       window=st.integers(1, 6), horizon=st.integers(1, 5),
       n_features=st.integers(1, 4), n_targets=st.integers(1, 3),
       n_heads=st.integers(1, 2), head_width=st.integers(1, 4),
       layers=st.integers(1, 2), rows=st.integers(1, 70),
       seed=st.integers(0, 2**16))
@example(kind="v_tst", window=3, horizon=4, n_features=2, n_targets=2,
         n_heads=2, head_width=2, layers=1, rows=64, seed=0)
@example(kind="tst_lstm", window=3, horizon=4, n_features=2, n_targets=2,
         n_heads=2, head_width=2, layers=1, rows=65, seed=0)
@settings(max_examples=100, derandomize=True)
def test_autoregressive_decoding_equals_teacher_forcing_property(
        kind, window, horizon, n_features, n_targets, n_heads, head_width,
        layers, rows, seed):
    # in 64-row batches, which run as two halves, and in smaller ones, the
    # forecast equals a teacher-forced pass fed the forecast, byte for byte
    spec = ModelSpec(kind=kind, window=window, horizon=horizon,
                     n_features=n_features, n_targets=n_targets,
                     d_model=2 * n_heads * head_width, n_heads=n_heads,
                     enc_layers=layers, dec_layers=layers, ffn_width=8)
    model = build(spec, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, window, n_features))
    teach = rng.standard_normal((rows, horizon, n_targets))
    ar = _predict_ar(model, x, teach, 64)
    fed = np.concatenate([teach[:, :1], ar[:, :-1]], axis=1)
    tf = np.concatenate(_no_tape_batches(model, x, 64, teacher=fed))
    assert ar.tobytes() == tf.tobytes()


@pytest.fixture(scope="module")
def grid_inputs():
    trips = synthesize_trips(3, 200, seed=1)

    def make_dataset(window, horizon):
        return prepare_dataset(trips, DEFAULT_SCHEMA, window, horizon,
                               savgol_window=9, savgol_order=2,
                               target_period_s=1.0, train_n=100,
                               val_n=20, test_n=20, seed=0)

    # run_grid replaces the kind, window and horizon in every cell
    spec = ModelSpec(kind="v_tst", **TINY_MODEL)
    cfg = TrainConfig(epochs=1, batch_size=32)
    return make_dataset, spec, cfg


class TestGrid:
    def test_full_matrix_and_determinism(self, grid_inputs):
        make_dataset, spec, cfg = grid_inputs
        kinds = ["lstm", "enc_tst"]
        cases = [(3, 2), (5, 2)]
        rep1 = run_grid(kinds, cases, make_dataset, cfg,
                        spec, seed=3)
        rep2 = run_grid(kinds, cases, make_dataset, cfg,
                        spec, seed=3)
        assert len(rep1.cells) == 4
        assert all(c.status == "ok" for c in rep1.cells)
        assert rep1.to_dict() == rep2.to_dict()
        assert all("seconds" not in c for c in rep1.to_dict()["cells"])

    def test_single_cell_equals_direct_train(self, grid_inputs):
        make_dataset, spec, cfg = grid_inputs
        rep = run_grid(["lstm"], [(3, 2)], make_dataset, cfg,
                       spec, seed=7)
        cell = rep.cell("lstm", (3, 2))

        build_seed, train_seed = (
            int(s) for s in np.random.SeedSequence((7, 0, 0)).generate_state(2))
        split = make_dataset(3, 2)
        model = build(ModelSpec(**{**TINY_MODEL, "kind": "lstm", "window": 3,
                                   "horizon": 2}), seed=build_seed)
        model, _ = train(model, split,
                         TrainConfig(**{**cfg.__dict__, "seed": train_seed}))
        direct = evaluate(model, split.test, split.stats,
                          DEFAULT_SCHEMA.target_channels, "test",
                          cfg.batch_size)
        assert cell.test_mse == direct.mse
        assert cell.test_r2_pooled == direct.r2_pooled

    def test_cell_failure_is_isolated(self, grid_inputs):
        make_dataset, spec, cfg = grid_inputs

        def flaky(window, horizon):
            if window == 99:
                raise ValueError("boom")
            return make_dataset(window, horizon)

        rep = run_grid(["lstm"], [(3, 2), (99, 2)], flaky, cfg,
                       spec, seed=0)
        ok = rep.cell("lstm", (3, 2))
        bad = rep.cell("lstm", (99, 2))
        assert ok.status == "ok"
        assert bad.status == "failed"
        assert "boom" in bad.error
        assert "failed" in rep.format_table()

    def test_table_layout(self, grid_inputs):
        make_dataset, spec, cfg = grid_inputs
        rep = run_grid(["lstm", "enc_tst"], [(3, 2), (5, 2)], make_dataset,
                       cfg, spec, seed=1)
        table = rep.format_table()
        assert "Case W=3, H=2" in table and "Case W=5, H=2" in table
        for row in ("Params", "Training error", "Validation error",
                    "Testing error", "R² (test)"):
            assert row in table
        # two cases share H=2, so the window-size observation must appear
        assert any("larger W" in a for a in rep.annotations)
        assert any("reference ranking" in a for a in rep.annotations)

    # short kind names get columns as wide as the widest cell, 1,234,567;
    # five kinds fit every cell in the width of enc_tst_dec_lstm
    @pytest.mark.parametrize("kinds, col_w", [(["lstm"], 11),
                                              (["lstm", "v_tst"], 11),
                                              (list(KINDS), 18)])
    def test_table_rows_split_into_one_token_per_kind(self, kinds, col_w):
        cells = [GridCell(kind=k, window=6, horizon=3, param_count=1234567,
                          train_mse=1.0698, val_mse=10.5, test_mse=1.0698,
                          test_r2_pooled=-0.9451) for k in kinds]
        rep = GridReport(kinds=kinds, cases=[(6, 3)], cells=cells,
                         annotations=[])
        lines = rep.format_table().splitlines()
        assert lines[1] == " " * 22 + "".join(f"{k:>{col_w}}" for k in kinds)
        for line, text in zip(lines[2:7], ["1,234,567", "1.0698", "10.5000",
                                           "1.0698", "-0.9451"], strict=True):
            assert line[22:].split() == [text] * len(kinds), line

    def test_missing_cell_lookup_raises(self):
        rep = GridReport(kinds=["lstm"], cases=[(2, 1)],
                         cells=[GridCell(kind="lstm", window=2, horizon=1)],
                         annotations=[])
        with pytest.raises(KeyError):
            rep.cell("v_tst", (2, 1))
