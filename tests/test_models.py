"""Architecture assembly, forward contracts, and checkpoint round trips.

Parameter counts are checked against closed-form arithmetic derived from
the layer definitions, evaluated at a deliberately small configuration.
"""

import re

import numpy as np
import pytest

from tripcast import tensor as T
from tripcast.layers import MultiHeadAttention, causal_mask
from tripcast.models import (
    DECODER_INPUT_KINDS,
    KINDS,
    Model,
    ModelSpec,
    build,
    load_checkpoint,
    save_checkpoint,
)
from tripcast.serialize import write_container
from tripcast.tensor import ShapeError, Tensor, add, no_grad
from tripcast.training import mse_loss

SMALL = dict(window=6, horizon=3, n_features=5, n_targets=2, d_model=16,
             n_heads=2, enc_layers=2, dec_layers=2, ffn_width=24,
             lstm_layers=2)


def small_spec(kind):
    return ModelSpec(kind=kind, **SMALL)


# closed-form parameter counts for the small configuration


def _linear(a, b):
    return a * b + b


def _mha(d):
    # fused q/k/v projections without bias plus the output map
    return 4 * d * d


def _lstm(d_in, h, layers):
    total = 4 * (d_in * h + h * h + h)
    total += (layers - 1) * 4 * (h * h + h * h + h)
    return total


def _enc_block(d, w, sub):
    core = 2 * d + _mha(d) + 2 * d
    if sub == "ffn":
        return core + _linear(d, w) + _linear(w, d)
    return core + _lstm(d, d, 1) + _linear(d, d)


def _dec_block(d, w, sub):
    core = 3 * 2 * d + 2 * _mha(d)
    if sub == "ffn":
        return core + _linear(d, w) + _linear(w, d)
    return core + _lstm(d, d, 1) + _linear(d, d)


def expected_count(kind):
    s = SMALL
    d, w = s["d_model"], s["ffn_width"]
    f, v = s["n_features"], s["n_targets"]
    win, hor = s["window"], s["horizon"]
    embed = _linear(f, d)
    enc = s["enc_layers"] * _enc_block(d, w, "lstm" if kind == "tst_lstm"
                                      else "ffn") + 2 * d
    if kind == "lstm":
        return embed + _lstm(d, d, s["lstm_layers"]) + _linear(d, hor * v)
    if kind == "enc_tst":
        return embed + enc + _linear(win * d, hor * v)
    if kind == "enc_tst_dec_lstm":
        return embed + enc + _lstm(d, d, s["lstm_layers"]) + _linear(d, hor * v)
    sub = "lstm" if kind == "tst_lstm" else "ffn"
    dec = s["dec_layers"] * _dec_block(d, w, sub) + 2 * d
    return embed + enc + _linear(v, d) + dec + _linear(d, v)


class TestSpecValidation:
    def test_defaults_describe_reference_scale(self):
        s = ModelSpec(kind="v_tst")
        assert (s.window, s.horizon) == (12, 6)
        assert (s.d_model, s.n_heads) == (128, 8)
        assert (s.enc_layers, s.dec_layers, s.lstm_layers) == (4, 4, 4)

    def test_unknown_kind_lists_alternatives(self):
        with pytest.raises(ValueError, match="v_tst"):
            ModelSpec(kind="gru")

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="v_tst", d_model=10, n_heads=3)

    def test_positive_fields_enforced(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="lstm", window=0)
        with pytest.raises(ValueError):
            ModelSpec(kind="lstm", horizon=-1)

    def test_dict_round_trip(self):
        s = small_spec("tst_lstm")
        assert ModelSpec.from_dict(s.to_dict()) == s

    def test_from_dict_rejects_unknown_fields(self):
        d = small_spec("lstm").to_dict()
        d["dropout"] = 0.5
        with pytest.raises(ValueError, match="dropout"):
            ModelSpec.from_dict(d)


class TestAssembly:
    @pytest.mark.parametrize("kind", KINDS)
    def test_parameter_count_matches_closed_form(self, kind):
        model = build(small_spec(kind), seed=1)
        assert model.count_parameters() == expected_count(kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_param_names_unique(self, kind):
        model = build(small_spec(kind), seed=1)
        names = [n for n, _ in model.named_params()]
        assert len(names) == len(set(names))

    def test_reference_scale_ordering(self):
        counts = {k: build(ModelSpec(kind=k), seed=0).count_parameters()
                  for k in KINDS}
        assert (counts["enc_tst"] < counts["lstm"]
                < counts["enc_tst_dec_lstm"] < counts["v_tst"]
                < counts["tst_lstm"])
        assert 500_000 <= counts["v_tst"] <= 2_000_000

    def test_encoder_only_kinds_have_no_cross_attention(self):
        for kind in ("lstm", "enc_tst", "enc_tst_dec_lstm"):
            model = build(small_spec(kind), seed=0)
            assert not any("cross_attn" in n for n, _ in model.named_params())

    def test_decoder_kinds_have_cross_attention(self):
        for kind in DECODER_INPUT_KINDS:
            model = build(small_spec(kind), seed=0)
            assert any("cross_attn" in n for n, _ in model.named_params())

    def test_build_is_deterministic(self):
        a = build(small_spec("v_tst"), seed=9)
        b = build(small_spec("v_tst"), seed=9)
        for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        a = build(small_spec("lstm"), seed=1)
        b = build(small_spec("lstm"), seed=2)
        assert any(not np.array_equal(pa.data, pb.data)
                   for (_, pa), (_, pb) in zip(a.named_params(),
                                               b.named_params()))


class TestForward:
    @pytest.mark.parametrize("kind", KINDS)
    def test_training_output_shape(self, kind, rng):
        model = build(small_spec(kind), seed=3)
        x = rng.standard_normal((4, 6, 5))
        teacher = rng.standard_normal((4, 3, 2))
        out = model.forward(x, teacher=teacher, training=True)
        assert out.shape == (4, 3, 2)

    @pytest.mark.parametrize("kind", KINDS)
    def test_inference_output_shape(self, kind, rng):
        model = build(small_spec(kind), seed=3)
        x = rng.standard_normal((4, 6, 5))
        start = rng.standard_normal((4, 2))
        with no_grad():
            out = model.forward(x, start=start)
        assert out.shape == (4, 3, 2)
        assert out.requires_grad is False

    def test_wrong_window_shape_rejected(self, rng):
        model = build(small_spec("lstm"), seed=0)
        with pytest.raises(ShapeError):
            model.forward(rng.standard_normal((2, 5, 5)))

    @pytest.mark.parametrize("kind", DECODER_INPUT_KINDS)
    def test_decoder_kinds_need_teacher_when_training(self, kind, rng):
        model = build(small_spec(kind), seed=0)
        with pytest.raises(ValueError, match="teacher"):
            model.forward(rng.standard_normal((2, 6, 5)), training=True)

    @pytest.mark.parametrize("kind", DECODER_INPUT_KINDS)
    def test_decoder_kinds_need_start_at_inference(self, kind, rng):
        model = build(small_spec(kind), seed=0)
        with pytest.raises(ValueError, match="start"):
            model.forward(rng.standard_normal((2, 6, 5)))

    @pytest.mark.parametrize("kind", DECODER_INPUT_KINDS)
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (2,), (2, 1, 2)])
    def test_start_shape_validated(self, kind, shape, rng):
        model = build(small_spec(kind), seed=0)
        with pytest.raises(ShapeError, match=re.escape(
                f"start must have shape (2, 2), got {shape}")):
            model.forward(rng.standard_normal((2, 6, 5)),
                          start=np.zeros(shape))

    def test_teacher_shape_validated(self, rng):
        model = build(small_spec("v_tst"), seed=0)
        with pytest.raises(ShapeError):
            model.forward(rng.standard_normal((2, 6, 5)),
                          teacher=rng.standard_normal((2, 4, 2)),
                          training=True)

    @pytest.mark.parametrize("kind", ("lstm", "enc_tst", "enc_tst_dec_lstm"))
    def test_direct_kinds_ignore_teacher_and_start(self, kind, rng):
        model = build(small_spec(kind), seed=0)
        x = rng.standard_normal((2, 6, 5))
        plain = model.forward(x).data
        with_extras = model.forward(x, teacher=rng.standard_normal((2, 3, 2)),
                                    start=rng.standard_normal((2, 2)),
                                    training=True).data
        np.testing.assert_array_equal(plain, with_extras)

    @pytest.mark.parametrize("kind", KINDS)
    def test_forward_deterministic(self, kind, rng):
        model = build(small_spec(kind), seed=4)
        x = rng.standard_normal((2, 6, 5))
        start = rng.standard_normal((2, 2))
        with no_grad():
            a = model.forward(x, start=start).data
            b = model.forward(x, start=start).data
        np.testing.assert_array_equal(a, b)


    def test_v_tst_teacher_forced_step_records_no_concat(self, rng,
                                                          tape_ops):
        # attention weights are stored fused, so nothing re-concatenates
        model = build(small_spec("v_tst"), seed=3)
        pred = model.forward(rng.standard_normal((2, 6, 5)),
                             teacher=rng.standard_normal((2, 3, 2)),
                             training=True)
        assert tape_ops(pred)["concat"] == 0

    # teacher-forced step at the default spec: (all nodes, matmul nodes)
    @pytest.mark.parametrize("kind, nodes, matmuls", [
        ("lstm", 17, 2),
        ("enc_tst", 133, 34),
        ("v_tst", 345, 91),
        ("tst_lstm", 337, 83),
        ("enc_tst_dec_lstm", 141, 34),
    ])
    def test_training_step_tape_size(self, kind, nodes, matmuls, rng,
                                     tape_ops):
        # counts do not depend on the batch size, so a batch of 2 suffices
        spec = ModelSpec(kind=kind)
        model = build(spec, seed=0)
        pred = model.forward(
            rng.standard_normal((2, spec.window, spec.n_features)),
            teacher=rng.standard_normal((2, spec.horizon, spec.n_targets)),
            training=True)
        counts = tape_ops(mse_loss(pred, np.zeros(pred.shape)))
        assert (sum(counts.values()), counts["matmul"]) == (nodes, matmuls)


def per_step_projection_oracle(model, x, start):
    """Autoregressive decoding in which every decoder layer's
    cross-attention projects the encoder output's keys and values again at
    every step, as a plain ``cross_attn(h, enc_out)`` call."""
    spec = model.spec
    enc_out = model._encode(Tensor(x))
    mask = causal_mask(spec.horizon)
    buf = np.zeros((len(x), spec.horizon, spec.n_targets))
    buf[:, 0] = start
    preds = np.zeros_like(buf)
    for step in range(spec.horizon):
        d = add(model.dec_embed(Tensor(buf)), Tensor(model.pe_dec))
        for blk in model.dec_blocks:
            h = blk.ln1(d)
            d = add(d, blk.self_attn(h, h, mask))
            d = add(d, blk.cross_attn(blk.ln2(d), enc_out))
            d = add(d, blk.sub(blk.ln3(d))[0])
        preds[:, step] = model.head(model.dec_norm(d)).data[:, step]
        if step + 1 < spec.horizon:
            buf[:, step + 1] = preds[:, step]
    return preds


class TestAutoregressiveConsistency:
    @pytest.mark.parametrize("kind", DECODER_INPUT_KINDS)
    def test_ar_rollout_equals_teacher_forcing_on_own_outputs(self, kind, rng):
        # feeding the autoregressive predictions back as the teacher sequence
        # must reproduce those predictions bit for bit
        model = build(small_spec(kind), seed=6)
        x = rng.standard_normal((3, 6, 5))
        start = rng.standard_normal((3, 2))
        with no_grad():
            ar = model.forward(x, start=start).data
            teach = np.concatenate([start[:, None, :], ar[:, :-1, :]], axis=1)
            tf = model.forward(x, teacher=teach, training=True).data
        assert np.array_equal(ar, tf)

    @pytest.mark.parametrize("kind", DECODER_INPUT_KINDS)
    def test_cross_attention_kv_projected_once_per_forecast(self, kind, rng,
                                                          monkeypatch):
        spec = ModelSpec(kind=kind)
        model = build(spec, seed=0)
        cross = [blk.cross_attn for blk in model.dec_blocks]
        projected = []
        original = MultiHeadAttention.project_kv

        def spy(mha, x_kv):
            if any(mha is c for c in cross):
                projected.append(mha)
            return original(mha, x_kv)

        monkeypatch.setattr(MultiHeadAttention, "project_kv", spy)
        with no_grad():
            model.forward(rng.standard_normal((64, spec.window,
                                               spec.n_features)),
                          start=rng.standard_normal((64, spec.n_targets)))
        # once per decoder layer, not once per layer and decoding step
        assert len(projected) == spec.dec_layers
        assert all(p is c for p, c in zip(projected, cross))

    @pytest.mark.parametrize("batch", [1, 5, 64])
    @pytest.mark.parametrize("kind", DECODER_INPUT_KINDS)
    def test_forecast_equals_per_step_projection_oracle(self, kind, batch,
                                                        rng):
        spec = ModelSpec(kind=kind)
        model = build(spec, seed=4)
        x = rng.standard_normal((batch, spec.window, spec.n_features))
        start = rng.standard_normal((batch, spec.n_targets))
        with no_grad():
            got = model.forward(x, start=start).data
            want = per_step_projection_oracle(model, x, start)
        assert got.tobytes() == want.tobytes()

    def test_decoder_lstm_runs_one_recurrence_step_per_decoding_step(
            self, rng, monkeypatch):
        # the lstm op applies the gate sigmoid once per recurrence step:
        # 4 encoder layers x 12 positions, then 4 decoder layers x 6 steps,
        # not 4 x 6 x 6 for decoder layers rerun at every decoding step
        spec = ModelSpec(kind="tst_lstm")
        model = build(spec, seed=0)
        calls = []
        original = T._sigmoid

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(T, "_sigmoid", spy)
        with no_grad():
            model.forward(rng.standard_normal((64, spec.window,
                                               spec.n_features)),
                          start=rng.standard_normal((64, spec.n_targets)))
        assert len(calls) == (spec.enc_layers * spec.window
                              + spec.dec_layers * spec.horizon) == 72

    @pytest.mark.parametrize("kind", DECODER_INPUT_KINDS)
    def test_grad_enabled_forecast_records_nothing(self, kind, rng,
                                                  monkeypatch):
        model = build(small_spec(kind), seed=9)
        x = rng.standard_normal((4, 6, 5))
        start = rng.standard_normal((4, 2))
        with no_grad():
            want = model.forward(x, start=start).data
        recorded = []
        original = T._record

        def spy(op, inputs, data, backward_fn):
            out = original(op, inputs, data, backward_fn)
            if out.node is not None:
                recorded.append(op)
            return out

        monkeypatch.setattr(T, "_record", spy)
        got = model.forward(x, start=start)
        assert got.data.tobytes() == want.tobytes()
        assert recorded == []
        assert got.node is None and not got.requires_grad

    def test_first_step_depends_only_on_start(self, rng):
        # step 0 of the rollout must not change when later teacher
        # positions change: causality of the decoding loop
        model = build(small_spec("v_tst"), seed=7)
        x = rng.standard_normal((2, 6, 5))
        t1 = rng.standard_normal((2, 3, 2))
        t2 = t1.copy()
        t2[:, 1:, :] += 9.0
        with no_grad():
            a = model.forward(x, teacher=t1, training=True).data
            b = model.forward(x, teacher=t2, training=True).data
        np.testing.assert_array_equal(a[:, 0], b[:, 0])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        model = build(small_spec("tst_lstm"), seed=11)
        extra_arrays = {"norm.mean": rng.standard_normal(5)}
        save_checkpoint(model, tmp_path / "m.ckpt",
                        extra_meta={"note": {"a": 1}},
                        extra_arrays=extra_arrays)
        loaded, meta, arrays = load_checkpoint(tmp_path / "m.ckpt")
        assert loaded.spec == model.spec
        for (na, pa), (nb, pb) in zip(model.named_params(),
                                      loaded.named_params()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)
        assert meta == {"note": {"a": 1}}
        np.testing.assert_array_equal(arrays["norm.mean"],
                                      extra_arrays["norm.mean"])

    def test_loaded_model_reproduces_forward(self, tmp_path, rng):
        model = build(small_spec("enc_tst"), seed=12)
        save_checkpoint(model, tmp_path / "m.ckpt")
        loaded, _, _ = load_checkpoint(tmp_path / "m.ckpt")
        x = rng.standard_normal((3, 6, 5))
        with no_grad():
            np.testing.assert_array_equal(model.forward(x).data,
                                          loaded.forward(x).data)

    def test_corrupt_magic_rejected(self, tmp_path):
        model = build(small_spec("lstm"), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = build(small_spec("lstm"), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_per_head_and_per_gate_names_refused(self, tmp_path):
        # the layout before attention heads and LSTM gates were fused
        model = build(small_spec("tst_lstm"), seed=0)
        arrays = []
        for name, t in model.named_params():
            prefix, leaf = name.rsplit(".", 1)
            if leaf in ("wq", "wk", "wv"):
                parts = np.split(t.data, model.spec.n_heads, axis=-1)
                arrays += [(f"param.{prefix}.heads.{h}.{leaf}", part)
                           for h, part in enumerate(parts)]
            elif leaf in ("w", "u", "b"):
                parts = np.split(t.data, 4, axis=-1)
                arrays += [(f"param.{prefix}.{leaf}_{g}", part)
                           for g, part in zip("ifog", parts)]
            else:
                arrays.append((f"param.{name}", t.data))
        path = tmp_path / "old.ckpt"
        write_container(path, "checkpoint",
                        {"spec": model.spec.to_dict(), "extra": {}}, arrays)
        with pytest.raises(ValueError, match=re.escape(str(path))
                           + ": checkpoint parameters do not match spec"):
            load_checkpoint(path)

    def test_wrongly_shaped_parameter_refused(self, tmp_path):
        model = build(small_spec("lstm"), seed=0)
        arrays = [(f"param.{name}", t.data.T if name == "head.weight"
                   else t.data) for name, t in model.named_params()]
        path = tmp_path / "m.ckpt"
        write_container(path, "checkpoint",
                        {"spec": model.spec.to_dict(), "extra": {}}, arrays)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: shape mismatch for head.weight: stored (6, 16), "
                "expected (16, 6)")):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_refused(self, tmp_path, bad):
        model = build(small_spec("lstm"), seed=0)
        model.lstm.layers[0].u.data[1, 2] = bad
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: parameter lstm.layer.0.u holds non-finite")):
            load_checkpoint(path)
