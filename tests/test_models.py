"""Architecture assembly, forward contracts, and checkpoint round trips.

Parameter counts are checked against closed-form arithmetic derived from
the layer definitions, evaluated at a deliberately small configuration.
"""

import hashlib
import re
import sys
import threading
from dataclasses import asdict

import numpy as np
import pytest

from tripcast import layers, tensor as T
from tripcast.layers import MultiHeadAttention, causal_mask
from tripcast.models import (
    DECODER_INPUT_KINDS,
    KINDS,
    Model,
    ModelSpec,
    _NoDraw,
    build,
    load_checkpoint,
    save_checkpoint,
)
from tripcast.pipeline import DatasetSplit, Windows
from tripcast.serialize import write_container
from tripcast.tensor import ShapeError, Tensor, add, no_grad
from tripcast.training import PAIR_MIN_ROWS, TrainConfig, mse_loss, train

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

    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "lstm"])
    def test_odd_d_model_refused_where_positions_are_encoded(self, kind):
        with pytest.raises(ValueError,
                           match="ModelSpec.d_model must be even"):
            ModelSpec(kind=kind, d_model=9, n_heads=1)
        # the lstm kind has no position table
        assert ModelSpec(kind="lstm", d_model=9, n_heads=1).d_model == 9

    def test_positive_fields_enforced(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="lstm", window=0)
        with pytest.raises(ValueError):
            ModelSpec(kind="lstm", horizon=-1)

    def test_dict_round_trip(self):
        s = small_spec("tst_lstm")
        assert ModelSpec(**asdict(s)) == s


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

    # sha256 of the "name shape" lines from named_params() and of the
    # save_checkpoint bytes, at a small spec built with seed 3; these fix
    # the parameter names, their order and the checkpoint layout
    LAYOUT = {
        "lstm": (
            "a0c024af450c8ee2cf5e4c928c92eeed39475d88de1bd8ce8dd8cd3fd61346ad",
            "e1884c0d61978fe35ddc22ef53344ef6573c57ac0ca195f35dcd31cb16d8fbf0"),
        "enc_tst": (
            "b50517419b41019f454a1523b4b9e8a0761da14efeee49a021e7fafa0065a765",
            "a0824a17feafa63ba3b17b918e94f7b5bbfb6f0a01100e02f7c048f36a2eb7e8"),
        "v_tst": (
            "132f770488b9b90e719720c1ca09d7c96c73ad55567b6e8812a06a142708b2c8",
            "f3fc9078959e380dd9a299184fa75e7155b4de0fd7cbac0f5cc3bfa2f1109dcb"),
        "tst_lstm": (
            "db6d86c7ce12716b09c1021d9889ef370ac8e298f622c3438a14584466f0d24a",
            "819cee0e5cd87799440bb350bac93d4544e5f5d0177d83af44a349e0c6a8b167"),
        "enc_tst_dec_lstm": (
            "ceda2854036f574932c0e1142477fbdd905ae7b43039bf7208dfa093fa1abb35",
            "e5c67bca94ca0924b1b217e7076dda55a41fc8e47dfc00390715a9a1ad2be31d"),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_parameter_layout_pinned(self, kind, tmp_path):
        model = build(ModelSpec(kind, d_model=16, n_heads=2, ffn_width=8,
                                enc_layers=2, dec_layers=2, lstm_layers=2), 3)
        lines = "\n".join(f"{name} {t.data.shape}"
                          for name, t in model.named_params())
        save_checkpoint(model, tmp_path / "m.ckpt")
        assert (hashlib.sha256(lines.encode()).hexdigest(),
                hashlib.sha256((tmp_path / "m.ckpt").read_bytes()).hexdigest()
                ) == self.LAYOUT[kind]

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
        with pytest.raises(ShapeError, match=re.escape(
                "x_enc must have shape (batch, 6, 5), got (2, 5, 5)")):
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
        with pytest.raises(ShapeError, match=re.escape(
                "teacher must have shape (2, 3, 2), got (2, 4, 2)")):
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


    @staticmethod
    def _default_step_tape(kind, rng, tape_ops):
        """Tape ops of a default-spec teacher-forced step and its loss;
        counts do not depend on the batch size, so a batch of 2 suffices."""
        spec = ModelSpec(kind=kind)
        model = build(spec, seed=0)
        pred = model.forward(
            rng.standard_normal((2, spec.window, spec.n_features)),
            teacher=rng.standard_normal((2, spec.horizon, spec.n_targets)),
            training=True)
        return tape_ops(mse_loss(pred, np.zeros(pred.shape)))

    # teacher-forced step at the default spec: (all nodes, matmul nodes)
    @pytest.mark.parametrize("kind, nodes, matmuls", [
        ("lstm", 13, 2),
        ("enc_tst", 63, 26),
        ("v_tst", 156, 67),
        ("tst_lstm", 156, 59),
        ("enc_tst_dec_lstm", 71, 26),
    ])
    def test_training_step_tape_size(self, kind, nodes, matmuls, rng,
                                     tape_ops):
        counts = self._default_step_tape(kind, rng, tape_ops)
        assert (sum(counts.values()), counts["matmul"]) == (nodes, matmuls)

    def test_shipped_ops_are_the_ops_the_models_record(self, rng, tape_ops):
        # every op tensor ships is recorded by some kind's training step
        recorded = set()
        for kind in KINDS:
            recorded |= set(self._default_step_tape(kind, rng, tape_ops))
        assert recorded == T.RECORDED_OPS

    @pytest.mark.parametrize("batch", [1, 63, 64, 65])
    @pytest.mark.parametrize("kind", KINDS)
    def test_training_step_bytes_do_not_depend_on_the_worker(self, kind,
                                                            batch, worker):
        # one step of train(); from 64 rows it runs as two halves, and its
        # loss and post-Adam parameters keep their bytes whether the first
        # half runs inline, in the worker process or after the second
        spec = ModelSpec(kind=kind)
        rng = np.random.default_rng(batch)
        rows, val = (_random_windows(n, spec, rng) for n in (batch, 1))
        split = DatasetSplit(rows, val, val, stats=None)
        cfg = TrainConfig(epochs=1, batch_size=batch)

        def step():
            model = build(spec, seed=5)
            perturb = np.random.default_rng(0)
            for _, p in model.named_params():   # LayerNorm gains off 1
                p.data += 0.05 * perturb.standard_normal(p.shape)
            model, log = train(model, split, cfg)
            return (log.entries[0].train_loss,
                    [p.data.tobytes() for _, p in model.named_params()])

        worker("inline")
        inline = step()
        for mode in ("process", "late"):
            used = worker(mode)
            assert step() == inline, mode
            assert used.calls == (batch >= PAIR_MIN_ROWS)

    @pytest.mark.parametrize("kind", KINDS)
    def test_two_backwards_on_two_threads_keep_sequential_bytes(self, kind):
        # the tape keeps no state outside its tensors, so twin models
        # sharing one set of weights run backward() at once on two threads
        spec = small_spec(kind)
        models = [build(spec, seed=2), Model(spec, _NoDraw())]
        for (_, p), (_, q) in zip(*(m.named_params() for m in models)):
            q.data = p.data
        rng = np.random.default_rng(0)
        batches = [_random_windows(4, spec, rng) for _ in models]

        def grads(model, rows):
            mse_loss(model.forward(rows.x_enc, teacher=rows.teacher,
                                   training=True), rows.y).backward()
            out = [p.grad.tobytes() for _, p in model.named_params()]
            for _, p in model.named_params():
                p.zero_grad()
            return out

        sequential = [grads(m, b) for m, b in zip(models, batches)]
        results = []

        def run(i):
            results[i] = grads(models[i], batches[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                results[:] = [None, None]
                threads = [threading.Thread(target=run, args=(i,))
                           for i in (0, 1)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert results == sequential
        finally:
            sys.setswitchinterval(interval)


def _random_windows(n, spec, rng):
    x = rng.standard_normal((n, spec.window, spec.n_features))
    teach = rng.standard_normal((n, spec.horizon, spec.n_targets))
    return Windows(x, teach, rng.standard_normal(teach.shape),
                   np.full(n, "t"), np.arange(n))


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
        d = add(model.decoder_embed(Tensor(buf)), Tensor(model.pe_dec))
        for blk in model.decoder:
            h = blk.ln1(d)
            d = add(d, blk.self_attn(h, h, mask))
            d = add(d, blk.cross_attn(blk.ln2(d), enc_out))
            d = add(d, blk.sub(blk.ln3(d))[0])
        preds[:, step] = model.head(model.decoder_norm(d)).data[:, step]
        if step + 1 < spec.horizon:
            buf[:, step + 1] = preds[:, step]
    return preds


class TestAutoregressiveConsistency:
    @pytest.mark.parametrize("size, batch", [("small", 3), ("default", 1),
                                             ("default", 5), ("default", 64)])
    @pytest.mark.parametrize("kind", DECODER_INPUT_KINDS)
    def test_ar_rollout_equals_teacher_forcing_on_own_outputs(self, kind, size,
                                                              batch, rng):
        # feeding the autoregressive predictions back as the teacher sequence
        # must reproduce those predictions bit for bit
        spec = small_spec(kind) if size == "small" else ModelSpec(kind=kind)
        model = build(spec, seed=6)
        x = rng.standard_normal((batch, spec.window, spec.n_features))
        start = rng.standard_normal((batch, spec.n_targets))
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
        cross = [blk.cross_attn for blk in model.decoder]
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

    @pytest.mark.parametrize("kind", DECODER_INPUT_KINDS)
    def test_decoding_step_computes_one_position(self, kind, rng,
                                                 monkeypatch):
        # every decoder GEMM of a decoding step, each decoder LSTM's input
        # and each decoder attention's query holds the B rows of one
        # position, not B·H rows; only the cross-attention keys and values
        # span the encoder's window
        spec = ModelSpec(kind=kind)
        model = build(spec, seed=0)
        cross = {id(w) for blk in model.decoder
                 for w in (blk.cross_attn.wk, blk.cross_attn.wv)}
        decoder = {id(p) for name, p in model.named_params()
                   if name.startswith(("decoder", "head"))} - cross
        leads, queries = [], []

        def spy_attention(q, *args, **kwargs):
            queries.append(q.shape[:-1])
            return T.attention(q, *args, **kwargs)

        def spy(op, weight_at):
            def call(*args, **kwargs):
                if id(args[weight_at]) in decoder:
                    leads.append(args[0].shape[:-1])
                return op(*args, **kwargs)
            return call

        monkeypatch.setattr(layers, "matmul", spy(T.matmul, 1))
        monkeypatch.setattr(layers, "lstm", spy(T.lstm, 3))
        monkeypatch.setattr(layers, "attention", spy_attention)
        batch = 64
        with no_grad():
            model.forward(rng.standard_normal((batch, spec.window,
                                               spec.n_features)),
                          start=rng.standard_normal((batch, spec.n_targets)))
        # per step: embed and head, then per layer the self-attention's
        # wq/wk/wv/wo, the cross-attention's wq/wo and two sub-layer calls
        # (two FFN maps, or the LSTM and its projection)
        assert leads == [(batch, 1)] * (spec.horizon
                                        * (2 + 8 * spec.dec_layers))
        # the encoder's self-attention runs once over the window, then
        # every step runs each layer's self- and cross-attention
        assert queries == ([(batch, spec.window)] * spec.enc_layers
                           + [(batch, 1)] * (spec.horizon * 2
                                             * spec.dec_layers))

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

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_grad_forecast_builds_no_node(self, kind, rng, monkeypatch):
        # an op that will not record returns before it builds its backward
        # rule, so a batch-1 forecast constructs no tape node at all
        spec = ModelSpec(kind=kind)
        model = build(spec, seed=0)
        built = []
        init = T._Node.__init__

        def counted(self, *args):
            built.append(args[0])
            init(self, *args)

        monkeypatch.setattr(T._Node, "__init__", counted)
        x = rng.standard_normal((1, spec.window, spec.n_features))
        y = rng.standard_normal((1, spec.horizon, spec.n_targets))
        with no_grad():
            model.forward(x, start=y[:, 0])
        assert built == []
        model.forward(x, teacher=y, training=True)  # the spy sees nodes
        assert built

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
                        {"spec": asdict(model.spec), "extra": {}}, arrays)
        with pytest.raises(ValueError, match=re.escape(str(path))
                           + ": checkpoint parameters do not match spec"):
            load_checkpoint(path)

    def test_wrongly_shaped_parameter_refused(self, tmp_path):
        model = build(small_spec("lstm"), seed=0)
        arrays = [(f"param.{name}", t.data.T if name == "head.weight"
                   else t.data) for name, t in model.named_params()]
        path = tmp_path / "m.ckpt"
        write_container(path, "checkpoint",
                        {"spec": asdict(model.spec), "extra": {}}, arrays)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: shape mismatch for head.weight: stored (6, 16), "
                "expected (16, 6)")):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_refused(self, tmp_path, bad):
        model = build(small_spec("lstm"), seed=0)
        model.lstm.layer[0].u.data[1, 2] = bad
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: parameter lstm.layer.0.u holds non-finite")):
            load_checkpoint(path)
