"""Layer semantics against independent oracles.

The attention tests compare the vectorized implementation to an explicit
per-query-position loop; the LSTM tests compare to a python-float gate
recurrence. Both oracles share no code with the library. The fused
``attention`` and ``lstm`` ops are also checked, forward and backward,
against the chains of tape ops they replaced (built from ``oracle_ops``):
attention bit for bit, the LSTM per timestep.
"""

import math

import numpy as np
import pytest

from tripcast import tensor as T
from tripcast.layers import (
    MASK_VALUE,
    DecoderBlock,
    EncoderBlock,
    FeedForward,
    LayerNorm,
    Linear,
    Lstm,
    MultiHeadAttention,
    causal_mask,
    positional_encoding,
    xavier_uniform,
)
from tripcast.tensor import ShapeError, Tensor, layer_norm

from attention_oracles import composed_attention, one_head
from oracle_ops import concat, mul, sigmoid, tanh, tsum


def attention_oracle(q, k, v, causal=False):
    """Per-query-position attention: weights lambda_{n,i}, sum over values."""
    lq, d = q.shape[-2], q.shape[-1]
    lk = k.shape[-2]
    out = np.zeros((lq, v.shape[-1]))
    weights = np.zeros((lq, lk))
    for n in range(lq):
        scores = np.array([np.dot(q[n], k[i]) / math.sqrt(d)
                           for i in range(lk)])
        if causal:
            scores = np.array([s if i <= n else s + MASK_VALUE
                               for i, s in enumerate(scores)])
        e = np.exp(scores - scores.max())
        lam = e / e.sum()
        weights[n] = lam
        out[n] = sum(lam[i] * v[i] for i in range(lk))
    return out, weights


class TestAttentionOp:
    def test_matches_per_position_oracle_100_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            lq = int(rng.integers(1, 7))
            lk = int(rng.integers(1, 7))
            d = int(rng.integers(1, 9))
            dv = int(rng.integers(1, 9))
            q = rng.standard_normal((lq, d))
            k = rng.standard_normal((lk, d))
            v = rng.standard_normal((lk, dv))
            got, w = one_head(q, k, v)
            want, want_w = attention_oracle(q, k, v)
            np.testing.assert_allclose(got.data, want, atol=1e-12)
            np.testing.assert_allclose(w.data, want_w, atol=1e-12)
            np.testing.assert_allclose(w.data.sum(axis=-1), np.ones(lq),
                                       atol=1e-9)

    def test_causal_oracle(self, rng):
        q = rng.standard_normal((5, 4))
        k = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 3))
        got, _ = one_head(q, k, v, mask=causal_mask(5))
        want, _ = attention_oracle(q, k, v, causal=True)
        np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_masked_weights_are_exactly_zero(self, rng):
        q = rng.standard_normal((4, 8))
        k = rng.standard_normal((4, 8))
        v = rng.standard_normal((4, 8))
        _, w = one_head(q, k, v, mask=causal_mask(4))
        above = np.triu_indices(4, k=1)
        assert (w.data[above] == 0.0).all()

    def test_masked_keys_get_exactly_zero_gradient(self, rng):
        # only queries 0 and 1 carry gradient, and the causal mask gives
        # keys and values 2 and 3 exactly zero weight for them
        q, k, v = (Tensor(rng.standard_normal((4, 8)), requires_grad=True)
                   for _ in "qkv")
        out = T.attention(q, T.heads(k, 2), T.heads(v, 2), 2, causal_mask(4))
        tsum(out[:2]).backward()
        assert (v.grad[2:] == 0.0).all() and (k.grad[2:] == 0.0).all()
        assert v.grad[:2].all()

    def test_future_perturbation_cannot_leak_backward(self, rng):
        # with a causal mask, position t must ignore keys/values after t
        q = rng.standard_normal((6, 4))
        k = rng.standard_normal((6, 4))
        v = rng.standard_normal((6, 4))
        base = one_head(q, k, v, mask=causal_mask(6))[0].data
        k2, v2 = k.copy(), v.copy()
        k2[3:] += 100.0
        v2[3:] -= 50.0
        pert = one_head(q, k2, v2, mask=causal_mask(6))[0].data
        np.testing.assert_array_equal(base[:3], pert[:3])
        assert not np.allclose(base[3:], pert[3:])

    def test_shape_validation(self, rng):
        def split(*shape):
            return T.heads(Tensor(rng.standard_normal(shape)), 1)

        q = Tensor(rng.standard_normal((3, 4)))
        k_bad = split(3, 5)
        with pytest.raises(ShapeError):
            T.attention(q, k_bad, k_bad, 1)
        k = split(3, 4)
        v_bad = split(2, 4)
        with pytest.raises(ShapeError):
            T.attention(q, k, v_bad, 1)
        v = split(3, 4)
        with pytest.raises(ShapeError):
            T.attention(q, k, v, 1, mask=causal_mask(2))
        # 4 columns do not split into 3 heads, nor fit keys of one head
        for n_heads in (3, 2):
            with pytest.raises(ShapeError):
                T.attention(q, k, v, n_heads)
        with pytest.raises(ShapeError):
            T.heads(Tensor(rng.standard_normal((3, 5))), 2)


def _fused_attention(q, k, v, n_heads, mask=None):
    return T.attention(q, T.heads(k, n_heads), T.heads(v, n_heads), n_heads,
                       mask)


class TestAttentionOpMatchesComposition:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("lq, lk, d_v", [(5, 5, 6), (3, 6, 6), (4, 4, 9)])
    @pytest.mark.parametrize("batch", [1, 4])
    def test_output_and_gradients_bit_for_bit(self, batch, lq, lk, d_v,
                                              masked, rng):
        # three heads of width 2; values 2 or 3 wide per head
        arrays = [rng.standard_normal((batch, lq, 6)),
                  rng.standard_normal((batch, lk, 6)),
                  rng.standard_normal((batch, lk, d_v))]
        mask = (Tensor(np.triu(np.full((lq, lk), MASK_VALUE), k=1))
                if masked else None)
        weight = Tensor(rng.standard_normal((batch, lq, d_v)))
        results = []
        for fn in (_fused_attention, lambda *a: composed_attention(*a)[0]):
            inputs = [Tensor(a, requires_grad=True) for a in arrays]
            out = fn(*inputs, 3, mask)
            tsum(mul(out, weight)).backward()
            results.append([out.data.tobytes()]
                           + [t.grad.tobytes() for t in inputs])
        assert results[0] == results[1]

    def test_self_attention_records_seven_nodes(self, rng, tape_ops):
        mha = MultiHeadAttention(8, 2, rng)
        x = Tensor(rng.standard_normal((2, 5, 8)))
        counts = tape_ops(mha(x, x, causal_mask(5)))
        assert counts == {"attention": 1, "heads": 2, "matmul": 4}


class TestCausalMask:
    def test_structure(self):
        m = causal_mask(4).data
        for i in range(4):
            for j in range(4):
                if j <= i:
                    assert m[i, j] == 0.0
                else:
                    assert m[i, j] == MASK_VALUE


class TestPositionalEncoding:
    def test_formula_spot_values(self):
        d = 16
        pe = positional_encoding(10, d).data
        for pos in (0, 3, 9):
            for pair in range(d // 2):
                angle = pos / 10000.0 ** (2.0 * pair / d)
                assert pe[pos, 2 * pair] == pytest.approx(math.sin(angle),
                                                          abs=1e-12)
                assert pe[pos, 2 * pair + 1] == pytest.approx(math.cos(angle),
                                                              abs=1e-12)

    def test_position_zero_row(self):
        pe = positional_encoding(4, 8).data
        np.testing.assert_array_equal(pe[0, 0::2], np.zeros(4))
        np.testing.assert_array_equal(pe[0, 1::2], np.ones(4))

    def test_bounded(self):
        pe = positional_encoding(50, 32).data
        assert (np.abs(pe) <= 1.0).all()

    def test_rejects_odd_width(self):
        with pytest.raises(ValueError):
            positional_encoding(5, 7)


class TestLinearAndFfn:
    def test_linear_is_affine(self, rng):
        lin = Linear(4, 3, rng)
        x = rng.standard_normal((5, 4))
        got = lin(Tensor(x)).data
        want = x @ lin.weight.data + lin.bias.data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_ffn_oracle(self, rng):
        ffn = FeedForward(6, 9, rng)
        x = rng.standard_normal((2, 5, 6))
        got, carry = ffn(Tensor(x))
        assert carry is None
        h = np.maximum(x @ ffn.lin1.weight.data + ffn.lin1.bias.data, 0.0)
        want = h @ ffn.lin2.weight.data + ffn.lin2.bias.data
        np.testing.assert_allclose(got.data, want, atol=1e-12)

    def test_xavier_bound(self, rng):
        w = xavier_uniform(rng, 30, 20)
        limit = math.sqrt(6.0 / 50.0)
        assert w.shape == (30, 20)
        assert (np.abs(w) <= limit).all()


def plain_layer_norm(x):
    """The ``layer_norm`` op with unit gain and zero bias."""
    d = x.shape[-1]
    return layer_norm(Tensor(x), Tensor(np.ones(d)), Tensor(np.zeros(d))).data


class TestLayerNorm:
    def test_fresh_affine_is_identity_on_core(self, rng):
        ln = LayerNorm(8)
        x = rng.standard_normal((3, 8)) * 4 + 1
        np.testing.assert_allclose(ln(Tensor(x)).data, plain_layer_norm(x),
                                   atol=1e-12)

    def test_affine_applies_after_normalization(self, rng):
        ln = LayerNorm(6)
        ln.gain.data[:] = 2.0
        ln.bias.data[:] = -1.0
        x = rng.standard_normal((4, 6))
        want = 2.0 * plain_layer_norm(x) - 1.0
        np.testing.assert_allclose(ln(Tensor(x)).data, want, atol=1e-12)


class TestMultiHeadAttention:
    def test_output_shape(self, rng):
        mha = MultiHeadAttention(12, 3, rng)
        x = Tensor(rng.standard_normal((2, 7, 12)))
        assert mha(x, x).shape == (2, 7, 12)

    def test_matches_per_head_loop(self, rng):
        # vectorized head computation must equal running each stored head
        # separately and concatenating, for self- and cross-attention
        mha = MultiHeadAttention(8, 2, rng)
        xq = rng.standard_normal((3, 5, 8))
        xkv = rng.standard_normal((3, 6, 8))
        got = mha(Tensor(xq), Tensor(xkv)).data
        parts = []
        for h in range(mha.n_heads):
            cols = slice(h * mha.d_head, (h + 1) * mha.d_head)
            q = xq @ mha.wq.data[:, cols]
            k = xkv @ mha.wk.data[:, cols]
            v = xkv @ mha.wv.data[:, cols]
            per_batch = [attention_oracle(q[b], k[b], v[b])[0]
                         for b in range(3)]
            parts.append(np.stack(per_batch))
        want = np.concatenate(parts, axis=-1) @ mha.wo.data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_masked_self_attention_is_causal(self, rng):
        mha = MultiHeadAttention(8, 4, rng)
        x = rng.standard_normal((1, 6, 8))
        base = mha(Tensor(x), Tensor(x), mask=causal_mask(6)).data
        x2 = x.copy()
        x2[:, 4:, :] += 10.0
        pert = mha(Tensor(x2), Tensor(x2), mask=causal_mask(6)).data
        np.testing.assert_array_equal(base[:, :4], pert[:, :4])

    def test_rejects_indivisible_heads(self, rng):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3, rng)

    def test_seeded_determinism(self):
        a = MultiHeadAttention(8, 2, np.random.default_rng(5))
        b = MultiHeadAttention(8, 2, np.random.default_rng(5))
        for (_, pa), (_, pb) in zip(a.named_params(), b.named_params()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_weights_are_per_head_draws_concatenated(self):
        # a seed must give the numbers per-head storage would: q, k, v of
        # head 0, then of head 1, each with the per-head Xavier bound
        mha = MultiHeadAttention(8, 2, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        heads = [[xavier_uniform(rng, 8, 4) for _ in "qkv"] for _ in range(2)]
        for i, w in enumerate((mha.wq, mha.wk, mha.wv)):
            np.testing.assert_array_equal(
                w.data, np.concatenate([qkv[i] for qkv in heads], axis=1))
        np.testing.assert_array_equal(mha.wo.data, xavier_uniform(rng, 8, 8))


def lstm_scalar_oracle(xs, w, u, b):
    """Python-float single-unit LSTM; returns hidden state sequence."""
    h = c = 0.0
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    out = []
    for x in xs:
        i = sig(w["i"] * x + u["i"] * h + b["i"])
        f = sig(w["f"] * x + u["f"] * h + b["f"])
        o = sig(w["o"] * x + u["o"] * h + b["o"])
        g = math.tanh(w["g"] * x + u["g"] * h + b["g"])
        c = f * c + i * g
        h = o * math.tanh(c)
        out.append(h)
    return out


class TestLstm:
    def test_single_unit_matches_scalar_oracle(self, rng):
        lstm = Lstm(1, 1, 1, rng)
        layer = lstm.layer[0]
        # one hidden unit: column j of the fused weights is gate j
        w = dict(zip("ifog", map(float, layer.w.data[0])))
        u = dict(zip("ifog", map(float, layer.u.data[0])))
        b = dict(zip("ifog", map(float, layer.b.data)))
        xs = [0.3, -1.2, 0.7, 2.0, -0.4]
        seq, (out,) = lstm(Tensor(np.array(xs).reshape(1, 5, 1)))
        want = lstm_scalar_oracle(xs, w, u, b)
        np.testing.assert_allclose(seq.data[0, :, 0], want, atol=1e-12)
        np.testing.assert_array_equal(out.data[0, :, 0], seq.data[0, :, 0])

    def test_forget_bias_initialized_to_one(self, rng):
        lstm = Lstm(3, 4, 2, rng)
        for layer in lstm.layer:
            np.testing.assert_array_equal(
                layer.b.data, np.repeat([0.0, 1.0, 0.0, 0.0], 4))

    def test_weights_are_per_gate_draws_concatenated(self):
        # a seed must give the numbers per-gate storage would: w then u of
        # gates i, f, o, g in turn, layer by layer
        lstm = Lstm(3, 4, 2, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for layer, d_in in zip(lstm.layer, (3, 4)):
            gates = [(xavier_uniform(rng, d_in, 4), xavier_uniform(rng, 4, 4))
                     for _ in "ifog"]
            np.testing.assert_array_equal(
                layer.w.data, np.concatenate([w for w, _ in gates], axis=1))
            np.testing.assert_array_equal(
                layer.u.data, np.concatenate([u for _, u in gates], axis=1))

    def test_records_one_lstm_node_per_layer_and_no_gate_ops(self, rng,
                                                             tape_ops):
        lstm = Lstm(3, 4, 2, rng)
        seq, outs = lstm(Tensor(rng.standard_normal((2, 5, 3))))
        counts = tape_ops(seq, *outs)
        assert counts["lstm"] == 2
        # the only other nodes carry each layer's h_t to the next layer
        assert sum(counts.values()) == 4 and counts["slice"] == 2

    def test_stacked_output_shape_and_states(self, rng):
        lstm = Lstm(4, 6, 3, rng)
        seq, outs = lstm(Tensor(rng.standard_normal((2, 5, 4))))
        assert seq.shape == (2, 5, 6)
        assert [o.shape for o in outs] == [(2, 5, 12)] * 3
        np.testing.assert_array_equal(outs[-1].data[:, :, :6], seq.data)

    def test_rejects_empty_sequence(self, rng):
        lstm = Lstm(2, 3, 1, rng)
        with pytest.raises(ShapeError):
            lstm(Tensor(np.zeros((1, 0, 2))))


def lstm_step_oracle(x, h, c, w, u, b):
    """One LSTM layer as a chain of tape ops per timestep.

    The gate equations of :func:`tripcast.tensor.lstm` spelled out with
    ``add``/``slice``/``sigmoid``/``tanh``/``mul`` nodes, in the same order
    of operations; returns the (B, L, 2h) sequence of ``[h_t, c_t]``.
    """
    hid = u.shape[0]
    pre = T.add(T.matmul(x, w), b)
    outs = []
    for t in range(x.shape[1]):
        z = T.add(pre[:, t, :], T.matmul(h, u))
        i_g = sigmoid(z[:, 0:hid])
        f_g = sigmoid(z[:, hid:2 * hid])
        o_g = sigmoid(z[:, 2 * hid:3 * hid])
        g_g = tanh(z[:, 3 * hid:4 * hid])
        c = T.add(mul(f_g, c), mul(i_g, g_g))
        h = mul(o_g, tanh(c))
        outs.append(concat([h, c], axis=-1))
    return concat([o.reshape(o.shape[0], 1, 2 * hid) for o in outs], axis=1)


class TestFusedLstmOp:
    @pytest.mark.parametrize("length", [1, 5])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("zero_state", [True, False])
    def test_matches_per_step_oracle(self, length, batch, zero_state, rng):
        d, hid = 3, 4
        arrays = [rng.standard_normal((batch, length, d)),
                  np.zeros((batch, hid)) if zero_state
                  else rng.standard_normal((batch, hid)),
                  np.zeros((batch, hid)) if zero_state
                  else rng.standard_normal((batch, hid)),
                  0.5 * rng.standard_normal((d, 4 * hid)),
                  0.5 * rng.standard_normal((hid, 4 * hid)),
                  0.5 * rng.standard_normal(4 * hid)]
        weight = Tensor(rng.standard_normal((batch, length, 2 * hid)))
        results = []
        for fn in (T.lstm, lstm_step_oracle):
            inputs = [Tensor(a, requires_grad=True) for a in arrays]
            out = fn(*inputs)
            tsum(mul(out, weight)).backward()
            results.append((out.data, [t.grad for t in inputs]))
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        for name, g, ref in zip(("x", "h0", "c0", "w", "u", "b"),
                                got_grads, want_grads):
            np.testing.assert_allclose(g, ref, rtol=1e-10, atol=1e-12,
                                       err_msg=name)

    def test_rejects_mismatched_weights(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 3)))
        state = Tensor(np.zeros((2, 4)))
        w, u = Tensor(np.zeros((3, 16))), Tensor(np.zeros((4, 16)))
        with pytest.raises(ShapeError):
            T.lstm(x, state, state, w, u, Tensor(np.zeros(12)))
        with pytest.raises(ShapeError):
            T.lstm(x, Tensor(np.zeros((3, 4))), state, w, u,
                   Tensor(np.zeros(16)))

    @staticmethod
    def _layer(rng, batch, length, zero_state):
        d, hid = 3, 4
        state = [np.zeros((batch, hid)) if zero_state
                 else rng.standard_normal((batch, hid)) for _ in "hc"]
        arrays = [rng.standard_normal((batch, length, d)), *state,
                  0.5 * rng.standard_normal((d, 4 * hid)),
                  0.5 * rng.standard_normal((hid, 4 * hid)),
                  0.5 * rng.standard_normal(4 * hid)]
        return [Tensor(a) for a in arrays]

    @pytest.mark.parametrize("batch", [1, 3, 64])
    @pytest.mark.parametrize("zero_state", [True, False])
    def test_one_step_from_previous_state_matches_full_call(
            self, batch, zero_state, rng):
        # projected per position, a length-1 call started from row t - 1's
        # (h, c) gives row t of the full call bit for bit; decoding runs
        # each decoder LSTM one step at a time this way
        length = 5
        x, h0, c0, w, u, b = self._layer(rng, batch, length, zero_state)
        full = T.lstm(x, h0, c0, w, u, b, per_position=True).data
        hid = u.shape[0]
        h, c = h0, c0
        for t in range(length):
            got = T.lstm(x[:, t:t + 1], h, c, w, u, b, per_position=True).data
            assert got.tobytes() == full[:, t:t + 1].tobytes()
            h, c = Tensor(got[:, 0, :hid]), Tensor(got[:, 0, hid:])


class TestBlocks:
    def test_encoder_block_preserves_shape(self, rng):
        blk = EncoderBlock(8, 2, 16, rng)
        x = Tensor(rng.standard_normal((2, 5, 8)))
        assert blk(x).shape == (2, 5, 8)

    def test_decoder_block_preserves_shape(self, rng):
        blk = DecoderBlock(8, 2, 16, rng)
        x = Tensor(rng.standard_normal((2, 4, 8)))
        enc = Tensor(rng.standard_normal((2, 6, 8)))
        kv = blk.cross_attn.project_kv(enc)
        out, carry = blk(x, kv, causal_mask(4))
        assert out.shape == (2, 4, 8) and carry is None

    def test_lstm_sublayer_variant(self, rng):
        blk = EncoderBlock(8, 2, 16, rng, sub_layer="lstm")
        names = [n for n, _ in blk.named_params()]
        assert any("sub.lstm" in n for n in names)
        x = Tensor(rng.standard_normal((1, 4, 8)))
        assert blk(x).shape == (1, 4, 8)

    def test_param_names_unique_and_grads_flow(self, rng):
        blk = DecoderBlock(8, 2, 16, rng)
        names = [n for n, _ in blk.named_params()]
        assert len(names) == len(set(names))
        assert any(n.startswith("cross_attn") for n in names)
        x = Tensor(rng.standard_normal((1, 3, 8)))
        enc = Tensor(rng.standard_normal((1, 5, 8)))
        out, _ = blk(x, blk.cross_attn.project_kv(enc), causal_mask(3))
        tsum(out).backward()
        for name, p in blk.named_params():
            assert p.grad is not None, f"no gradient reached {name}"

    def test_decoder_self_attention_respects_mask(self, rng):
        blk = DecoderBlock(8, 2, 16, rng)
        x = rng.standard_normal((1, 5, 8))
        kv = blk.cross_attn.project_kv(Tensor(rng.standard_normal((1, 4, 8))))
        base = blk(Tensor(x), kv, causal_mask(5))[0].data
        x2 = x.copy()
        x2[:, 3:, :] += 5.0
        pert = blk(Tensor(x2), kv, causal_mask(5))[0].data
        np.testing.assert_array_equal(base[:, :3], pert[:, :3])
