"""Autodiff core: forward values, backward rules, graph discipline.

Gradient expectations are frozen from two oracles: hand-derived closed
forms for the simple rules, and an independent central-finite-difference
loop (implemented here, separate from the library's own gradcheck) for
composite expressions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripcast.layers import MASK_VALUE, causal_mask
from tripcast.tensor import (
    RECORDED_OPS,
    GraphError,
    ShapeError,
    Tensor,
    _row_max,
    _sigmoid,
    _softmax,
    add,
    attention,
    heads,
    layer_norm,
    lstm,
    matmul,
    mse,
    mul,
    no_grad,
    relu,
    reshape,
    tsum,
)

from attention_oracles import composed_attention
from oracle_ops import (
    bmatmul,
    concat,
    sigmoid,
    softmax,
    sub,
    tanh,
    tmean,
    transpose,
)


def central_diff(f, x, step=1e-6):
    """Central finite-difference gradient of scalar f at array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = f(x)
        flat[i] = keep - step
        lo = f(x)
        flat[i] = keep
        gf[i] = (hi - lo) / (2.0 * step)
    return g


class TestConstruction:
    def test_data_is_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.data.shape == (2, 2)

    def test_requires_grad_defaults_false(self):
        t = Tensor(np.ones(3))
        assert t.requires_grad is False
        assert t.grad is None

    def test_scalar_tensor(self):
        t = Tensor(2.5)
        assert t.shape == ()
        assert float(t.data) == 2.5


class TestForward:
    def test_add_matches_numpy(self, rng):
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        out = add(Tensor(a), Tensor(b))
        np.testing.assert_array_equal(out.data, a + b)

    def test_mul_matches_numpy(self, rng):
        a, b = rng.standard_normal((2, 5)), rng.standard_normal((2, 5))
        np.testing.assert_array_equal(mul(Tensor(a), Tensor(b)).data, a * b)

    def test_matmul_matches_numpy(self, rng):
        a, b = rng.standard_normal((4, 3)), rng.standard_normal((3, 5))
        np.testing.assert_array_equal(matmul(Tensor(a), Tensor(b)).data, a @ b)

    def test_batched_matmul(self, rng):
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((2, 3, 5, 6))
        out = bmatmul(Tensor(a), Tensor(b))
        np.testing.assert_array_equal(out.data, a @ b)

    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.standard_normal((6, 9)) * 5
        s = softmax(Tensor(x)).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(6), atol=1e-12)
        assert (s >= 0).all()

    def test_softmax_shift_invariance(self, rng):
        x = rng.standard_normal((4, 7))
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_sigmoid_saturates_without_warning(self):
        xv = np.array([-1000.0, -40.0, 0.0, 40.0, 1000.0])
        with np.errstate(all="raise"):
            out = _sigmoid(xv)
        assert np.isfinite(out).all()
        assert ((out >= 0.0) & (out <= 1.0)).all()
        np.testing.assert_allclose(out[1:4], 1.0 / (1.0 + np.exp(-xv[1:4])),
                                   rtol=0, atol=1e-15)
        assert (out[0], out[-1]) == (0.0, 1.0)

    def test_softmax_rejects_non_finite(self):
        with pytest.raises(ValueError):
            _softmax(np.array([1.0, np.nan, 2.0]), -1)
        with pytest.raises(ValueError):
            _softmax(np.array([1.0, np.inf]), -1)

    @pytest.mark.parametrize("shape", [(2, 3, 6), (64, 8, 6, 6),
                                       (64, 8, 6, 12), (4, 40)])
    def test_row_max_and_softmax_keep_numpy_bits(self, rng, shape):
        # rows with masked scores and ties; many short rows take the
        # column-by-column maximum, the others numpy's reduction
        x = rng.standard_normal(shape)
        x[..., 1::3] = MASK_VALUE
        x[..., -1] = x[..., 0]
        x[0, ..., 1:] = MASK_VALUE
        for axis in range(-1, x.ndim - 1):
            assert (_row_max(x, axis).tobytes()
                    == x.max(axis=axis, keepdims=True).tobytes())
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        assert _softmax(x, -1).tobytes() == (
            e / e.sum(axis=-1, keepdims=True)).tobytes()

    def test_layer_norm_zero_mean_unit_var(self, rng):
        x = rng.standard_normal((5, 16)) * 3 + 2
        y = layer_norm(Tensor(x), Tensor(np.ones(16)),
                       Tensor(np.zeros(16))).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)


class TestBroadcasting:
    def test_scalar_broadcast(self, rng):
        a = rng.standard_normal((3, 4))
        out = add(Tensor(a), 2.0)
        np.testing.assert_array_equal(out.data, a + 2.0)

    def test_trailing_suffix_broadcast(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4,))
        np.testing.assert_array_equal(add(Tensor(a), Tensor(b)).data, a + b)

    def test_leading_prefix_rejected(self):
        a = Tensor(np.ones((4, 3)))
        b = Tensor(np.ones((4, 1)))
        with pytest.raises(ShapeError):
            add(a, b)

    def test_mismatched_rejected(self):
        with pytest.raises(ShapeError):
            mul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))

    def test_matmul_rejects_batched_right_operand(self):
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(2, 4, 5\)"):
            matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4, 5))))

    def test_broadcast_gradient_reduces(self, rng):
        # d/db sum(a + b) with b shaped (4,): each b element feeds 2*3 slots
        a = Tensor(rng.standard_normal((2, 3, 4)))
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        tsum(add(a, b)).backward()
        np.testing.assert_allclose(b.grad, np.full(4, 6.0), atol=1e-12)


class TestBackward:
    def test_add_grads_are_ones(self, rng):
        a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        tsum(add(a, b)).backward()
        np.testing.assert_array_equal(a.grad, np.ones((3, 2)))
        np.testing.assert_array_equal(b.grad, np.ones((3, 2)))

    def test_mul_grads_swap_operands(self, rng):
        av, bv = rng.standard_normal((4,)), rng.standard_normal((4,))
        a, b = Tensor(av, requires_grad=True), Tensor(bv, requires_grad=True)
        tsum(mul(a, b)).backward()
        np.testing.assert_allclose(a.grad, bv, atol=1e-15)
        np.testing.assert_allclose(b.grad, av, atol=1e-15)

    def test_sub_negates_second_grad(self, rng):
        a = Tensor(rng.standard_normal(5), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True)
        tsum(sub(a, b)).backward()
        np.testing.assert_array_equal(b.grad, -np.ones(5))

    def test_matmul_grads_closed_form(self, rng):
        av, bv = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        a, b = Tensor(av, requires_grad=True), Tensor(bv, requires_grad=True)
        tsum(matmul(a, b)).backward()
        ones = np.ones((3, 2))
        np.testing.assert_allclose(a.grad, ones @ bv.T, atol=1e-12)
        np.testing.assert_allclose(b.grad, av.T @ ones, atol=1e-12)

    @pytest.mark.parametrize("lead", [(5, 3), (2, 3, 4)])
    def test_matmul_folds_rows_against_a_weight(self, rng, lead):
        av = rng.standard_normal(lead + (6,))
        bv = rng.standard_normal((6, 7))
        gv = rng.standard_normal(lead + (7,))
        a, b = Tensor(av, requires_grad=True), Tensor(bv, requires_grad=True)
        out = matmul(a, b)
        for idx in np.ndindex(*lead[:-1]):
            np.testing.assert_allclose(out.data[idx], av[idx] @ bv,
                                       rtol=0, atol=1e-12)
        tsum(mul(out, Tensor(gv))).backward()
        np.testing.assert_allclose(a.grad, gv @ bv.T, rtol=0, atol=1e-12)
        assert b.grad.shape == b.shape
        np.testing.assert_allclose(
            b.grad, av.reshape(-1, 6).T @ gv.reshape(-1, 7), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("batch", [1, 5, 64])
    def test_matmul_per_position_equals_one_position_calls(self, rng, batch):
        # each position's rows carry the bits of a call on that position
        # alone, the call a decoding step makes; the backward stays the
        # folded one, bit for bit
        av = rng.standard_normal((batch, 6, 16))
        wv, bv = rng.standard_normal((16, 8)), rng.standard_normal(8)
        gv = Tensor(rng.standard_normal((batch, 6, 8)))
        grads = []
        for per_position in (True, False):
            a, w, b = (Tensor(v, requires_grad=True) for v in (av, wv, bv))
            out = matmul(a, w, b, per_position)
            tsum(mul(out, gv)).backward()
            grads.append([t.grad.tobytes() for t in (a, w, b)])
            if per_position:
                for pos in range(6):
                    one = matmul(Tensor(av[:, pos:pos + 1]), w, b, True).data
                    assert one.tobytes() == out.data[:, pos:pos + 1].tobytes()
            np.testing.assert_allclose(out.data, av @ wv + bv, rtol=0,
                                       atol=1e-12)
        assert grads[0] == grads[1]
        with pytest.raises(ShapeError):
            matmul(Tensor(av[:, 0]), w, per_position=True)

    @pytest.mark.parametrize("batch", [1, 5, 64])
    @pytest.mark.parametrize("n_keys", [6, 12])
    def test_attention_per_position_equals_one_row_calls(self, rng, batch,
                                                         n_keys):
        # each query row carries the bits of a call on that row alone under
        # its row of the mask, the call a decoding step makes: causal
        # self-attention over 6 keys and cross-attention over 12; output
        # and gradients stay those of the batched products and of the
        # composed ops, to rounding
        qv = rng.standard_normal((batch, 6, 32))
        kv, vv = (rng.standard_normal((batch, n_keys, 32)) for _ in "kv")
        gv = Tensor(rng.standard_normal((batch, 6, 32)))
        mask = causal_mask(6) if n_keys == 6 else None
        outs, grads = [], []
        for run in ("per_position", "batched", "composed"):
            q, k, v = (Tensor(a, requires_grad=True) for a in (qv, kv, vv))
            if run == "composed":
                out = composed_attention(q, k, v, 4, mask)[0]
            else:
                out = attention(q, heads(k, 4), heads(v, 4), 4, mask,
                                run == "per_position")
            tsum(mul(out, gv)).backward()
            outs.append(out.data)
            grads.append([t.grad for t in (q, k, v)])
        keys, values = heads(Tensor(kv), 4), heads(Tensor(vv), 4)
        for pos in range(6):
            row = None if mask is None else Tensor(mask.data[pos:pos + 1])
            one = attention(Tensor(qv[:, pos:pos + 1]), keys, values, 4, row,
                            per_position=True).data
            assert one.tobytes() == outs[0][:, pos:pos + 1].tobytes()
        for other in (1, 2):
            np.testing.assert_allclose(outs[0], outs[other], rtol=0,
                                       atol=1e-12)
            for got, want in zip(grads[0], grads[other]):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("op", ["matmul", "layer_norm"])
    def test_folded_affine_keeps_composed_bits(self, rng, op):
        # a bias (and gain) folded into the op gives the bits of the
        # separate mul/add nodes it replaced, forward and backward
        ones, zeros = Tensor(np.ones(6)), Tensor(np.zeros(6))
        fused, composed = {
            "matmul": (matmul, lambda x, w, b: add(matmul(x, w), b)),
            "layer_norm": (layer_norm, lambda x, w, b: add(
                mul(layer_norm(x, ones, zeros), w), b)),
        }[op]
        arrays = [rng.standard_normal((2, 3, 6)),
                  rng.standard_normal((6, 6) if op == "matmul" else 6),
                  rng.standard_normal(6)]
        gv = Tensor(rng.standard_normal((2, 3, 6)))
        results = []
        for fn in (fused, composed):
            inputs = [Tensor(a, requires_grad=True) for a in arrays]
            out = fn(*inputs)
            tsum(mul(out, gv)).backward()
            results.append([out.data.tobytes()]
                           + [t.grad.tobytes() for t in inputs])
        assert results[0] == results[1]

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3, 4, 5), (2, 3, 5, 4)),      # attention q·kᵀ
        ((2, 3, 4, 4), (2, 3, 4, 5)),      # attention weights·v
        ((4, 5), (3, 5, 6)),               # 2-D a against a batched b
    ])
    def test_batched_matmul_grads_per_slice(self, rng, a_shape, b_shape):
        av, bv = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        a, b = Tensor(av, requires_grad=True), Tensor(bv, requires_grad=True)
        out = bmatmul(a, b)
        np.testing.assert_array_equal(out.data, av @ bv)
        gv = rng.standard_normal(out.shape)
        tsum(mul(out, Tensor(gv))).backward()
        da = gv @ np.swapaxes(bv, -1, -2)
        np.testing.assert_allclose(
            a.grad, da.sum(axis=tuple(range(da.ndim - av.ndim))),
            rtol=0, atol=1e-12)
        assert a.grad.shape == a.shape and b.grad.shape == b.shape
        for idx in np.ndindex(*b_shape[:-2]):
            a_idx = idx if av.ndim > 2 else ()
            np.testing.assert_allclose(b.grad[idx], av[a_idx].T @ gv[idx],
                                       rtol=0, atol=1e-12)

    def test_tanh_grad(self, rng):
        xv = rng.standard_normal(6)
        x = Tensor(xv, requires_grad=True)
        tsum(tanh(x)).backward()
        np.testing.assert_allclose(x.grad, 1.0 - np.tanh(xv) ** 2, atol=1e-12)

    def test_sigmoid_grad(self, rng):
        xv = rng.standard_normal(6)
        x = Tensor(xv, requires_grad=True)
        tsum(sigmoid(x)).backward()
        s = 1.0 / (1.0 + np.exp(-xv))
        np.testing.assert_allclose(x.grad, s * (1.0 - s), atol=1e-12)

    def test_relu_grad_is_indicator(self):
        x = Tensor(np.array([-2.0, -0.5, 0.5, 3.0]), requires_grad=True)
        tsum(relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0, 1.0])

    def test_mul_by_python_scalar_grad(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        tsum(mul(x, 3.5)).backward()
        np.testing.assert_allclose(x.grad, np.full(4, 3.5), atol=1e-15)

    def test_mean_grad_divides_by_count(self, rng):
        x = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        tmean(x).backward()
        np.testing.assert_allclose(x.grad, np.full((2, 6), 1.0 / 12.0),
                                   atol=1e-15)

    def test_mse_keeps_the_bits_of_the_composed_chain(self, rng):
        av, bv = rng.standard_normal((4, 3, 2)), rng.standard_normal((4, 3, 2))

        def run(loss_fn):
            a, b = Tensor(av, requires_grad=True), Tensor(bv, requires_grad=True)
            loss = loss_fn(a, b)
            loss.backward()
            return [x.tobytes() for x in (loss.data, a.grad, b.grad)]

        def composed(a, b):
            d = sub(a, b)
            return tmean(mul(d, d))

        assert run(mse) == run(composed)
        with pytest.raises(ShapeError, match="mse"):
            mse(Tensor(av), Tensor(bv[:2]))

    def test_sum_axis_keepdims_grad(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        tsum(tsum(x, axis=1, keepdims=True)).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_fanout_accumulates(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        tsum(add(x, x)).backward()
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_three_way_fanout(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        y = add(add(x, x), x)
        tsum(y).backward()
        np.testing.assert_array_equal(x.grad, np.full(3, 3.0))

    def test_transpose_grad_round_trips(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        gsig = np.arange(24.0).reshape(2, 4, 3)
        tsum(mul(transpose(x), Tensor(gsig))).backward()
        np.testing.assert_array_equal(x.grad, gsig.transpose(0, 2, 1))

    def test_reshape_grad_round_trips(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        gsig = np.arange(12.0).reshape(2, 6)
        tsum(mul(reshape(x, (2, 6)), Tensor(gsig))).backward()
        np.testing.assert_array_equal(x.grad, gsig.reshape(3, 4))

    def test_slice_scatters_gradient(self, rng):
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        tsum(x[1:3, :2]).backward()
        expect = np.zeros((4, 5))
        expect[1:3, :2] = 1.0
        np.testing.assert_array_equal(x.grad, expect)

    def test_overlapping_slices_accumulate(self, rng):
        x = Tensor(rng.standard_normal(5), requires_grad=True)
        tsum(add(x[1:4], x[2:5])).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 2.0, 2.0, 1.0])

    def test_concat_splits_gradient(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        cat = concat([a, b], axis=1)
        gsig = np.arange(10.0).reshape(2, 5)
        tsum(mul(cat, Tensor(gsig))).backward()
        np.testing.assert_array_equal(a.grad, gsig[:, :3])
        np.testing.assert_array_equal(b.grad, gsig[:, 3:])

    def test_softmax_jacobian_row(self, rng):
        # closed form: J = diag(s) - s s^T, contracted with upstream g
        xv = rng.standard_normal(5)
        g_up = rng.standard_normal(5)
        x = Tensor(xv, requires_grad=True)
        tsum(mul(softmax(x), Tensor(g_up))).backward()
        s = np.exp(xv - xv.max())
        s = s / s.sum()
        expect = s * (g_up - (g_up * s).sum())
        np.testing.assert_allclose(x.grad, expect, atol=1e-12)

    def test_composite_matches_finite_difference(self, rng):
        w = rng.standard_normal((6, 4))
        x0 = rng.standard_normal((3, 6))

        def f(xv):
            h = np.tanh(xv @ w)
            e = np.exp(h - h.max(axis=-1, keepdims=True))
            p = e / e.sum(axis=-1, keepdims=True)
            return float((p * p).sum())

        x = Tensor(x0.copy(), requires_grad=True)
        p = softmax(tanh(matmul(x, Tensor(w))))
        tsum(mul(p, p)).backward()
        np.testing.assert_allclose(x.grad, central_diff(f, x0.copy()),
                                   rtol=1e-5, atol=1e-8)

    def test_layer_norm_matches_finite_difference(self, rng):
        x0 = rng.standard_normal((2, 8))
        g_up = rng.standard_normal((2, 8))

        def f(xv):
            m = xv.mean(axis=-1, keepdims=True)
            v = xv.var(axis=-1, keepdims=True)
            return float(((xv - m) / np.sqrt(v + 1e-5) * g_up).sum())

        x = Tensor(x0.copy(), requires_grad=True)
        unit = layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        tsum(mul(unit, Tensor(g_up))).backward()
        np.testing.assert_allclose(x.grad, central_diff(f, x0.copy()),
                                   rtol=1e-4, atol=1e-8)


class TestGraphDiscipline:
    def test_backward_requires_scalar(self, rng):
        x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        with pytest.raises(GraphError):
            add(x, x).backward()

    def test_graph_consumed_after_backward(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        loss = tsum(mul(x, x))
        loss.backward()
        with pytest.raises(GraphError):
            loss.backward()

    def test_no_grad_disables_taping(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        with no_grad():
            y = tsum(mul(x, x))
        assert y.requires_grad is False
        assert y.node is None

    def test_zero_grad_clears(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        tsum(x).backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_grad_buffers_not_aliased_to_upstream(self, rng):
        # two leaves receiving the same upstream signal must own distinct
        # gradient storage once both contributions land
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        tsum(mul(add(a, b), 2.0)).backward()
        a.grad[0] = 99.0
        assert b.grad[0] == 2.0

    def test_deep_chain_no_recursion_limit(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x
        for _ in range(5000):
            y = add(y, 1.0)
        tsum(y).backward()
        np.testing.assert_array_equal(x.grad, np.ones(2))


# (op, function of the input tensors, input shapes with B for the rows):
# each op's every shipped call form, the per-position variants included
B = "B"
_MASK = causal_mask(5).data[1:]
UNTRACKED_CASES = [
    ("add", lambda t: add(*t), [(B, 4, 8), (8,)]),
    ("mul", lambda t: mul(*t), [(B, 4, 8), (B, 4, 8)]),
    ("relu", lambda t: relu(*t), [(B, 4, 8)]),
    ("matmul", lambda t: matmul(*t), [(B, 4, 8), (8, 5), (5,)]),
    ("matmul", lambda t: matmul(*t), [(B, 4, 8), (8, 5)]),
    ("matmul", lambda t: matmul(*t, per_position=True),
     [(B, 4, 8), (8, 5), (5,)]),
    ("reshape", lambda t: reshape(t[0], (-1, 32)), [(B, 4, 8)]),
    ("sum", lambda t: tsum(t[0], axis=1), [(B, 4, 8)]),
    ("mse", lambda t: mse(*t), [(B, 4, 8), (B, 4, 8)]),
    ("layer_norm", lambda t: layer_norm(*t), [(B, 4, 8), (8,), (8,)]),
    ("slice", lambda t: t[0][:, 1:3], [(B, 4, 8)]),
    ("heads", lambda t: heads(t[0], 2), [(B, 4, 8)]),
    ("attention", lambda t: attention(*t, 2, Tensor(_MASK)),
     [(B, 4, 8), (B, 2, 5, 4), (B, 2, 5, 4)]),
    ("attention", lambda t: attention(*t, 2, Tensor(_MASK),
                                      per_position=True),
     [(B, 4, 8), (B, 2, 5, 4), (B, 2, 5, 4)]),
    ("lstm", lambda t: lstm(*t),
     [(B, 4, 3), (B, 5), (B, 5), (3, 20), (5, 20), (20,)]),
    ("lstm", lambda t: lstm(*t, per_position=True),
     [(B, 4, 3), (B, 5), (B, 5), (3, 20), (5, 20), (20,)]),
]


class TestUntracked:
    """An op that does not record returns its value before it builds a
    backward rule; the value must be the recorded op's, byte for byte."""

    def test_cases_cover_every_recorded_op(self):
        assert {op for op, _, _ in UNTRACKED_CASES} == RECORDED_OPS

    @pytest.mark.parametrize("rows", [1, 64])
    @pytest.mark.parametrize("op, fn, shapes", UNTRACKED_CASES,
                             ids=[f"{op}{i}" for i, (op, _, _)
                                  in enumerate(UNTRACKED_CASES)])
    def test_untracked_output_keeps_the_recorded_bytes(self, op, fn, shapes,
                                                       rows, rng):
        arrays = [rng.standard_normal([rows if n == B else n for n in shape])
                  for shape in shapes]
        recorded = fn([Tensor(a, requires_grad=True) for a in arrays])
        assert recorded.node is not None and recorded.node.op == op
        with no_grad():
            free = fn([Tensor(a, requires_grad=True) for a in arrays])
        constants = fn([Tensor(a) for a in arrays])
        for out in (free, constants):
            assert out.node is None and not out.requires_grad
            assert out.data.shape == recorded.data.shape
            assert out.data.tobytes() == recorded.data.tobytes()

    @pytest.mark.parametrize("rows", [1, 64])
    def test_layer_norm_keeps_the_bits_of_mean_statistics(self, rows, rng):
        # the statistics are np.add.reduce and a divide, the arithmetic of
        # ndarray.mean without its Python wrapper: a reference computing
        # them with ndarray.mean gives the same bytes, forward and backward
        x, gain, bias, up = (rng.standard_normal(s) for s in
                             [(rows, 6, 16), 16, 16, (rows, 6, 16)])
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        out = xc * inv
        want = out * gain
        want += bias
        gg = up * gain
        want_dx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                         - out * (gg * out).mean(axis=-1, keepdims=True))

        ts = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
        y = layer_norm(*ts)
        tsum(mul(y, Tensor(up))).backward()
        assert y.data.tobytes() == want.tobytes()
        assert ts[0].grad.tobytes() == want_dx.tobytes()
        assert ts[1].grad.tobytes() == (up * out).sum(axis=(0, 1)).tobytes()
        assert ts[2].grad.tobytes() == up.sum(axis=(0, 1)).tobytes()


@given(
    lead=st.integers(min_value=1, max_value=3),
    rows=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40)
def test_softmax_rows_sum_to_one_property(lead, rows, cols, seed):
    x = np.random.default_rng(seed).standard_normal((lead, rows, cols)) * 10
    s = softmax(Tensor(x)).data
    np.testing.assert_allclose(s.sum(axis=-1), np.ones((lead, rows)),
                               atol=1e-9)


@given(
    shape=st.sampled_from([(3,), (2, 4), (2, 3, 2)]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30)
def test_sum_grad_is_ones_property(shape, seed):
    x = Tensor(np.random.default_rng(seed).standard_normal(shape),
               requires_grad=True)
    tsum(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones(shape))
