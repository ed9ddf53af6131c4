"""Trainable building blocks: linear maps, layer norm, sinusoidal position
tables, multi-head attention, feed-forward nets, and stacked LSTMs.

Every layer, and the model built from them, is a :class:`Module`: a plain
parameter container whose ``named_params()`` is derived from its
attributes. A parameter's name is its attribute path (``encoder.0.attn.wq``,
``lstm.layer.1.u``), and the order in which attributes are first assigned
is the parameter order: the checkpoint layout, the optimizer's iteration
order and the gradient-norm summation order. Forward passes are ordinary
functions over :mod:`tripcast.tensor` values, so every layer is
differentiable end to end and checkable against finite differences.
A layer built with ``per_position=True``, as every decoder layer is, runs
each forward GEMM one position at a time (see
:func:`~tripcast.tensor.matmul`).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .tensor import (
    Tensor,
    add,
    attention,
    heads,
    layer_norm,
    lstm,
    matmul,
    relu,
)

# Additive mask value for blocked attention positions. Large enough that
# exp(x - max) underflows to exactly 0.0 in float64, so masked positions get
# exactly zero weight.
MASK_VALUE = -1e30


def xavier_uniform(rng: np.random.Generator, fan_in: int,
                   fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Module:
    """Parameter container; names its parameters by attribute path."""

    def named_params(self, prefix: str = "") -> list:
        """``(name, tensor)`` pairs, walking attributes in assignment order:
        each :class:`Tensor`, each nested module under ``name.`` and each
        list of modules under ``name.i.``; anything else is skipped."""
        params = []
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                params.append((prefix + name, value))
            elif isinstance(value, Module):
                params += value.named_params(f"{prefix}{name}.")
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    params += item.named_params(f"{prefix}{name}.{i}.")
        return params


class Linear(Module):
    """Affine map on the last axis, ``x @ W + b``, as one ``matmul`` node."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 per_position: bool = False):
        self.weight = Tensor(xavier_uniform(rng, d_in, d_out), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True)
        self.per_position = per_position

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.weight, self.bias, self.per_position)


class LayerNorm(Module):
    """Standardize the last axis, then apply a learned gain and bias, as
    one ``layer_norm`` node."""

    def __init__(self, d: int):
        self.gain = Tensor(np.ones(d), requires_grad=True)
        self.bias = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias)


class FeedForward(Module):
    """Position-wise two-layer net: linear, ReLU, linear.

    Called like :class:`LstmSubLayer`, as a block's sub-layer: returns
    ``(y, None)``, as it has no state to carry, and ignores ``state``.
    """

    def __init__(self, d_model: int, width: int, rng: np.random.Generator,
                 per_position: bool = False):
        self.lin1 = Linear(d_model, width, rng, per_position)
        self.lin2 = Linear(width, d_model, rng, per_position)

    def __call__(self, x: Tensor, state: Optional[Tensor] = None) -> tuple:
        return self.lin2(relu(self.lin1(x))), None


def positional_encoding(seq_len: int, d_model: int) -> Tensor:
    """Sinusoidal position table of shape ``(seq_len, d_model)``.

    Even columns carry ``sin(pos / 10000^(2i/d_model))``, odd columns the
    matching cosine. Added to embedded inputs, never concatenated.
    """
    if d_model % 2 != 0:
        raise ValueError(f"d_model must be even for sin/cos pairing, got {d_model}")
    pos = np.arange(seq_len, dtype=np.float64)[:, None]
    pair = np.arange(d_model // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * pair / d_model)
    table = np.empty((seq_len, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return Tensor(table)


def causal_mask(size: int) -> Tensor:
    """Additive (size, size) mask: 0 at or below the diagonal, blocked above."""
    m = np.triu(np.full((size, size), MASK_VALUE), k=1)
    return Tensor(m)


class DecodeCache:
    """What one decoder layer keeps between steps of one-position decoding.

    ``k`` and ``v`` hold the self-attention keys and values of positions
    ``< step`` as ``(B, n_heads, H, d_head)`` tensors, zero from ``step``
    on; a step reads all ``H`` rows, so its softmax sums the terms teacher
    forcing sums. ``state`` is an LSTM sub-layer's ``(B, 2·d_model)``
    ``(h, c)`` after position ``step - 1``; it is ``None`` at step 0 and
    for a feed-forward sub-layer.
    """

    def __init__(self, batch: int, horizon: int, n_heads: int, d_head: int):
        self.k = Tensor(np.zeros((batch, n_heads, horizon, d_head)))
        self.v = Tensor(np.zeros((batch, n_heads, horizon, d_head)))
        self.state = None
        self.step = 0


class MultiHeadAttention(Module):
    """Fused q/k/v projections, the :func:`~tripcast.tensor.attention` op
    over all heads, output map.

    ``wq``, ``wk`` and ``wv`` are ``(d_model, d_model)``; head ``h`` owns
    columns ``h*d_head:(h+1)*d_head`` of each. Self-attention when the same
    tensor is passed as query and key/value source; cross-attention when
    ``x_kv`` is an encoder output, whose keys and values
    :meth:`project_kv` can compute once for many calls to :meth:`attend`.
    ``per_position`` goes to every GEMM and to the attention op.
    """

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator,
                 per_position: bool = False):
        if d_model % n_heads != 0:
            raise ValueError(
                f"d_model={d_model} not divisible by n_heads={n_heads}"
            )
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        # seeded initial values depend on this draw order and these bounds:
        # head by head, q then k then v, each with the per-head Xavier bound
        draws = [[xavier_uniform(rng, d_model, self.d_head) for _ in "qkv"]
                 for _ in range(n_heads)]
        self.wq, self.wk, self.wv = (
            Tensor(np.concatenate(cols, axis=-1), requires_grad=True)
            for cols in zip(*draws))
        self.wo = Tensor(xavier_uniform(rng, d_model, d_model), requires_grad=True)
        self.per_position = per_position

    def _map(self, x: Tensor, w: Tensor) -> Tensor:
        return matmul(x, w, per_position=self.per_position)

    def project_kv(self, x_kv: Tensor) -> tuple:
        """Keys and values of ``x_kv``, projected and split into heads.

        Returns two ``(*lead, n_heads, Lk, d_head)`` tensors for
        :meth:`attend`. Cross-attention over a fixed encoder output computes
        them once and reuses them for every query.
        """
        return (heads(self._map(x_kv, self.wk), self.n_heads),
                heads(self._map(x_kv, self.wv), self.n_heads))

    def attend(self, x_q: Tensor, k: Tensor, v: Tensor,
               mask: Optional[Tensor] = None) -> Tensor:
        """Attend from ``x_q`` to keys and values from :meth:`project_kv`,
        under a ``mask`` with one row per query position."""
        q = self._map(x_q, self.wq)
        return self._map(attention(q, k, v, self.n_heads, mask,
                                   self.per_position), self.wo)

    def __call__(self, x_q: Tensor, x_kv: Tensor,
                 mask: Optional[Tensor] = None,
                 cache: Optional[DecodeCache] = None) -> Tensor:
        """Attend from ``x_q`` to ``x_kv``. With ``cache``, both are the one
        position ``cache.step``, whose keys and values join the cache, and
        ``mask`` is its ``(1, H)`` row of the causal mask."""
        k, v = self.project_kv(x_kv)
        if cache is not None:
            cache.k.data[:, :, cache.step] = k.data[:, :, 0]
            cache.v.data[:, :, cache.step] = v.data[:, :, 0]
            k, v = cache.k, cache.v
        return self.attend(x_q, k, v, mask)


class _LstmLayer(Module):
    """Fused gate parameters for one LSTM layer.

    ``w`` is ``(d_in, 4h)``, ``u`` is ``(h, 4h)`` and ``b`` is ``(4h,)``, with
    the gates in column blocks of width ``h`` in the order input, forget,
    output, candidate.
    """

    def __init__(self, d_in: int, hidden: int, rng: np.random.Generator):
        # seeded initial values depend on this draw order and these bounds:
        # gate by gate, w then u, each with the per-gate Xavier bound
        draws = [(xavier_uniform(rng, d_in, hidden),
                  xavier_uniform(rng, hidden, hidden)) for _ in "ifog"]
        ws, us = zip(*draws)
        self.w = Tensor(np.concatenate(ws, axis=-1), requires_grad=True)
        self.u = Tensor(np.concatenate(us, axis=-1), requires_grad=True)
        b = np.zeros(4 * hidden)
        b[hidden:2 * hidden] = 1.0  # forget gate
        self.b = Tensor(b, requires_grad=True)


class Lstm(Module):
    """Stacked LSTM; each layer holds its four gates as one fused weight and
    runs as one :func:`tripcast.tensor.lstm` node.

    Forget-gate biases start at 1.0; other biases at zero.
    """

    def __init__(self, d_in: int, hidden: int, num_layers: int,
                 rng: np.random.Generator, per_position: bool = False):
        self.hidden = hidden
        self.layer = [
            _LstmLayer(d_in if i == 0 else hidden, hidden, rng)
            for i in range(num_layers)
        ]
        self.per_position = per_position

    def __call__(self, x: Tensor, state: Optional[list] = None):
        """Run the stack over a (B, L, d_in) sequence.

        Returns ``(seq, outs)``: ``seq`` is the top layer's (B, L, hidden)
        output and ``outs`` holds each layer's (B, L, 2*hidden)
        :func:`~tripcast.tensor.lstm` output, ``h_t`` in the first
        ``hidden`` columns and ``c_t`` in the rest; a caller slices only the
        states it reads. Every layer starts from zero states, or from
        ``state``: one (B, 2*hidden) ``(h, c)`` per layer, such as the last
        rows of an earlier call's ``outs``, taken as constants.
        """
        hid = self.hidden
        zeros = Tensor(np.zeros((x.shape[0], hid)))
        outs = []
        seq = x
        for li, layer in enumerate(self.layer):
            h0 = c0 = zeros
            if state is not None:
                h0 = Tensor(state[li].data[:, :hid])
                c0 = Tensor(state[li].data[:, hid:])
            outs.append(lstm(seq, h0, c0, layer.w, layer.u, layer.b,
                             self.per_position))
            seq = outs[-1][:, :, :hid]
        return seq, outs


class LstmSubLayer(Module):
    """Single-layer LSTM drop-in for a block's feed-forward slot.

    Processes the block's sequence left to right, from the (B, 2*d_model)
    ``(h, c)`` in ``state`` or from zeros, and projects the hidden states
    back to model width; the caller adds the residual. Returns ``(y, out)``,
    where ``out`` is the layer's (B, L, 2*d_model)
    :func:`~tripcast.tensor.lstm` output; its last row is the state that
    continues the recurrence.
    """

    def __init__(self, d_model: int, rng: np.random.Generator,
                 per_position: bool = False):
        self.lstm = Lstm(d_model, d_model, 1, rng, per_position)
        self.proj = Linear(d_model, d_model, rng, per_position)

    def __call__(self, x: Tensor, state: Optional[Tensor] = None) -> tuple:
        seq, outs = self.lstm(x, None if state is None else [state])
        return self.proj(seq), outs[0]


def _make_sublayer(kind: str, d_model: int, ffn_width: int,
                   rng: np.random.Generator, per_position: bool = False):
    if kind == "ffn":
        return FeedForward(d_model, ffn_width, rng, per_position)
    if kind == "lstm":
        return LstmSubLayer(d_model, rng, per_position)
    raise ValueError(f"unknown sub-layer kind {kind!r}")


class EncoderBlock(Module):
    """Pre-norm block: self-attention then a feed-forward (or LSTM) sub-layer."""

    def __init__(self, d_model: int, n_heads: int, ffn_width: int,
                 rng: np.random.Generator, sub_layer: str = "ffn"):
        self.ln1 = LayerNorm(d_model)
        self.attn = MultiHeadAttention(d_model, n_heads, rng)
        self.ln2 = LayerNorm(d_model)
        self.sub = _make_sublayer(sub_layer, d_model, ffn_width, rng)

    def __call__(self, x: Tensor) -> Tensor:
        h = self.ln1(x)
        x = add(x, self.attn(h, h))
        x = add(x, self.sub(self.ln2(x))[0])
        return x


class DecoderBlock(Module):
    """Pre-norm block: masked self-attention, cross-attention, sub-layer,
    each running its GEMMs per position.

    Cross-attention reads keys and values the caller projects once from the
    encoder output with ``cross_attn.project_kv``. Returns ``(x, out)``,
    where ``out`` is the sub-layer's carry (see :class:`LstmSubLayer`).

    ``mask`` has one row per position of ``x``. With ``cache``, ``x`` is
    the one position ``cache.step`` of an ``H``-position sequence. The
    block attends over the cached positions, starts an LSTM sub-layer from
    ``cache.state``, and leaves the cache ready for the next position.
    """

    def __init__(self, d_model: int, n_heads: int, ffn_width: int,
                 rng: np.random.Generator, sub_layer: str = "ffn"):
        self.ln1 = LayerNorm(d_model)
        self.self_attn = MultiHeadAttention(d_model, n_heads, rng,
                                            per_position=True)
        self.ln2 = LayerNorm(d_model)
        self.cross_attn = MultiHeadAttention(d_model, n_heads, rng,
                                             per_position=True)
        self.ln3 = LayerNorm(d_model)
        self.sub = _make_sublayer(sub_layer, d_model, ffn_width, rng,
                                  per_position=True)

    def __call__(self, x: Tensor, cross_kv: tuple, mask: Tensor,
                 cache: Optional[DecodeCache] = None) -> tuple:
        h = self.ln1(x)
        x = add(x, self.self_attn(h, h, mask, cache))
        x = add(x, self.cross_attn.attend(self.ln2(x), *cross_kv))
        y, out = self.sub(self.ln3(x), None if cache is None else cache.state)
        if cache is not None:
            cache.state = None if out is None else out[:, -1]
            cache.step += 1
        return add(x, y), out
