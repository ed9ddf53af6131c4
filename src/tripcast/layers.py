"""Trainable building blocks: linear maps, layer norm, sinusoidal position
tables, scaled-dot-product and multi-head attention, feed-forward nets, and
stacked LSTMs.

All layers are plain parameter containers exposing ``named_params()``;
forward passes are ordinary functions over :mod:`tripcast.tensor` values, so
every layer is differentiable end to end and checkable against finite
differences.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    add,
    layer_norm_core,
    lstm,
    matmul,
    mul,
    relu,
    scale,
    softmax,
    transpose,
)

# Additive mask value for blocked attention positions. Large enough that
# exp(x - max) underflows to exactly 0.0 in float64, so masked positions get
# exactly zero weight.
MASK_VALUE = -1e30


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: Optional[tuple] = None) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))


def _prefixed(prefix: str, layer) -> list:
    return [(f"{prefix}.{name}", t) for name, t in layer.named_params()]


class Linear:
    """Affine map on the last axis: ``x @ W + b``."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 bias: bool = True):
        self.weight = Tensor(xavier_uniform(rng, d_in, d_out), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = matmul(x, self.weight)
        if self.bias is not None:
            out = add(out, self.bias)
        return out

    def named_params(self):
        ps = [("weight", self.weight)]
        if self.bias is not None:
            ps.append(("bias", self.bias))
        return ps


class LayerNorm:
    """Standardize the last axis, then apply a learned gain and bias."""

    def __init__(self, d: int):
        self.gain = Tensor(np.ones(d), requires_grad=True)
        self.bias = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return add(mul(layer_norm_core(x), self.gain), self.bias)

    def named_params(self):
        return [("gain", self.gain), ("bias", self.bias)]


class FeedForward:
    """Position-wise two-layer net: linear, ReLU, linear.

    Called like :class:`LstmSubLayer`, as a block's sub-layer: returns
    ``(y, None)``, as it has no state to carry, and ignores ``prev``.
    """

    def __init__(self, d_model: int, width: int, rng: np.random.Generator):
        self.lin1 = Linear(d_model, width, rng)
        self.lin2 = Linear(width, d_model, rng)

    def __call__(self, x: Tensor, prev: Optional[Tensor] = None) -> tuple:
        return self.lin2(relu(self.lin1(x))), None

    def named_params(self):
        return _prefixed("lin1", self.lin1) + _prefixed("lin2", self.lin2)


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


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor,
                         mask: Optional[Tensor] = None,
                         return_weights: bool = False):
    """Softmax(q kᵀ / sqrt(d_k) + mask) v over the last two axes.

    ``mask`` is an additive (Lq, Lk) tensor; blocked positions receive
    exactly zero attention weight.
    """
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"query/key dims disagree: {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"key/value lengths disagree: {k.shape} vs {v.shape}")
    d_k = q.shape[-1]
    scores = scale(matmul(q, transpose(k)), 1.0 / math.sqrt(d_k))
    if mask is not None:
        if mask.shape != (q.shape[-2], k.shape[-2]):
            raise ShapeError(
                f"mask shape {mask.shape} does not match (Lq, Lk)="
                f"({q.shape[-2]}, {k.shape[-2]})"
            )
        scores = add(scores, mask)
    weights = softmax(scores, axis=-1)
    out = matmul(weights, v)
    if return_weights:
        return out, weights
    return out


class MultiHeadAttention:
    """Fused q/k/v projections, scaled-dot attention per head, output map.

    ``wq``, ``wk`` and ``wv`` are ``(d_model, d_model)``; head ``h`` owns
    columns ``h*d_head:(h+1)*d_head`` of each. Self-attention when the same
    tensor is passed as query and key/value source; cross-attention when
    ``x_kv`` is an encoder output, whose keys and values
    :meth:`project_kv` can compute once for many calls to :meth:`attend`.
    """

    def __init__(self, d_model: int, n_heads: int, rng: np.random.Generator):
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

    def _split_heads(self, t: Tensor) -> Tensor:
        # (*lead, L, d_model) -> (*lead, n_heads, L, d_head)
        return transpose(t.reshape(*t.shape[:-1], self.n_heads, self.d_head),
                         -3, -2)

    def project_kv(self, x_kv: Tensor) -> tuple:
        """Keys and values of ``x_kv``, projected and split into heads.

        Returns two ``(*lead, n_heads, Lk, d_head)`` tensors for
        :meth:`attend`. Cross-attention over a fixed encoder output computes
        them once and reuses them for every query.
        """
        return (self._split_heads(matmul(x_kv, self.wk)),
                self._split_heads(matmul(x_kv, self.wv)))

    def attend(self, x_q: Tensor, k: Tensor, v: Tensor,
               mask: Optional[Tensor] = None) -> Tensor:
        """Attend from ``x_q`` to keys and values from :meth:`project_kv`."""
        # all heads in one pass: one projection, then a head axis
        q = self._split_heads(matmul(x_q, self.wq))
        out = scaled_dot_attention(q, k, v, mask)
        merged = transpose(out, -3, -2).reshape(*x_q.shape[:-1],
                                                self.n_heads * self.d_head)
        return matmul(merged, self.wo)

    def __call__(self, x_q: Tensor, x_kv: Tensor,
                 mask: Optional[Tensor] = None) -> Tensor:
        return self.attend(x_q, *self.project_kv(x_kv), mask)

    def named_params(self):
        return [("wq", self.wq), ("wk", self.wk), ("wv", self.wv),
                ("wo", self.wo)]


class _LstmLayer:
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

    def named_params(self):
        return [("w", self.w), ("u", self.u), ("b", self.b)]


class Lstm:
    """Stacked LSTM; each layer holds its four gates as one fused weight and
    runs as one :func:`tripcast.tensor.lstm` node.

    Forget-gate biases start at 1.0; other biases at zero.
    """

    def __init__(self, d_in: int, hidden: int, num_layers: int,
                 rng: np.random.Generator):
        self.hidden = hidden
        self.num_layers = num_layers
        self.layers = [
            _LstmLayer(d_in if i == 0 else hidden, hidden, rng)
            for i in range(num_layers)
        ]

    def __call__(self, x: Tensor, state: Optional[list] = None,
                 prev: Optional[list] = None):
        """Run the stack over a (B, L, d_in) sequence.

        Returns ``(seq, outs)``: ``seq`` is the top layer's (B, L, hidden)
        output and ``outs`` holds each layer's (B, L, 2*hidden)
        :func:`~tripcast.tensor.lstm` output, ``h_t`` in the first
        ``hidden`` columns and ``c_t`` in the rest; a caller slices only the
        states it reads. ``state`` continues an earlier run: one
        (B, 2*hidden) ``[h, c]`` tensor per layer, such as
        ``[out[:, -1] for out in outs]`` of that run. Zero initial states
        are used when none are given. ``prev`` resumes each layer from an
        earlier call on the same input prefix, one (B, s, 2*hidden)
        ``outs`` prefix per layer; see :func:`~tripcast.tensor.lstm`.
        """
        hid = self.hidden
        zeros = Tensor(np.zeros((x.shape[0], hid)))
        outs = []
        seq = x
        for li, layer in enumerate(self.layers):
            h, c = ((zeros, zeros) if state is None
                    else (state[li][:, :hid], state[li][:, hid:]))
            outs.append(lstm(seq, h, c, layer.w, layer.u, layer.b,
                             None if prev is None else prev[li]))
            seq = outs[-1][:, :, :hid]
        return seq, outs

    def named_params(self):
        ps = []
        for i, layer in enumerate(self.layers):
            ps += _prefixed(f"layer.{i}", layer)
        return ps


class LstmSubLayer:
    """Single-layer LSTM drop-in for a block's feed-forward slot.

    Processes the block's sequence left to right and projects the hidden
    states back to model width; the caller adds the residual. Returns
    ``(y, out)``, where ``out`` is the layer's (B, L, 2*d_model)
    :func:`~tripcast.tensor.lstm` output; its first ``s`` rows, passed back
    as ``prev``, resume the recurrence at row ``s`` on the same prefix.
    """

    def __init__(self, d_model: int, rng: np.random.Generator):
        self.lstm = Lstm(d_model, d_model, 1, rng)
        self.proj = Linear(d_model, d_model, rng)

    def __call__(self, x: Tensor, prev: Optional[Tensor] = None) -> tuple:
        seq, outs = self.lstm(x, prev=None if prev is None else [prev])
        return self.proj(seq), outs[0]

    def named_params(self):
        return _prefixed("lstm", self.lstm) + _prefixed("proj", self.proj)


def _make_sublayer(kind: str, d_model: int, ffn_width: int,
                   rng: np.random.Generator):
    if kind == "ffn":
        return FeedForward(d_model, ffn_width, rng)
    if kind == "lstm":
        return LstmSubLayer(d_model, rng)
    raise ValueError(f"unknown sub-layer kind {kind!r}")


class EncoderBlock:
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

    def named_params(self):
        return (_prefixed("ln1", self.ln1) + _prefixed("attn", self.attn)
                + _prefixed("ln2", self.ln2) + _prefixed("sub", self.sub))


class DecoderBlock:
    """Pre-norm block: masked self-attention, cross-attention, sub-layer.

    Cross-attention reads keys and values the caller projects once from the
    encoder output with ``cross_attn.project_kv``. Returns ``(x, out)``:
    ``out`` is what the sub-layer carries to the next decoding step, and
    ``prev`` passes such a carry back in (see :class:`LstmSubLayer`).
    """

    def __init__(self, d_model: int, n_heads: int, ffn_width: int,
                 rng: np.random.Generator, sub_layer: str = "ffn"):
        self.ln1 = LayerNorm(d_model)
        self.self_attn = MultiHeadAttention(d_model, n_heads, rng)
        self.ln2 = LayerNorm(d_model)
        self.cross_attn = MultiHeadAttention(d_model, n_heads, rng)
        self.ln3 = LayerNorm(d_model)
        self.sub = _make_sublayer(sub_layer, d_model, ffn_width, rng)

    def __call__(self, x: Tensor, cross_kv: tuple, mask: Tensor,
                 prev: Optional[Tensor] = None) -> tuple:
        h = self.ln1(x)
        x = add(x, self.self_attn(h, h, mask))
        x = add(x, self.cross_attn.attend(self.ln2(x), *cross_kv))
        y, out = self.sub(self.ln3(x), prev)
        return add(x, y), out

    def named_params(self):
        return (_prefixed("ln1", self.ln1) + _prefixed("self_attn", self.self_attn)
                + _prefixed("ln2", self.ln2) + _prefixed("cross_attn", self.cross_attn)
                + _prefixed("ln3", self.ln3) + _prefixed("sub", self.sub))
