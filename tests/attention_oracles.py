"""Attention oracles shared by the layer and acceptance suites.

``composed_attention`` is multi-head attention written as the chain of tape
ops that the fused :func:`tripcast.tensor.attention` op replaced. The op's
default path must equal it bit for bit, forward and backward; with
``per_position`` the op runs other products and equals it to rounding.
``one_head`` runs the op on one head of plain ``(L, d)`` arrays.
"""

import math

import numpy as np

from tripcast import tensor as T
from tripcast.tensor import Tensor

from oracle_ops import bmatmul, mul, softmax, transpose


def composed_attention(q, k, v, n_heads, mask=None):
    """Split ``q``, ``k`` and ``v`` (``(*lead, L, D)`` tensors) into heads,
    then ``q·kᵀ``, scale, mask, softmax, ``·v`` and merge the heads, one
    tape op each. Returns ``(out, weights)``."""
    def split(t):
        t = t.reshape(*t.shape[:-1], n_heads, t.shape[-1] // n_heads)
        return transpose(t, -3, -2)

    qh, kh, vh = split(q), split(k), split(v)
    scores = mul(bmatmul(qh, transpose(kh)), 1.0 / math.sqrt(qh.shape[-1]))
    if mask is not None:
        scores = T.add(scores, mask)
    weights = softmax(scores, axis=-1)
    merged = transpose(bmatmul(weights, vh), -3, -2)
    return merged.reshape(*q.shape[:-1], -1), weights


def one_head(q, k, v, mask=None):
    """The op on one head of ``(Lq, d)``, ``(Lk, d)`` and ``(Lk, d_v)``
    arrays: ``(out, weights)``. The weights are the op's output for identity
    values, which the op's ``weights·v`` product passes through exactly."""
    kh, vh, eye = (T.heads(Tensor(a), 1) for a in (k, v, np.eye(len(k))))
    return (T.attention(Tensor(q), kh, vh, 1, mask),
            T.attention(Tensor(q), kh, eye, 1, mask))
