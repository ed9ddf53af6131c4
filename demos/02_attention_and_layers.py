"""Attention and the building-block layers, checked against plain loops.

Shows that the ``attention`` op equals a one-query-at-a-time computation,
what the causal mask actually blocks, and how the multi-head wrapper and
the LSTM stack behave on small inputs.

Run:  python3 demos/02_attention_and_layers.py
"""

import numpy as np

from tripcast.layers import (
    Lstm,
    MultiHeadAttention,
    causal_mask,
    positional_encoding,
)
from tripcast.tensor import Tensor, attention, heads, no_grad

rule = "-" * 64
rng = np.random.default_rng(0)


def attend(q, k, v, mask=None):
    """The attention op on one head: split k and v off, attend, merge."""
    return attention(Tensor(q), heads(Tensor(k), 1), heads(Tensor(v), 1), 1,
                     mask).data


def attention_weights(q, k, mask=None):
    """softmax(q kᵀ / sqrt(d_k) + mask) over the keys, in plain numpy."""
    scores = q @ k.swapaxes(-1, -2) / np.sqrt(k.shape[-1])
    if mask is not None:
        scores = scores + mask.data
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# ----------------------------------------------------------------------
print(rule)
print("1. Vectorized attention vs a per-query loop")
print(rule)

# one head over a batch of one sequence
L, d_k, d_v = 5, 4, 3
q = rng.normal(size=(1, L, d_k))
k = rng.normal(size=(1, L, d_k))
v = rng.normal(size=(1, L, d_v))

out = attend(q, k, v)

loop = np.empty((L, d_v))
for i in range(L):
    scores = q[0, i] @ k[0].T / np.sqrt(d_k)
    w = np.exp(scores - scores.max())
    w = w / w.sum()
    loop[i] = w @ v[0]

print("max |vectorized - loop| =", np.max(np.abs(out[0] - loop)))
print("weight row sums         =", attention_weights(q, k)[0].sum(axis=-1))

# ----------------------------------------------------------------------
print()
print(rule)
print("2. The causal mask zeroes attention to the future")
print(rule)

wts = attention_weights(q, k, causal_mask(L))
np.set_printoptions(precision=3, suppress=True)
print("masked weights (upper triangle is exactly zero):")
print(wts[0])

# Perturb the last key/value pair: outputs for earlier queries cannot move.
k2, v2 = k.copy(), v.copy()
k2[:, -1] += 10.0
v2[:, -1] -= 10.0
base = attend(q, k, v, causal_mask(L))[0]
pert = attend(q, k2, v2, causal_mask(L))[0]
print("rows 0..L-2 identical after perturbing position L-1:",
      np.array_equal(base[:-1], pert[:-1]))
print("row L-1 moved:", not np.allclose(base[-1], pert[-1]))

# ----------------------------------------------------------------------
print()
print(rule)
print("3. Multi-head attention keeps shapes, mixes heads")
print(rule)

d_model, n_heads = 8, 2
mha = MultiHeadAttention(d_model, n_heads, rng)
x = Tensor(rng.normal(size=(2, L, d_model)))
with no_grad():
    y = mha(x, x)
print("input ", x.shape, "-> output", y.shape)
print("parameters:", sum(p.data.size for _, p in mha.named_params()))

# ----------------------------------------------------------------------
print()
print(rule)
print("4. Positional encoding: interleaved sine/cosine by dimension")
print(rule)

pe = positional_encoding(6, d_model)
print("pe[position 0]  =", pe.data[0])
print("pe[position 3]  =", pe.data[3])
print("pe[:, 0] is sin(pos):", np.allclose(pe.data[:, 0],
                                           np.sin(np.arange(6.0))))

# ----------------------------------------------------------------------
print()
print(rule)
print("5. The LSTM stack carries state across a sequence")
print(rule)

lstm = Lstm(3, 5, 2, rng)
seq = Tensor(rng.normal(size=(1, 7, 3)))
with no_grad():
    hs, outs = lstm(seq)
print("hidden sequence shape:", hs.shape)
print("per-layer [hidden, cell] sequences:", [o.shape for o in outs])
