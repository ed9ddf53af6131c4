"""Attention and the building-block layers, checked against plain loops.

Shows that the vectorized scaled-dot attention equals a one-query-at-a-time
computation, what the causal mask actually blocks, and how the multi-head
wrapper and the LSTM stack behave on small inputs.

Run:  python3 demos/02_attention_and_layers.py
"""

import numpy as np

from tripcast.layers import (
    Lstm,
    MultiHeadAttention,
    causal_mask,
    positional_encoding,
    scaled_dot_attention,
)
from tripcast.tensor import Tensor, no_grad

rule = "-" * 64
rng = np.random.default_rng(0)

# ----------------------------------------------------------------------
print(rule)
print("1. Vectorized attention vs a per-query loop")
print(rule)

L, d_k, d_v = 5, 4, 3
q = rng.normal(size=(L, d_k))
k = rng.normal(size=(L, d_k))
v = rng.normal(size=(L, d_v))

out, weights = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v),
                                    return_weights=True)

loop = np.empty((L, d_v))
for i in range(L):
    scores = q[i] @ k.T / np.sqrt(d_k)
    w = np.exp(scores - scores.max())
    w = w / w.sum()
    loop[i] = w @ v

print("max |vectorized - loop| =", np.max(np.abs(out.data - loop)))
print("weight row sums         =", weights.data.sum(axis=-1))

# ----------------------------------------------------------------------
print()
print(rule)
print("2. The causal mask zeroes attention to the future")
print(rule)

_, wts = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v),
                              mask=causal_mask(L), return_weights=True)
np.set_printoptions(precision=3, suppress=True)
print("masked weights (upper triangle is exactly zero):")
print(wts.data)

# Perturb the last key/value pair: outputs for earlier queries cannot move.
k2, v2 = k.copy(), v.copy()
k2[-1] += 10.0
v2[-1] -= 10.0
base = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v),
                            mask=causal_mask(L))
pert = scaled_dot_attention(Tensor(q), Tensor(k2), Tensor(v2),
                            mask=causal_mask(L))
print("rows 0..L-2 identical after perturbing position L-1:",
      np.array_equal(base.data[:-1], pert.data[:-1]))
print("row L-1 moved:", not np.allclose(base.data[-1], pert.data[-1]))

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
