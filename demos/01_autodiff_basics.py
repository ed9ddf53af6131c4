"""A walking tour of the autodiff core.

Builds a few small graphs by hand, runs reverse mode, and cross-checks one
gradient against a central finite difference.  Finishes with the packaged
gradient audit, which does the same exercise for every operation and layer.

Run:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from tripcast.gradcheck import run_gradcheck
from tripcast.tensor import Tensor, add, layer_norm, matmul, mse, reshape

rule = "-" * 64

# ----------------------------------------------------------------------
print(rule)
print("1. A scalar chain: y = mse(p, 0), the mean of p², with p = a @ b")
print(rule)

a = Tensor(np.array([[0.3, -1.2, 0.8]]), requires_grad=True)
b = Tensor(np.array([[1.5, 0.2], [0.4, -0.3], [-0.7, 1.0]]),
           requires_grad=True)
p = matmul(a, b)
zero = Tensor(np.zeros((1, 2)))
y = mse(p, zero)
y.backward()

# d/da mean((a@b)^2) = 2 * (a@b) @ b^T / n
manual = 2.0 * (a.data @ b.data) @ b.data.T / p.size
print("y           =", float(y.data))
print("a.grad      =", a.grad)
print("closed form =", manual)
print("max |diff|  =", np.max(np.abs(a.grad - manual)))

# ----------------------------------------------------------------------
print()
print(rule)
print("2. The same gradient by central finite differences")
print(rule)

# Nudge one coordinate of `a` both ways and difference the losses.  This
# is the oracle the gradient audit uses for every parameter of every op.
step = 1e-6
i = (0, 1)
fd = 0.0
for sign in (+1.0, -1.0):
    bumped = a.data.copy()
    bumped[i] += sign * step
    out = mse(matmul(Tensor(bumped), Tensor(b.data)), zero)
    fd += sign * float(out.data)
fd /= 2.0 * step
print(f"finite difference for a{list(i)} = {fd:.10f}")
print(f"reverse mode for a{list(i)}     = {a.grad[i]:.10f}")

# ----------------------------------------------------------------------
print()
print(rule)
print("3. Matrix ops and fan-out accumulate correctly")
print(rule)

w = Tensor(np.arange(6.0).reshape(2, 3) / 10.0, requires_grad=True)
x = Tensor(np.ones((3, 2)))
# w is used twice; its gradient is the sum of both paths
s = add(matmul(w, x), matmul(w, x))
y = mse(s, Tensor(np.zeros((2, 2))))
y.backward()
# d/dw mean(s^2) with s = 2·w@x: each path carries (2s/n) @ x^T
print("w used twice, grad shape", w.grad.shape)
print(w.grad)
print("closed form:")
print(2.0 * (2.0 * s.data / s.size) @ x.data.T)

# ----------------------------------------------------------------------
print()
print(rule)
print("4. Layer norm rows have zero mean and unit variance, and gradients")
print("   reach the input and the learned gain")
print(rule)

x = Tensor(np.array([[2.0, -1.0, 0.5, 3.0], [0.0, 1.0, 0.0, 1.0]]),
           requires_grad=True)
gain = Tensor(np.array([1.0, 0.5, 2.0, 1.5]), requires_grad=True)
bias = Tensor(np.zeros(4))
unit = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4))).data
print("row means:    ", unit.mean(axis=-1))
print("row variances:", unit.var(axis=-1), "(just under 1: eps is 1e-5)")
c = np.array([[1.0, -2.0, 0.5, 0.0], [0.3, 0.3, -1.0, 2.0]])
# sum(norm(x) * gain * c), as the gradient audit builds a weighted sum:
# the output as one row times the weights as one column
weights = Tensor(c.reshape(-1, 1))
matmul(reshape(layer_norm(x, gain, bias), (1, -1)), weights).backward()
# d/dgain sum(norm(x) * gain * c) = sum over rows of norm(x) * c
print("gain.grad   =", gain.grad)
print("closed form =", (unit * c).sum(axis=0))
print("x.grad rows sum to ~0 (layer norm is shift-invariant):",
      x.grad.sum(axis=-1))

# ----------------------------------------------------------------------
print()
print(rule)
print("5. The full gradient audit (every op, every layer)")
print(rule)

report = run_gradcheck()
print(report.format())
