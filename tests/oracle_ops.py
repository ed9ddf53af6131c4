"""Tape ops that no model records, kept as reference implementations.

The composed attention in ``attention_oracles``, the per-step LSTM oracle
in ``test_layers`` and the composed squared error ``tmean(mul(d, d))`` with
``d = sub(a, b)`` are chains of these ops, which the fused ``attention``,
``lstm`` and ``mse`` ops must match. Each records through
``tensor._record`` like a shipped op, so the tape walks it and a test can
tamper with its backward; ``test_oracle_ops`` audits every one against
finite differences.
"""

from typing import Optional, Sequence, Union

import numpy as np

from tripcast import tensor as T
from tripcast.tensor import ShapeError, Tensor


def sub(a: Tensor, b: Union[Tensor, float]) -> Tensor:
    a, b = T._as_tensor(a), T._as_tensor(b)
    T._elementwise_shape(a.shape, b.shape)
    data = a.data - b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(T._unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(-T._unbroadcast(g, b.shape))

    return T._record("sub", (a, b), data, backward_fn)


def tmean(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.size if axis is None else a.shape[axis]

    def backward_fn(g):
        if not a.requires_grad:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape) / n)

    return T._record("mean", (a,), data, backward_fn)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - out * out))

    return T._record("tanh", (a,), out, backward_fn)


def sigmoid(a: Tensor) -> Tensor:
    out = T._sigmoid(a.data)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * out * (1.0 - out))

    return T._record("sigmoid", (a,), out, backward_fn)


def transpose(a: Tensor, ax1: int = -2, ax2: int = -1) -> Tensor:
    data = np.ascontiguousarray(np.swapaxes(a.data, ax1, ax2))

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(np.swapaxes(g, ax1, ax2))

    return T._record("transpose", (a,), data, backward_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, computed with max-subtraction for stability."""
    out = T._softmax(a.data, axis)

    def backward_fn(g):
        if a.requires_grad:
            dot = (g * out).sum(axis=axis, keepdims=True)
            a._accumulate(out * (g - dot))

    return T._record("softmax", (a,), out, backward_fn)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward_fn(g):
        offset = 0
        for t, sz in zip(tensors, sizes):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(offset, offset + sz)
                t._accumulate(g[tuple(idx)])
            offset += sz

    return T._record("concat", tuple(tensors), data, backward_fn)


def bmatmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched ``a @ b`` through numpy's per-batch path: ``b`` has a batch
    axis, and a 2-D ``a`` is shared across ``b``'s batch."""
    if a.ndim < 2 or b.ndim < 3:
        raise ShapeError(f"bmatmul needs a batched right operand, got "
                         f"{a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"bmatmul inner dimensions disagree: {a.shape} vs {b.shape}"
        )
    if a.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(
            f"bmatmul batch dimensions disagree: {a.shape} vs {b.shape}"
        )
    data = np.matmul(a.data, b.data)

    def backward_fn(g):
        if a.requires_grad:
            da = np.matmul(g, np.swapaxes(b.data, -1, -2))
            if da.shape != a.shape:      # a 2-D ``a`` against a batched ``b``
                da = da.sum(axis=tuple(range(da.ndim - a.ndim)))
            a._accumulate(da)
        if b.requires_grad:
            b._accumulate(np.matmul(np.swapaxes(a.data, -1, -2), g))

    return T._record("bmatmul", (a, b), data, backward_fn)
