"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Every value flowing through the models in this package is a :class:`Tensor`.
Operations record a node on an implicit tape (one node per primitive applied);
``backward()`` on a scalar loss walks the recorded graph once in reverse
topological order and accumulates gradients into every tensor that requires
them. The graph is consumed by the traversal: training loops rebuild it on
each forward pass.

Broadcasting is deliberately restricted to two cases: a size-1 operand
(scalar), and a trailing-suffix match where the smaller operand's shape equals
the trailing dimensions of the larger (bias vectors, positional tables).
Anything else requires an explicit reshape.

``matmul`` against a 2-D right operand (a weight) folds every leading axis of
the left operand into rows: the forward, the input gradient and the weight
gradient are one GEMM each. The weight gradient is therefore summed over all
rows inside one GEMM rather than per batch entry and then over the batch, so
it can differ from the per-batch order in the last bits; it is the same on
every run. Only a batched right operand (attention's ``q·kᵀ`` and
``weights·v``) takes numpy's per-batch path.

``lstm`` runs a whole LSTM layer as one primitive with a hand-written
backward through time (BPTT): one input-projection GEMM over the sequence,
one recurrent GEMM per step forward and backward, and one GEMM or sum each
for the input and weight gradients. ``sigmoid`` and the LSTM gates share
one formula, ``0.5·tanh(0.5x) + 0.5``.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Optional, Sequence, Union

import numpy as np

Scalar = Union[int, float]

# every op name that can appear on the tape ("stack" lowers to
# reshape + concat and never records under its own name)
RECORDED_OPS = frozenset({
    "add", "sub", "mul", "scale", "tanh", "sigmoid", "relu", "matmul",
    "transpose", "reshape", "sum", "mean", "softmax", "layer_norm",
    "concat", "slice", "lstm",
})


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class GraphError(RuntimeError):
    """Misuse of the autodiff tape (non-scalar backward, consumed graph)."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block. Forward values only."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    """One recorded primitive: its inputs and the rule pushing grads to them."""

    __slots__ = ("op", "inputs", "backward_fn", "consumed")

    def __init__(self, op: str, inputs: tuple, backward_fn: Callable):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.consumed = False


class Tensor:
    """A dense float64 array, optionally tracked by the autodiff tape."""

    __slots__ = ("data", "requires_grad", "grad", "node", "_grad_owned")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node: Optional[_Node] = None
        self._grad_owned = False

    @classmethod
    def _result(cls, data: np.ndarray, node: Optional[_Node]) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = node is not None
        out.grad = None
        out.node = node
        out._grad_owned = False
        return out

    # ------------------------------------------------------------------
    # basic introspection

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        """The underlying array. Treat as read-only."""
        return self.data

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, "
            f"op={self.node.op if self.node else None})"
        )

    def zero_grad(self) -> None:
        self.grad = None
        self._grad_owned = False

    # ------------------------------------------------------------------
    # gradient accumulation / tape plumbing

    def _accumulate(self, g: np.ndarray) -> None:
        # Copy on write: the first contribution is stored by reference (it
        # may be a view into another buffer); a second contribution replaces
        # it with a fresh sum so no shared buffer is ever mutated.
        if self.grad is None:
            self.grad = g
        elif self._grad_owned:
            self.grad += g
        else:
            self.grad = self.grad + g
            self._grad_owned = True

    def _accumulate_at(self, idx, g: np.ndarray) -> None:
        """Scatter-add ``g`` into the gradient at a basic-indexing selection."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
            self._grad_owned = True
        elif not self._grad_owned:
            self.grad = self.grad.copy()
            self._grad_owned = True
        self.grad[idx] += g

    def backward(self) -> None:
        """Populate ``grad`` on every tensor this scalar depends on.

        The recorded graph is marked consumed afterwards; a second call on
        the same loss raises :class:`GraphError`.
        """
        if self.size != 1:
            raise GraphError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        if self.node is not None and self.node.consumed:
            raise GraphError("backward() called twice on a consumed graph")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                order.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append((t, True))
            if t.node is not None:
                for inp in t.node.inputs:
                    if inp.node is not None or inp.requires_grad:
                        stack.append((inp, False))

        self._accumulate(np.ones_like(self.data))
        leaves: list[Tensor] = []
        for t in reversed(order):
            node = t.node
            if node is None:
                if t.requires_grad:
                    leaves.append(t)
                continue
            node.backward_fn(t.grad)
            node.consumed = True
            node.inputs = ()
            node.backward_fn = None
        # Leaf gradients are user-visible: give each its own buffer so a
        # pass-through contribution never leaves two leaves aliased.
        for t in leaves:
            if t.grad is not None and not t._grad_owned:
                t.grad = t.grad.copy()
                t._grad_owned = True


# ----------------------------------------------------------------------
# broadcasting rules (scalar or trailing-suffix only)


def _elementwise_shape(sa: tuple, sb: tuple) -> tuple:
    if sa == sb:
        return sa
    if math.prod(sb) == 1:
        return sa
    if math.prod(sa) == 1:
        return sb
    if len(sb) < len(sa) and sa[len(sa) - len(sb):] == sb:
        return sa
    if len(sa) < len(sb) and sb[len(sb) - len(sa):] == sa:
        return sb
    raise ShapeError(f"operand shapes {sa} and {sb} are not broadcastable")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of scalar/suffix broadcast)."""
    if g.shape == shape:
        return g
    if math.prod(shape) == 1:
        return g.sum().reshape(shape)
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra)))


def _as_tensor(x: Union["Tensor", Scalar]) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _record(op: str, inputs: Sequence[Tensor], data: np.ndarray,
            backward_fn: Callable) -> Tensor:
    if _grad_enabled and any(t.requires_grad for t in inputs):
        return Tensor._result(data, _Node(op, tuple(inputs), backward_fn))
    return Tensor._result(data, None)


# ----------------------------------------------------------------------
# elementwise primitives


def add(a: Tensor, b: Union[Tensor, Scalar]) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _elementwise_shape(a.shape, b.shape)
    data = a.data + b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _record("add", (a, b), data, backward_fn)


def sub(a: Tensor, b: Union[Tensor, Scalar]) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _elementwise_shape(a.shape, b.shape)
    data = a.data - b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(-_unbroadcast(g, b.shape))

    return _record("sub", (a, b), data, backward_fn)


def mul(a: Tensor, b: Union[Tensor, Scalar]) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _elementwise_shape(a.shape, b.shape)
    data = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _record("mul", (a, b), data, backward_fn)


def scale(a: Tensor, s: Scalar) -> Tensor:
    """Multiply by a python scalar constant."""
    s = float(s)
    data = a.data * s

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * s)

    return _record("scale", (a,), data, backward_fn)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - out * out))

    return _record("tanh", (a,), out, backward_fn)


def _sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic function as ``0.5·tanh(0.5x) + 0.5``, written into ``out``.

    Finite and within [0, 1] for every finite input, with no overflow
    warning and no branch on the sign of ``x``.
    """
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * out * (1.0 - out))

    return _record("sigmoid", (a,), out, backward_fn)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    data = np.where(mask, a.data, 0.0)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return _record("relu", (a,), data, backward_fn)


# ----------------------------------------------------------------------
# linear algebra and reductions


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(
            f"matmul needs at least 2-d operands, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.shape} vs {b.shape}"
        )
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(
            f"matmul batch dimensions disagree: {a.shape} vs {b.shape}"
        )
    if b.ndim == 2:
        # a weight: fold every leading axis of ``a`` into rows, one GEMM each
        d, h = b.shape
        data = (a.data.reshape(-1, d) @ b.data).reshape(a.shape[:-1] + (h,))

        def backward_fn(g):
            g2 = g.reshape(-1, h)
            if a.requires_grad:
                a._accumulate((g2 @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                b._accumulate(a.data.reshape(-1, d).T @ g2)

        return _record("matmul", (a, b), data, backward_fn)

    data = np.matmul(a.data, b.data)

    def backward_fn(g):
        if a.requires_grad:
            da = np.matmul(g, np.swapaxes(b.data, -1, -2))
            if da.shape != a.shape:      # a 2-D ``a`` against a batched ``b``
                da = da.sum(axis=tuple(range(da.ndim - a.ndim)))
            a._accumulate(da)
        if b.requires_grad:
            b._accumulate(np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _record("matmul", (a, b), data, backward_fn)


def transpose(a: Tensor, ax1: int = -2, ax2: int = -1) -> Tensor:
    data = np.ascontiguousarray(np.swapaxes(a.data, ax1, ax2))

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(np.swapaxes(g, ax1, ax2))

    return _record("transpose", (a,), data, backward_fn)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    data = np.ascontiguousarray(a.data).reshape(shape)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _record("reshape", (a,), data, backward_fn)


def tsum(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if not a.requires_grad:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape))

    return _record("sum", (a,), data, backward_fn)


def tmean(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.size if axis is None else a.shape[axis]

    def backward_fn(g):
        if not a.requires_grad:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape) / n)

    return _record("mean", (a,), data, backward_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, computed with max-subtraction for stability."""
    if not np.isfinite(a.data).all():
        raise ValueError("softmax input contains non-finite values")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g):
        if a.requires_grad:
            dot = (g * out).sum(axis=axis, keepdims=True)
            a._accumulate(out * (g - dot))

    return _record("softmax", (a,), out, backward_fn)


def layer_norm_core(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize the last axis: zero mean, unit variance (plus eps)."""
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    out = xc * inv

    def backward_fn(g):
        if a.requires_grad:
            gm = g.mean(axis=-1, keepdims=True)
            gym = (g * out).mean(axis=-1, keepdims=True)
            a._accumulate(inv * (g - gm - out * gym))

    return _record("layer_norm", (a,), out, backward_fn)


# ----------------------------------------------------------------------
# structural primitives


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

    return _record("concat", tuple(tensors), data, backward_fn)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack along a new axis; built from reshape + concat."""
    expanded = []
    for t in tensors:
        shp = list(t.shape)
        shp.insert(axis if axis >= 0 else axis + t.ndim + 1, 1)
        expanded.append(reshape(t, tuple(shp)))
    return concat(expanded, axis=axis)


def tslice(a: Tensor, idx) -> Tensor:
    """Basic (slice/int tuple) indexing with scatter-into-zeros backward."""
    data = np.ascontiguousarray(a.data[idx])

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate_at(idx, g)

    return _record("slice", (a,), data, backward_fn)


# ----------------------------------------------------------------------
# recurrent primitive


def lstm(x: Tensor, h0: Tensor, c0: Tensor, w: Tensor, u: Tensor,
         b: Tensor, prev: Optional[Tensor] = None) -> Tensor:
    """One LSTM layer over a ``(B, L, d)`` sequence, recorded as one node.

    ``w`` is ``(d, 4h)``, ``u`` is ``(h, 4h)`` and ``b`` is ``(4h,)``, with
    the gates in column blocks input, forget, output, candidate; ``h0`` and
    ``c0`` are ``(B, h)``. Returns ``(B, L, 2h)``: ``h_t`` in the first
    ``h`` columns and ``c_t`` in the last ``h``.

    The input projection ``x·w + b`` is one GEMM over all ``L·B`` rows;
    each step adds ``h·u`` and applies the gates. The backward runs time
    in reverse with one ``dz_t·uᵀ`` GEMM per step, then forms the gradients
    of ``x``, ``w``, ``u`` and ``b`` as one GEMM or sum over all rows.
    Per-step buffers are time-major, so every step reads and writes
    contiguous ``(B, ·)`` blocks.

    ``prev`` resumes an earlier call on the same input prefix: its
    ``(B, s, 2h)`` outputs, ``s < L``. The input projection still covers
    all ``L·B`` rows, so the GEMM keeps its shape and every row its bits;
    rows ``< s`` are copied from ``prev``, step ``s`` runs from the
    ``(h, c)`` stored at row ``s - 1`` (from ``h0``, ``c0`` when ``s`` is
    0), and rows ``> s`` are left zero. Row ``s`` then equals the full
    call's row ``s`` bit for bit. Autoregressive decoding uses this to run
    one recurrence step per decoding step. The call cannot be recorded,
    since its backward would have to reach into the earlier call, so it
    raises :class:`GraphError` unless it runs under :func:`no_grad` or no
    input requires a gradient.
    """
    if x.ndim != 3:
        raise ShapeError(f"lstm input must be (B, L, d), got {x.shape}")
    batch, length, d = x.shape
    hid = u.shape[0]
    if length == 0:
        raise ShapeError("LSTM cannot run on a length-zero sequence")
    if (w.shape != (d, 4 * hid) or u.shape != (hid, 4 * hid)
            or b.shape != (4 * hid,)):
        raise ShapeError(
            f"lstm weights {w.shape}, {u.shape}, {b.shape} do not fit input "
            f"{x.shape} and hidden size {hid}"
        )
    if h0.shape != (batch, hid) or c0.shape != (batch, hid):
        raise ShapeError(
            f"lstm states {h0.shape}, {c0.shape} must be ({batch}, {hid})"
        )
    first, last = 0, length       # the recurrence steps this call runs
    if prev is not None:
        if (prev.ndim != 3 or prev.shape[0] != batch
                or prev.shape[1] >= length or prev.shape[2] != 2 * hid):
            raise ShapeError(
                f"lstm earlier outputs {prev.shape} must be ({batch}, s, "
                f"{2 * hid}) with s < {length}"
            )
        if _grad_enabled and any(t.requires_grad
                                 for t in (x, h0, c0, w, u, b)):
            raise GraphError(
                "lstm cannot record a call resuming from earlier outputs; "
                "run it under no_grad()"
            )
        first = prev.shape[1]
        last = first + 1
    rows = np.ascontiguousarray(x.data.transpose(1, 0, 2)).reshape(-1, d)
    gates = (rows @ w.data).reshape(length, batch, 4 * hid)
    gates[first:last] += b.data
    hs = np.empty((length + 1, batch, hid))
    cs = np.empty((length + 1, batch, hid))
    tanh_c = np.empty((length, batch, hid))
    if first:
        hs[first] = prev.data[:, first - 1, :hid]
        cs[first] = prev.data[:, first - 1, hid:]
    else:
        hs[0], cs[0] = h0.data, c0.data
    for t in range(first, last):
        z = gates[t]
        z += hs[t] @ u.data
        _sigmoid(z[:, :3 * hid], out=z[:, :3 * hid])
        np.tanh(z[:, 3 * hid:], out=z[:, 3 * hid:])
        np.multiply(z[:, hid:2 * hid], cs[t], out=cs[t + 1])
        cs[t + 1] += z[:, :hid] * z[:, 3 * hid:]
        np.tanh(cs[t + 1], out=tanh_c[t])
        np.multiply(z[:, 2 * hid:3 * hid], tanh_c[t], out=hs[t + 1])
    data = np.zeros((batch, length, 2 * hid))
    if first:
        data[:, :first] = prev.data
    data[:, first:last, :hid] = hs[first + 1:last + 1].transpose(1, 0, 2)
    data[:, first:last, hid:] = cs[first + 1:last + 1].transpose(1, 0, 2)

    def backward_fn(g):
        g = g.transpose(1, 0, 2)
        dz = np.empty_like(gates)        # pre-activation gradients, time-major
        dh = np.zeros((batch, hid))
        dc = np.zeros((batch, hid))
        for t in reversed(range(length)):
            act, d_act, tc = gates[t], dz[t], tanh_c[t]
            i_g, f_g = act[:, :hid], act[:, hid:2 * hid]
            o_g, g_g = act[:, 2 * hid:3 * hid], act[:, 3 * hid:]
            dh = g[t, :, :hid] + dh
            dc = g[t, :, hid:] + dc + dh * o_g * (1.0 - tc * tc)
            d_sig = act[:, :3 * hid] * (1.0 - act[:, :3 * hid])
            np.multiply(d_sig[:, :hid], g_g * dc, out=d_act[:, :hid])
            np.multiply(d_sig[:, hid:2 * hid], cs[t] * dc,
                        out=d_act[:, hid:2 * hid])
            np.multiply(d_sig[:, 2 * hid:], tc * dh,
                        out=d_act[:, 2 * hid:3 * hid])
            np.multiply(1.0 - g_g * g_g, i_g * dc, out=d_act[:, 3 * hid:])
            dc = dc * f_g
            dh = d_act @ u.data.T
        dz = dz.reshape(-1, 4 * hid)
        if x.requires_grad:
            x._accumulate((dz @ w.data.T).reshape(length, batch, d)
                          .transpose(1, 0, 2))
        if h0.requires_grad:
            h0._accumulate(dh)
        if c0.requires_grad:
            c0._accumulate(dc)
        if w.requires_grad:
            w._accumulate(rows.T @ dz)
        if u.requires_grad:
            u._accumulate(hs[:-1].reshape(-1, hid).T @ dz)
        if b.requires_grad:
            b._accumulate(dz.sum(axis=0))

    return _record("lstm", (x, h0, c0, w, u, b), data, backward_fn)


# ----------------------------------------------------------------------
# operator sugar on Tensor


def _attach_methods():
    Tensor.__add__ = add
    Tensor.__radd__ = lambda self, other: add(self, other)
    Tensor.__sub__ = sub
    Tensor.__rsub__ = lambda self, other: add(scale(self, -1.0), other)
    Tensor.__mul__ = mul
    Tensor.__rmul__ = lambda self, other: mul(self, other)
    Tensor.__neg__ = lambda self: scale(self, -1.0)
    Tensor.__matmul__ = matmul
    Tensor.__getitem__ = tslice
    Tensor.matmul = matmul
    Tensor.transpose = transpose
    Tensor.sum = tsum
    Tensor.mean = tmean
    Tensor.softmax = softmax
    Tensor.tanh = tanh
    Tensor.sigmoid = sigmoid
    Tensor.relu = relu

    def _reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    Tensor.reshape = _reshape


_attach_methods()
