"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Every value flowing through the models in this package is a :class:`Tensor`.
Operations record a node on an implicit tape (one node per primitive applied);
``backward()`` on a scalar loss walks the recorded graph once in reverse
topological order and accumulates gradients into every tensor that requires
them. The graph is consumed by the traversal: training loops rebuild it on
each forward pass. An op that does not record, inside :func:`no_grad` or
with no input that needs a gradient, builds no backward rule at all.

Broadcasting is deliberately restricted to two cases: a size-1 operand
(scalar), and a trailing-suffix match where the smaller operand's shape equals
the trailing dimensions of the larger (bias vectors, positional tables).
Anything else requires an explicit reshape.

``matmul`` takes a 2-D right operand (a weight) and an optional bias, so a
linear layer is one node. It folds every leading axis of the left operand
into rows: the forward, the input gradient and the weight gradient are one
GEMM each. The weight gradient is therefore summed over all rows inside one
GEMM rather than per batch entry and then over the batch, so it can differ
from the per-batch order in the last bits; it is the same on every run.
The decoder's calls are the exception: with ``per_position`` the forward
runs one ``(B, d)`` GEMM per position of a ``(B, L, d)`` input. On
OpenBLAS a row's bits depend on the GEMM's shape, so a one-position
decoding step then repeats, row for row, the arithmetic of teacher
forcing over all positions. Its backward stays one full-shape GEMM each.
``layer_norm`` applies its gain and bias inside the same node.

``heads`` splits attention heads off the last axis, and ``attention`` runs
multi-head attention from query split to head merge as one node with a
hand-written backward. Both repeat the numpy calls and memory layouts of the
composed ops in order, so their outputs and gradients keep the same bits;
the decoder's calls (``per_position``) run one 1-row product per query row.

``lstm`` runs a whole LSTM layer as one primitive with a hand-written
backward through time (BPTT): one input-projection GEMM over the sequence
(one per time step with ``per_position``), one recurrent GEMM per step
forward and backward, and one GEMM or sum each for the input and weight
gradients. The gate sigmoid is ``0.5·tanh(0.5x) + 0.5``.

Tape state lives only on tensors and nodes, so two ``backward()`` calls
on disjoint graphs may run at once. The one module global is
``no_grad``'s flag, read through :func:`grad_enabled`. Training's paired
halves run in two processes, each with its own tape and its own flag.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Optional, Sequence, Union

import numpy as np

Scalar = Union[int, float]

# every op name that can appear on the tape
RECORDED_OPS = frozenset({
    "add", "mul", "relu", "matmul", "reshape", "sum", "mse", "layer_norm",
    "slice", "heads", "attention", "lstm",
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


def grad_enabled() -> bool:
    """Whether ops record on the tape: False inside :func:`no_grad`."""
    return _grad_enabled


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

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}, "
            f"op={self.node.op if self.node else None})"
        )

    def zero_grad(self) -> None:
        self.grad = None
        self._grad_owned = False

    def __getitem__(self, idx) -> "Tensor":
        return tslice(self, idx)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)     # the module-level op

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


def _tracked(*inputs: Tensor) -> bool:
    """Whether an op on ``inputs`` records: outside :func:`no_grad`, with
    an input that needs a gradient."""
    return _grad_enabled and any(t.requires_grad for t in inputs)


def _record(op: str, inputs: Sequence[Tensor], data: np.ndarray,
            backward_fn: Callable) -> Tensor:
    if _tracked(*inputs):
        return Tensor._result(data, _Node(op, tuple(inputs), backward_fn))
    return Tensor._result(data, None)


# ----------------------------------------------------------------------
# elementwise primitives


def add(a: Tensor, b: Union[Tensor, Scalar]) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _elementwise_shape(a.data.shape, b.data.shape)
    data = a.data + b.data
    if not _tracked(a, b):
        return Tensor._result(data, None)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _record("add", (a, b), data, backward_fn)


def mul(a: Tensor, b: Union[Tensor, Scalar]) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _elementwise_shape(a.data.shape, b.data.shape)
    data = a.data * b.data
    if not _tracked(a, b):
        return Tensor._result(data, None)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _record("mul", (a, b), data, backward_fn)


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


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    data = np.where(mask, a.data, 0.0)
    if not _tracked(a):
        return Tensor._result(data, None)

    def backward_fn(g):
        a._accumulate(g * mask)

    return _record("relu", (a,), data, backward_fn)


# ----------------------------------------------------------------------
# linear algebra and reductions


def matmul(a: Tensor, w: Tensor, bias: Optional[Tensor] = None,
           per_position: bool = False) -> Tensor:
    """``a @ w``, plus ``bias`` when given, for a 2-D weight ``w``.

    With ``per_position``, ``a`` is ``(B, L, d)`` and the forward runs one
    ``(B, d)`` GEMM per position, so a position's rows get the same bits
    whatever ``L`` is; a call on that one position repeats them exactly.
    The result is position-major in memory.
    """
    sa, sw = a.data.shape, w.data.shape
    if len(sa) < 2 or len(sw) != 2 or per_position and len(sa) != 3:
        raise ShapeError(
            f"matmul needs an at least 2-d left operand (3-d per position) "
            f"and a 2-d weight, got {sa} and {sw}"
        )
    d, h = sw
    if sa[-1] != d:
        raise ShapeError(f"matmul inner dimensions disagree: {sa} vs {sw}")
    if bias is not None and bias.data.shape != (h,):
        raise ShapeError(f"matmul bias {bias.data.shape} does not fit weight "
                         f"{sw}")
    if per_position:
        data = np.matmul(a.data.swapaxes(0, 1), w.data).swapaxes(0, 1)
    else:   # fold every leading axis of ``a`` into rows, one GEMM each
        data = (a.data.reshape(-1, d) @ w.data).reshape(sa[:-1] + (h,))
    if bias is not None:
        data += bias.data
    inputs = (a, w) if bias is None else (a, w, bias)
    if not _tracked(*inputs):
        return Tensor._result(data, None)

    def backward_fn(g):
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(g, (h,)))
        g2 = g.reshape(-1, h)
        if a.requires_grad:
            a._accumulate((g2 @ w.data.T).reshape(sa))
        if w.requires_grad:
            w._accumulate(a.data.reshape(-1, d).T @ g2)

    return _record("matmul", inputs, data, backward_fn)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    data = np.ascontiguousarray(a.data).reshape(shape)
    if not _tracked(a):
        return Tensor._result(data, None)

    def backward_fn(g):
        a._accumulate(g.reshape(a.shape))

    return _record("reshape", (a,), data, backward_fn)


def tsum(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    if not _tracked(a):
        return Tensor._result(data, None)

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape))

    return _record("sum", (a,), data, backward_fn)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean of ``(a - b)²`` over every element, as one node.

    The numpy calls are those of ``mean(mul(sub(a, b), sub(a, b)))``, and
    the gradient ``2·(g/n)·(a - b)`` has the bits of that chain's
    ``(g/n)·(a - b) + (g/n)·(a - b)``.
    """
    if a.shape != b.shape:
        raise ShapeError(f"mse operand shapes differ: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    n = diff.size
    data = np.add.reduce(diff * diff, axis=None) / n    # as ndarray.mean
    if not _tracked(a, b):
        return Tensor._result(data, None)

    def backward_fn(g):
        g = (g / n) * diff
        g *= 2.0
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    return _record("mse", (a, b), data, backward_fn)


def _row_max(x: np.ndarray, axis: int) -> np.ndarray:
    """``x.max(axis, keepdims=True)``. Many short rows, such as attention
    scores over 6-12 keys, are folded column by column with
    ``np.maximum``, several times faster than numpy's reduction there; a
    maximum is exact, so the bits are the same."""
    n = x.shape[axis]
    if n > 16 or x.size < 32 * n * n:
        return np.maximum.reduce(x, axis=axis, keepdims=True)
    cols = np.moveaxis(x, axis, -1)
    m = cols[..., :1].copy()
    for j in range(1, n):
        np.maximum(m, cols[..., j:j + 1], out=m)
    return np.moveaxis(m, -1, axis)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    if not np.isfinite(x).all():
        raise ValueError("softmax input contains non-finite values")
    e = x - _row_max(x, axis)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def _row_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)`` by the same arithmetic, a sum and
    then a divide by the width, without ``ndarray.mean``'s Python wrapper."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    m /= x.shape[-1]
    return m


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Standardize the last axis to zero mean and unit variance (plus
    1e-5), then scale by ``gain`` and shift by ``bias``."""
    x, sg, sb = a.data, gain.data.shape, bias.data.shape
    if sg != x.shape[-1:] or sb != sg:
        raise ShapeError(f"layer_norm gain {sg} and bias {sb} do not fit "
                         f"input {x.shape}")
    xc = x - _row_mean(x)
    inv = 1.0 / np.sqrt(_row_mean(xc * xc) + 1e-5)
    out = xc * inv

    data = out * gain.data
    data += bias.data
    if not _tracked(a, gain, bias):
        return Tensor._result(data, None)

    def backward_fn(g):
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, sb))
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * out, sg))
        if a.requires_grad:
            g = g * gain.data
            a._accumulate(inv * (g - _row_mean(g) - out * _row_mean(g * out)))

    return _record("layer_norm", (a, gain, bias), data, backward_fn)


# ----------------------------------------------------------------------
# structural primitives


def tslice(a: Tensor, idx) -> Tensor:
    """Basic (slice/int tuple) indexing with scatter-into-zeros backward."""
    data = np.ascontiguousarray(a.data[idx])
    if not _tracked(a):
        return Tensor._result(data, None)

    def backward_fn(g):
        a._accumulate_at(idx, g)

    return _record("slice", (a,), data, backward_fn)


# ----------------------------------------------------------------------
# fused layer primitives: attention and the LSTM recurrence


def _to_heads(x: np.ndarray, n: int) -> np.ndarray:
    x = x.reshape(x.shape[:-1] + (n, x.shape[-1] // n))
    return np.ascontiguousarray(x.swapaxes(-3, -2))


def heads(a: Tensor, n_heads: int) -> Tensor:
    """Split ``(*lead, L, D)`` into ``(*lead, n_heads, L, D / n_heads)``."""
    shape = a.data.shape
    if len(shape) < 2 or shape[-1] % n_heads:
        raise ShapeError(f"cannot split {shape} into {n_heads} heads")
    data = _to_heads(a.data, n_heads)
    if not _tracked(a):
        return Tensor._result(data, None)

    def backward_fn(g):
        a._accumulate(g.swapaxes(-3, -2).reshape(shape))

    return _record("heads", (a,), data, backward_fn)


def _row_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` as one 1-row product per row of ``x``."""
    return np.matmul(x[..., None, :], y[..., None, :, :])[..., 0, :]


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
              mask: Optional[Tensor] = None,
              per_position: bool = False) -> Tensor:
    """Multi-head ``softmax(q·kᵀ / sqrt(d) + mask)·v``, recorded as one node.

    ``q`` is ``(*lead, Lq, D)``; ``k`` and ``v`` come from :func:`heads`,
    ``(*lead, n_heads, Lk, D / n_heads)`` and ``(*lead, n_heads, Lk, d_v)``.
    ``mask`` is a constant additive ``(Lq, Lk)`` tensor; a blocked position
    gets exactly zero weight. Returns ``(*lead, Lq, n_heads·d_v)``. With
    ``per_position``, ``q·kᵀ`` and ``weights·v`` run one 1-row product per
    query row, so a 1-row call under that row of the mask repeats the row's
    bits; the keys are read in place, and the backward stays batched.
    """
    sq, sk, sv = q.data.shape, k.data.shape, v.data.shape
    if (len(sq) < 2 or sk[:-2] != sq[:-2] + (n_heads,)
            or sk[-1] * n_heads != sq[-1] or sv[:-1] != sk[:-1]):
        raise ShapeError(f"attention query {sq}, keys {sk} and "
                         f"values {sv} do not fit {n_heads} heads")
    if mask is not None and mask.data.shape != (sq[-2], sk[-2]):
        raise ShapeError(f"mask shape {mask.data.shape} does not match "
                         f"(Lq, Lk)=({sq[-2]}, {sk[-2]})")
    c = 1.0 / math.sqrt(sk[-1])
    qh = _to_heads(q.data, n_heads)
    kt = k.data.swapaxes(-2, -1)
    if per_position:    # one 1-row product per query row
        product = _row_products
    else:
        kt, product = np.ascontiguousarray(kt), np.matmul
    scores = product(qh, kt)
    scores *= c
    if mask is not None:
        scores += mask.data
    w = _softmax(scores, -1)
    merged = np.ascontiguousarray(product(w, v.data).swapaxes(-3, -2))
    data = merged.reshape(sq[:-1] + (-1,))
    if not _tracked(q, k, v):
        return Tensor._result(data, None)

    def backward_fn(g):
        # the composed ops' rules in reverse: merge, ·v, softmax, ·c, q·kᵀ
        g = g.reshape(merged.shape).swapaxes(-3, -2)
        if v.requires_grad:
            v._accumulate(np.matmul(w.swapaxes(-1, -2), g))
        g = np.matmul(g, v.data.swapaxes(-1, -2))
        g = w * (g - (g * w).sum(axis=-1, keepdims=True)) * c
        if q.requires_grad:
            q._accumulate(np.matmul(g, kt.swapaxes(-1, -2))
                          .swapaxes(-3, -2).reshape(sq))
        if k.requires_grad:
            k._accumulate(np.matmul(qh.swapaxes(-1, -2), g).swapaxes(-2, -1))

    return _record("attention", (q, k, v), data, backward_fn)


def lstm(x: Tensor, h0: Tensor, c0: Tensor, w: Tensor, u: Tensor,
         b: Tensor, per_position: bool = False) -> Tensor:
    """One LSTM layer over a ``(B, L, d)`` sequence, recorded as one node.

    ``w`` is ``(d, 4h)``, ``u`` is ``(h, 4h)`` and ``b`` is ``(4h,)``, with
    the gates in column blocks input, forget, output, candidate; ``h0`` and
    ``c0`` are ``(B, h)``. Returns ``(B, L, 2h)``: ``h_t`` in the first
    ``h`` columns and ``c_t`` in the last ``h``.

    The input projection ``x·w + b`` is one GEMM over all ``L·B`` rows, or
    with ``per_position`` one ``(B, d)`` GEMM per time step; each step adds
    ``h·u`` and applies the gates. Projected per position, a length-1 call
    started from row ``t - 1``'s ``(h, c)`` equals row ``t`` of the full
    call bit for bit. The backward runs time in reverse with one
    ``dz_t·uᵀ`` GEMM per step, then forms the gradients of ``x``, ``w``,
    ``u`` and ``b`` as one GEMM or sum over all rows. Per-step buffers are
    time-major, so every step reads and writes contiguous ``(B, ·)`` blocks.
    """
    sx, sw, su, sb = x.data.shape, w.data.shape, u.data.shape, b.data.shape
    if len(sx) != 3:
        raise ShapeError(f"lstm input must be (B, L, d), got {sx}")
    batch, length, d = sx
    hid = su[0]
    if length == 0:
        raise ShapeError("LSTM cannot run on a length-zero sequence")
    if sw != (d, 4 * hid) or su != (hid, 4 * hid) or sb != (4 * hid,):
        raise ShapeError(f"lstm weights {sw}, {su}, {sb} do not fit input "
                         f"{sx} and hidden size {hid}")
    sh, sc = h0.data.shape, c0.data.shape
    if sh != (batch, hid) or sc != (batch, hid):
        raise ShapeError(f"lstm states {sh}, {sc} must be ({batch}, {hid})")
    rows = np.ascontiguousarray(x.data.transpose(1, 0, 2)).reshape(-1, d)
    if per_position:
        gates = np.matmul(rows.reshape(length, batch, d), w.data)
    else:
        gates = (rows @ w.data).reshape(length, batch, 4 * hid)
    gates += b.data
    hs = np.empty((length + 1, batch, hid))
    cs = np.empty((length + 1, batch, hid))
    tanh_c = np.empty((length, batch, hid))
    hs[0], cs[0] = h0.data, c0.data
    for t in range(length):
        z = gates[t]
        z += hs[t] @ u.data
        _sigmoid(z[:, :3 * hid], out=z[:, :3 * hid])
        np.tanh(z[:, 3 * hid:], out=z[:, 3 * hid:])
        np.multiply(z[:, hid:2 * hid], cs[t], out=cs[t + 1])
        cs[t + 1] += z[:, :hid] * z[:, 3 * hid:]
        np.tanh(cs[t + 1], out=tanh_c[t])
        np.multiply(z[:, 2 * hid:3 * hid], tanh_c[t], out=hs[t + 1])
    data = np.empty((batch, length, 2 * hid))
    data[:, :, :hid] = hs[1:].transpose(1, 0, 2)
    data[:, :, hid:] = cs[1:].transpose(1, 0, 2)
    if not _tracked(x, h0, c0, w, u, b):
        return Tensor._result(data, None)

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
