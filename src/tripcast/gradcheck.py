"""Central finite-difference verification of every backward rule.

One registry holds every check: a function, its small random inputs and,
for a layer, the layer itself. The registry turns the function's outputs
into a fixed weighted-sum objective and compares the tape's gradients
against central differences (step 1e-6, float64), for the inputs and for
every tensor of the layer's ``named_params()``. It covers each op in
``tensor.RECORDED_OPS``, the ops the models record, exactly once, plus the
composite layers that record more than one node (multi-head attention with
its projections, FFN, LSTM cell and stack, positional-table path). A
``Linear`` or ``LayerNorm`` layer is one ``matmul`` or ``layer_norm`` node,
which the op's own entry checks.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .layers import (
    FeedForward,
    Lstm,
    MultiHeadAttention,
    causal_mask,
    positional_encoding,
)

DEFAULT_STEP = 1e-6
DEFAULT_TOLERANCE = 1e-4


def max_grad_error(forward: Callable[..., Tensor], arrays: list,
                   step: float = DEFAULT_STEP,
                   params: Sequence[Tensor] = ()) -> float:
    """Worst elementwise relative error of tape grads vs central differences.

    ``forward`` maps one Tensor per input array to a scalar Tensor and must
    be a pure function of its inputs and of ``params``: tensors it reads by
    itself, such as a layer's weights. Those are checked too; each one's
    ``data`` is perturbed in place and restored exactly.
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    for p in params:
        p.zero_grad()
    forward(*tensors).backward()
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data)
                for t in tensors + list(params)]

    work = [np.array(a, dtype=np.float64) for a in arrays]

    def value() -> float:
        with T.no_grad():
            return forward(*[Tensor(w) for w in work]).item()

    worst = 0.0
    for arr, ana in zip(work + [p.data for p in params], analytic):
        flat = arr.reshape(-1)
        ana_flat = ana.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            f_plus = value()
            flat[j] = orig - step
            f_minus = value()
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(numeric), abs(ana_flat[j]), 1.0)
            worst = max(worst, abs(ana_flat[j] - numeric) / denom)
    return worst


@contextlib.contextmanager
def corrupted_backward(op_name: str, factor: float = 1.01):
    """Test hook: scale the named primitive's backward rule by ``factor``.

    Used to prove the checker actually detects a wrong gradient. An
    unrecognized name raises instead of silently corrupting nothing.
    """
    if op_name not in T.RECORDED_OPS:
        raise ValueError(
            f"unknown op {op_name!r}; recordable ops: "
            + ", ".join(sorted(T.RECORDED_OPS))
        )
    original = T._record

    def tampered(op, inputs, data, backward_fn):
        if op == op_name and backward_fn is not None:
            inner = backward_fn
            backward_fn = lambda g: inner(g * factor)
        return original(op, inputs, data, backward_fn)

    T._record = tampered
    try:
        yield
    finally:
        T._record = original


def _away_from_zero(x: np.ndarray, margin: float = 0.05) -> np.ndarray:
    # keep ReLU kinks out of the finite-difference stencil
    return np.where(np.abs(x) < margin, x + 2 * margin * np.sign(x + 1e-12), x)


# ----------------------------------------------------------------------
# check registry


def _as_list(outs) -> list:
    return list(outs) if isinstance(outs, (tuple, list)) else [outs]


def _checks(rng: np.random.Generator) -> list:
    """``(name, objective, arrays, params)`` for every check, in report order.

    Each entry's function returns one tensor or several; its objective is
    their sum weighted by random weights fixed here, so it is a pure
    function of the checked inputs. A layer entry also checks every tensor
    of the layer's ``named_params()``.
    """
    n = rng.normal
    checks = []

    def entry(name, fn, arrays, layer=None):
        with T.no_grad():
            shapes = [o.shape for o in _as_list(fn(*map(Tensor, arrays)))]
        weights = [Tensor(n(size=shape)) for shape in shapes]

        def objective(*xs):
            return functools.reduce(T.add, [
                T.tsum(T.mul(o, w)) for o, w in zip(_as_list(fn(*xs)), weights)])

        params = [p for _, p in layer.named_params()] if layer else []
        checks.append((name, objective, arrays, params))

    entry("add", T.add, [n(size=(3, 4)), n(size=(4,))])
    entry("mul", T.mul, [n(size=(3, 4)), n(size=(3, 4))])
    entry("relu", T.relu, [_away_from_zero(n(size=(4, 5)))])
    # the folded and the per-position forward, each with and without a bias
    entry("matmul", lambda a, w, b: (
              T.matmul(a, w), T.matmul(a, w, b),
              T.matmul(a, w, per_position=True),
              T.matmul(a, w, b, per_position=True)),
          [n(size=(2, 3, 4)), n(size=(4, 5)), n(size=5)])
    entry("reshape", lambda a: T.reshape(a, (4, 6)), [n(size=(2, 3, 4))])
    entry("sum", lambda a: (T.tsum(a, axis=1), T.tsum(T.mul(a, a))),
          [n(size=(2, 3, 4))])
    entry("mse", T.mse, [n(size=(2, 3, 4)), n(size=(2, 3, 4))])
    entry("layer_norm", T.layer_norm,
          [n(size=(3, 6)), 1.0 + 0.2 * n(size=6), 0.1 * n(size=6)])
    entry("slice", lambda a: (a[:, 1:3, :], a[:, 0, :]), [n(size=(2, 4, 3))])
    entry("heads", lambda a: T.heads(a, 2), [n(size=(2, 3, 4))])
    # two causal-masked heads, values wider than keys, batched and per row
    mask = causal_mask(3)
    entry("attention", lambda q, k, v: tuple(
              T.attention(q, k, v, 2, mask, rows) for rows in (False, True)),
          [n(size=(2, 3, 4)), n(size=(2, 2, 3, 2)), n(size=(2, 2, 3, 3))])
    # B=2, L=3, d=3, h=4; the output holds both the h half and the c half,
    # from the folded and the per-position input projection
    entry("lstm", lambda *a: (T.lstm(*a), T.lstm(*a, per_position=True)),
          [n(size=(2, 3, 3)), n(size=(2, 4)), n(size=(2, 4)),
           0.5 * n(size=(3, 16)), 0.5 * n(size=(4, 16)), 0.5 * n(size=16)])

    # additive position table on top of a linear embedding
    pe = positional_encoding(4, 6)
    entry("positional_path", lambda x, w: T.add(T.matmul(x, w), pe),
          [n(size=(2, 4, 5)), 0.5 * n(size=(5, 6))])
    mha = MultiHeadAttention(6, 2, rng)
    entry("multi_head_attention", lambda x: mha(x, x), [n(size=(2, 3, 6))], mha)
    ffn = FeedForward(6, 4, rng)
    entry("feed_forward", lambda x: ffn(x)[0], [n(size=(2, 3, 6))], ffn)
    # the checked output is every layer's h and c at every step
    cell = Lstm(3, 4, 1, rng)
    entry("lstm_cell", lambda x: cell(x)[1], [n(size=(2, 1, 3))], cell)
    deep = Lstm(3, 4, 2, rng)
    entry("lstm_stack", lambda x: deep(x)[1], [n(size=(2, 3, 3))], deep)
    return checks


@dataclass
class GradcheckReport:
    tolerance: float
    entries: list = field(default_factory=list)  # (name, worst_rel_err)

    @property
    def passed(self) -> bool:
        return all(err < self.tolerance for _, err in self.entries)

    def format(self) -> str:
        width = max(len(name) for name, _ in self.entries)
        lines = []
        for name, err in self.entries:
            status = "ok" if err < self.tolerance else "FAIL"
            lines.append(f"{name:<{width}}  {err:12.3e}  {status}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"worst-case tolerance {self.tolerance:g}: {verdict}")
        return "\n".join(lines)


def run_gradcheck(tolerance: float = DEFAULT_TOLERANCE,
                  step: float = DEFAULT_STEP,
                  corrupt_op: Optional[str] = None,
                  seed: int = 20240811) -> GradcheckReport:
    """Run every registered check; optionally corrupt one op's backward."""
    report = GradcheckReport(tolerance=tolerance)
    ctx = corrupted_backward(corrupt_op) if corrupt_op else contextlib.nullcontext()
    with ctx:
        rng = np.random.default_rng(seed)
        for name, objective, arrays, params in _checks(rng):
            report.entries.append(
                (name, max_grad_error(objective, arrays, step, params)))
    return report
