"""Central finite-difference verification of every backward rule.

Each registered check builds small random inputs, runs a scalar forward,
and compares the tape's gradients against central differences (step 1e-6,
float64). The registry covers every tensor primitive exactly once (the fused
``lstm`` layer op among them) plus the composite layers (attention heads,
multi-head with output weights, FFN, layer norm, LSTM cell and stack,
embedding, positional-table path).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .layers import (
    FeedForward,
    LayerNorm,
    Linear,
    Lstm,
    MultiHeadAttention,
    causal_mask,
    positional_encoding,
    scaled_dot_attention,
)

DEFAULT_STEP = 1e-6
DEFAULT_TOLERANCE = 1e-4


def max_grad_error(forward: Callable[..., Tensor], arrays: list,
                   step: float = DEFAULT_STEP) -> float:
    """Worst elementwise relative error of tape grads vs central differences.

    ``forward`` maps one Tensor per input array to a scalar Tensor and must
    be a pure function of its inputs (no randomness inside).
    """
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = forward(*tensors)
    loss.backward()
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]

    work = [np.array(a, dtype=np.float64) for a in arrays]

    def value() -> float:
        with T.no_grad():
            return forward(*[Tensor(w) for w in work]).item()

    worst = 0.0
    for arr, ana in zip(work, analytic):
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
#
# Every forward closes over weights fixed at registry-build time, so the
# scalar objective is a pure function of the checked inputs.


def _primitive_checks(rng: np.random.Generator) -> list:
    n = rng.normal
    checks = []

    def entry(name, forward, arrays):
        checks.append((name, forward, arrays))

    def wsum(shape):
        w = Tensor(n(size=shape))
        return lambda x: T.tsum(T.mul(x, w))

    entry("add", (lambda s=wsum((3, 4)): lambda a, b: s(T.add(a, b)))(),
          [n(size=(3, 4)), n(size=(4,))])
    entry("sub", (lambda s=wsum((2, 3, 4)): lambda a, b: s(T.sub(a, b)))(),
          [n(size=(2, 3, 4)), n(size=(3, 4))])
    entry("mul", (lambda s=wsum((3, 4)): lambda a, b: s(T.mul(a, b)))(),
          [n(size=(3, 4)), n(size=(3, 4))])
    entry("scale", (lambda s=wsum((3, 4)): lambda a: s(T.scale(a, 1.7)))(),
          [n(size=(3, 4))])
    entry("tanh", (lambda s=wsum((3, 4)): lambda a: s(T.tanh(a)))(),
          [n(size=(3, 4))])
    entry("sigmoid", (lambda s=wsum((3, 4)): lambda a: s(T.sigmoid(a)))(),
          [n(size=(3, 4))])
    entry("relu", (lambda s=wsum((4, 5)): lambda a: s(T.relu(a)))(),
          [_away_from_zero(n(size=(4, 5)))])

    w_mm = wsum((2, 3, 5))
    entry("matmul",
          lambda a, b, c: T.add(w_mm(T.matmul(a, b)),
                                T.tsum(T.matmul(T.transpose(a), c))),
          [n(size=(2, 3, 4)), n(size=(4, 5)), n(size=(2, 3, 6))])
    entry("transpose",
          (lambda s=wsum((4, 3, 2)): lambda a: s(T.transpose(a, 0, 2)))(),
          [n(size=(2, 3, 4))])
    entry("reshape", (lambda s=wsum((4, 6)): lambda a: s(T.reshape(a, (4, 6))))(),
          [n(size=(2, 3, 4))])

    w_sum = wsum((2, 4))
    entry("sum",
          lambda a: T.add(w_sum(T.tsum(a, axis=1)), T.tsum(T.tanh(a))),
          [n(size=(2, 3, 4))])
    w_mean = wsum((2, 3, 1))
    entry("mean",
          lambda a: T.add(w_mean(T.tmean(a, axis=-1, keepdims=True)), T.tmean(a)),
          [n(size=(2, 3, 4))])
    entry("softmax", (lambda s=wsum((2, 3, 4)): lambda a: s(T.softmax(a, -1)))(),
          [n(size=(2, 3, 4))])
    entry("layer_norm", (lambda s=wsum((3, 6)): lambda a: s(T.layer_norm_core(a)))(),
          [n(size=(3, 6))])
    entry("concat",
          (lambda s=wsum((2, 7)): lambda a, b: s(T.concat([a, b], axis=1)))(),
          [n(size=(2, 3)), n(size=(2, 4))])

    w_sl1, w_sl2 = wsum((2, 2, 3)), wsum((2, 3))
    entry("slice",
          lambda a: T.add(w_sl1(a[:, 1:3, :]), w_sl2(a[:, 0, :])),
          [n(size=(2, 4, 3))])

    # B=2, L=3, d=3, h=4; the weights see both the h half and the c half
    w_lstm = wsum((2, 3, 8))
    entry("lstm",
          lambda x, h0, c0, w, u, b: w_lstm(T.lstm(x, h0, c0, w, u, b)),
          [n(size=(2, 3, 3)), n(size=(2, 4)), n(size=(2, 4)),
           0.5 * n(size=(3, 16)), 0.5 * n(size=(4, 16)), 0.5 * n(size=16)])
    return checks


def _layer_checks(rng: np.random.Generator) -> list:
    checks = []
    n = rng.normal

    def entry(name, forward, arrays):
        checks.append((name, forward, arrays))

    def wsum(shape):
        w = Tensor(n(size=shape))
        return lambda x: T.tsum(T.mul(x, w))

    # embedding: learned linear map applied to a feature window
    emb = Linear(5, 6, rng)
    s_emb = wsum((2, 4, 6))

    def emb_fwd(x, w, b):
        emb.weight, emb.bias = w, b
        return s_emb(emb(x))

    entry("embedding_linear", emb_fwd,
          [n(size=(2, 4, 5)), emb.weight.data.copy(), 0.1 * n(size=6)])

    # additive position table on top of the embedding
    pe = positional_encoding(4, 6)
    s_pe = wsum((2, 4, 6))

    def pe_fwd(x, w):
        return s_pe(T.tanh(T.add(T.matmul(x, w), pe)))

    entry("positional_path", pe_fwd, [n(size=(2, 4, 5)), 0.5 * n(size=(5, 6))])

    # one attention head, causal-masked
    mask = causal_mask(3)
    s_head = wsum((2, 3, 5))

    def head_fwd(q, k, v):
        return s_head(scaled_dot_attention(q, k, v, mask))

    entry("attention_head", head_fwd,
          [n(size=(2, 3, 4)), n(size=(2, 3, 4)), n(size=(2, 3, 5))])

    mha = MultiHeadAttention(6, 2, rng)
    mha_arrays = [n(size=(2, 3, 6))] + [p.data.copy() for _, p in mha.named_params()]
    s_mha = wsum((2, 3, 6))

    def mha_fwd(x, wq, wk, wv, wo):
        mha.wq, mha.wk, mha.wv, mha.wo = wq, wk, wv, wo
        return s_mha(mha(x, x))

    entry("multi_head_attention", mha_fwd, mha_arrays)

    ffn = FeedForward(6, 4, rng)
    s_ffn = wsum((2, 3, 6))

    def ffn_fwd(x, w1, b1, w2, b2):
        ffn.lin1.weight, ffn.lin1.bias = w1, b1
        ffn.lin2.weight, ffn.lin2.bias = w2, b2
        return s_ffn(ffn(x)[0])

    entry("feed_forward", ffn_fwd,
          [n(size=(2, 3, 6))] + [p.data.copy() for _, p in ffn.named_params()])

    ln = LayerNorm(6)
    s_ln = wsum((2, 3, 6))

    def ln_fwd(x, gain, bias):
        ln.gain, ln.bias = gain, bias
        return s_ln(ln(x))

    entry("layer_norm_affine", ln_fwd,
          [n(size=(2, 3, 6)), 1.0 + 0.2 * n(size=6), 0.1 * n(size=6)])

    def load_lstm(net, it):
        for lay in net.layer:
            lay.w, lay.u, lay.b = next(it), next(it), next(it)

    cell = Lstm(3, 4, 1, rng)
    s_cell_seq, s_cell_c = wsum((2, 1, 4)), wsum((2, 4))

    def cell_fwd(x, *params):
        load_lstm(cell, iter(params))
        seq, (out,) = cell(x)
        return T.add(s_cell_seq(seq), s_cell_c(out[:, -1, 4:]))

    entry("lstm_cell", cell_fwd,
          [n(size=(2, 1, 3))] + [p.data.copy() for _, p in cell.named_params()])

    deep = Lstm(3, 4, 2, rng)
    s_deep_seq, s_deep_h = wsum((2, 3, 4)), wsum((2, 2, 4))

    def deep_fwd(x, *params):
        load_lstm(deep, iter(params))
        seq, outs = deep(x)
        return T.add(s_deep_seq(seq),
                     s_deep_h(T.stack([o[:, -1, :4] for o in outs])))

    entry("lstm_stack", deep_fwd,
          [n(size=(2, 3, 3))] + [p.data.copy() for _, p in deep.named_params()])

    return checks


@dataclass
class GradcheckReport:
    tolerance: float
    entries: list = field(default_factory=list)  # (name, worst_rel_err)

    @property
    def passed(self) -> bool:
        return all(err < self.tolerance for _, err in self.entries)

    def failures(self) -> list:
        return [(name, err) for name, err in self.entries
                if not err < self.tolerance]

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
        for name, forward, arrays in _primitive_checks(rng) + _layer_checks(rng):
            err = max_grad_error(forward, arrays, step=step)
            report.entries.append((name, err))
    return report
