"""Gradient audit of the reference ops in ``oracle_ops``.

``tripcast gradcheck`` covers only the ops the models record, so the ops
the oracles are built from get the same central-difference check here,
and a backward scaled by 1.01 must fail it.
"""

import numpy as np
import pytest

from tripcast import tensor as T
from tripcast.gradcheck import DEFAULT_TOLERANCE, max_grad_error

from oracle_ops import (
    bmatmul,
    concat,
    sigmoid,
    softmax,
    sub,
    tanh,
    tmean,
    transpose,
)

# (op, function of the inputs, input shapes)
CASES = [
    ("sub", sub, [(2, 3, 4), (3, 4)]),
    ("mean", lambda a: T.add(tmean(a, axis=-1, keepdims=True), tmean(a)),
     [(2, 3, 4)]),
    ("tanh", tanh, [(3, 4)]),
    ("sigmoid", sigmoid, [(3, 4)]),
    ("transpose", lambda a: transpose(a, 0, 2), [(2, 3, 4)]),
    ("softmax", lambda a: softmax(a, -1), [(2, 3, 4)]),
    ("concat", lambda a, b: concat([a, b], axis=1), [(2, 3), (2, 4)]),
    ("bmatmul", bmatmul, [(2, 3, 4), (2, 4, 5)]),
    ("bmatmul", bmatmul, [(3, 4), (2, 4, 5)]),    # 2-D a shared by the batch
]
IDS = [name for name, _, _ in CASES[:-1]] + ["bmatmul_shared_a"]


def _case(fn, shapes):
    """A fixed weighted sum of ``fn``'s output, and its random inputs."""
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal(s) for s in shapes]
    with T.no_grad():
        out_shape = fn(*map(T.Tensor, arrays)).shape
    weight = T.Tensor(rng.standard_normal(out_shape))
    return lambda *xs: T.tsum(T.mul(fn(*xs), weight)), arrays


@pytest.mark.parametrize("name, fn, shapes", CASES, ids=IDS)
def test_backward_matches_finite_difference(name, fn, shapes):
    objective, arrays = _case(fn, shapes)
    assert max_grad_error(objective, arrays) < 1e-7


@pytest.mark.parametrize("name, fn, shapes", CASES, ids=IDS)
def test_scaled_backward_is_caught(name, fn, shapes, monkeypatch):
    original = T._record

    def tampered(op, inputs, data, backward_fn):
        if op == name:
            inner = backward_fn
            backward_fn = lambda g: inner(g * 1.01)
        return original(op, inputs, data, backward_fn)

    monkeypatch.setattr(T, "_record", tampered)
    objective, arrays = _case(fn, shapes)
    assert max_grad_error(objective, arrays) > DEFAULT_TOLERANCE
