"""Gradient audit of the reference ops in ``oracle_ops``.

``tripcast gradcheck`` covers only the ops the models record, so the ops
the oracles are built from get the same central-difference check here,
through the same objective built from shipped ops, and a backward scaled
by 1.01 must fail it.
"""

import functools

import numpy as np
import pytest

from tripcast import tensor as T
from tripcast.gradcheck import DEFAULT_TOLERANCE, max_grad_error

from oracle_ops import (
    bmatmul,
    concat,
    mul,
    sigmoid,
    softmax,
    sub,
    tanh,
    tmean,
    transpose,
    tsum,
)

# (op, function of the inputs, input shapes)
CASES = [
    ("mul", mul, [(3, 4), (3, 4)]),
    ("sum", lambda a: (tsum(a, axis=1), tsum(a, axis=0, keepdims=True),
                       tsum(a)), [(2, 3, 4)]),
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
    """A fixed weighted sum of ``fn``'s outputs, built from shipped ops as
    ``tripcast gradcheck`` builds it, and its random inputs."""
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal(s) for s in shapes]

    def outputs(xs):
        outs = fn(*xs)
        return list(outs) if isinstance(outs, tuple) else [outs]

    with T.no_grad():
        sizes = [o.size for o in outputs(map(T.Tensor, arrays))]
    weights = [T.Tensor(rng.standard_normal((n, 1))) for n in sizes]

    def objective(*xs):
        return functools.reduce(T.add, [
            T.matmul(T.reshape(o, (1, -1)), w)
            for o, w in zip(outputs(xs), weights)])

    return objective, arrays


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
