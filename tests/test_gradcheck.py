"""The gradient auditor itself: coverage, detection power, reporting.

A checker that cannot catch a broken backward rule is worthless, so the
key test corrupts one rule at a time and requires a failure report.
"""

import numpy as np
import pytest

from tripcast.gradcheck import (
    _checks,
    corrupted_backward,
    max_grad_error,
    run_gradcheck,
)
from tripcast.layers import Linear, Lstm
from tripcast.tensor import RECORDED_OPS, Tensor, add, matmul

from oracle_ops import mul, tsum

PRIMITIVE_NAMES = set(RECORDED_OPS)
LAYER_NAMES = {
    "positional_path", "multi_head_attention", "feed_forward", "lstm_cell",
    "lstm_stack",
}
# scalars each entry perturbs (inputs plus layer parameters), in report
# order; a shrinking audit fails here instead of passing quietly
SCALARS_CHECKED = {
    "add": 16, "relu": 20, "matmul": 49, "reshape": 24, "mse": 48,
    "layer_norm": 30, "slice": 24, "heads": 24, "attention": 84,
    "lstm": 162, "positional_path": 70, "multi_head_attention": 180,
    "feed_forward": 94, "lstm_cell": 134, "lstm_stack": 290,
}


class TestMaxGradError:
    def test_correct_gradient_scores_tiny(self, rng):
        w = rng.standard_normal((4, 3))

        def fwd(x):
            h = matmul(x, Tensor(w))
            return tsum(mul(h, h))

        err = max_grad_error(fwd, [rng.standard_normal((2, 4))])
        assert err < 1e-7

    def test_wrong_gradient_scores_large(self, rng):
        # a forward rule whose backward is deliberately double-counted
        def fwd(x):
            y = add(x, x)
            return tsum(mul(y, y))

        base = max_grad_error(fwd, [rng.standard_normal(5)])
        assert base < 1e-7
        with corrupted_backward("add", factor=2.0):
            bad = max_grad_error(fwd, [rng.standard_normal(5)])
        assert bad > 1e-2

    def test_params_restored_bit_for_bit(self, rng):
        net = Lstm(3, 4, 2, rng)
        before = [p.data.tobytes() for _, p in net.named_params()]
        err = max_grad_error(lambda x: tsum(net(x)[0]),
                             [rng.standard_normal((2, 3, 3))],
                             params=[p for _, p in net.named_params()])
        assert err < 1e-7
        assert [p.data.tobytes() for _, p in net.named_params()] == before

    def test_params_are_checked(self, rng):
        # fwd takes no inputs: the audit perturbs lin.weight as a parameter
        lin = Linear(4, 3, rng)
        x = Tensor(rng.standard_normal((2, 4)))

        def fwd():
            h = lin(x)
            return tsum(mul(h, h))

        assert max_grad_error(fwd, [], params=[lin.weight]) < 1e-7
        with corrupted_backward("matmul"):
            bad = max_grad_error(fwd, [], params=[lin.weight])
        assert bad > 1e-3


class TestRegistryCoverage:
    def test_every_primitive_and_layer_checked_once(self):
        report = run_gradcheck()
        names = [name for name, _ in report.entries]
        assert len(names) == len(set(names))
        assert PRIMITIVE_NAMES <= set(names)
        assert LAYER_NAMES <= set(names)

    def test_scalar_count_per_entry_pinned(self, rng):
        counts = {name: sum(np.size(a) for a in arrays)
                  + sum(p.size for p in params)
                  for name, _, arrays, params in _checks(rng)}
        assert list(counts.items()) == list(SCALARS_CHECKED.items())
        assert sum(counts.values()) == 1249

    def test_fresh_build_passes(self):
        report = run_gradcheck()
        assert report.passed
        assert all(err < report.tolerance for _, err in report.entries)
        worst = max(err for _, err in report.entries)
        assert worst < 1e-4

    def test_report_format_lists_all_entries(self):
        report = run_gradcheck()
        text = report.format()
        for name, _ in report.entries:
            assert name in text
        assert "PASS" in text


class TestCorruptionDetection:
    @pytest.mark.parametrize("op", sorted(RECORDED_OPS))
    def test_corrupting_one_op_fails_the_run(self, op):
        report = run_gradcheck(corrupt_op=op)
        assert not report.passed
        assert any(not err < report.tolerance for _, err in report.entries)
        assert "FAIL" in report.format()

    def test_corruption_is_scoped(self):
        run_gradcheck(corrupt_op="matmul")
        after = run_gradcheck()
        assert after.passed  # the context manager restored the real rule

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown op 'not_an_op'"):
            with corrupted_backward("not_an_op"):
                pass


class TestDeterminism:
    def test_same_seed_same_errors(self):
        a = run_gradcheck(seed=5)
        b = run_gradcheck(seed=5)
        assert a.entries == b.entries


def test_recorded_ops_registry_in_sync():
    # the corrupt hook validates against RECORDED_OPS, so that set must
    # track exactly what the tape records
    import inspect
    import re

    from tripcast import tensor

    src = inspect.getsource(tensor)
    recorded = set(re.findall(r'_record\("(\w+)"', src))
    assert recorded == set(tensor.RECORDED_OPS)
