from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _tape_ops(*outputs) -> Counter:
    """Count the tape nodes reachable from ``outputs``, by op."""
    counts, seen, pending = Counter(), set(), list(outputs)
    while pending:
        t = pending.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t.node is not None:
            counts[t.node.op] += 1
            pending.extend(t.node.inputs)
    return counts


@pytest.fixture
def tape_ops():
    return _tape_ops
