from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from tripcast import tensor as T

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


class CountingWorker(ThreadPoolExecutor):
    """A one-thread leaf-gradient worker that counts the writes queued."""

    def __init__(self):
        super().__init__(1)
        self.writes = 0

    def submit(self, fn, /, *args, **kwargs):
        self.writes += 1
        return super().submit(fn, *args, **kwargs)


class _LateWrite:
    def __init__(self, fn, args):
        self.fn, self.args = fn, args

    def exception(self):
        try:
            self.fn(*self.args)
        except Exception as e:      # handed back, as a Future does
            return e
        return None


class LateWorker:
    """Stands in for the worker thread: a queued write runs only when
    ``backward()`` waits for it, after the whole walk. That is the latest a
    real worker can run it, so an operand rebound after queuing shows."""

    def __init__(self):
        self.writes = 0

    def submit(self, fn, /, *args):
        self.writes += 1
        return _LateWrite(fn, args)


@pytest.fixture
def leaf_worker(monkeypatch):
    """Set where ``backward()`` writes leaf gradients, whatever the BLAS
    thread count: ``"inline"``, on a ``"thread"``, or ``"late"`` (a
    ``LateWorker``). Returns that mode's worker."""
    workers = {"inline": None, "thread": CountingWorker(),
               "late": LateWorker()}

    def use(mode: str):
        monkeypatch.setattr(T, "_leaf_worker", workers[mode])
        return workers[mode]

    yield use
    workers["thread"].shutdown()
