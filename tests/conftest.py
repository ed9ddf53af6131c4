from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from tripcast import training

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
    """A one-thread worker that counts the calls handed to it."""

    def __init__(self):
        super().__init__(1)
        self.calls = 0

    def submit(self, fn, /, *args, **kwargs):
        self.calls += 1
        return super().submit(fn, *args, **kwargs)


class _LateCall:
    """A call that runs once, when its outcome is first asked for."""

    def __init__(self, fn, args):
        self.fn, self.args = fn, args
        self.done = False

    def _run(self):
        if not self.done:
            self.done = True
            self.value, self.error = None, None
            try:
                self.value = self.fn(*self.args)
            except Exception as e:      # handed back, as a Future does
                self.error = e

    def exception(self):
        self._run()
        return self.error

    def result(self):
        self._run()
        if self.error is not None:
            raise self.error
        return self.value


class LateWorker:
    """Stands in for the worker thread: a call handed to it runs only when
    its caller waits for it, so a pair's first half runs after its
    second."""

    def __init__(self):
        self.calls = 0

    def submit(self, fn, /, *args):
        self.calls += 1
        return _LateCall(fn, args)


@pytest.fixture
def worker(monkeypatch):
    """Set where a pair's first half runs, whatever the BLAS thread count:
    ``"inline"``, on a ``"thread"``, or ``"late"`` (a ``LateWorker``).
    Returns that mode's worker."""
    workers = {"inline": None, "thread": CountingWorker(),
               "late": LateWorker()}

    def use(mode: str):
        monkeypatch.setattr(training, "_worker", workers[mode])
        return workers[mode]

    yield use
    workers["thread"].shutdown()
