import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from tripcast import worker as W

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


class CountingWorker(W._Worker):
    """The worker process, counting the pairs handed to it."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def pair(self, *args):
        self.calls += 1
        return super().pair(*args)


class LateWorker(CountingWorker):
    """Stands in for the worker process: it carries out each message in
    this process, a pair's first half only when its reply is read, so the
    first half runs after the second and sees this process's patches."""

    def __init__(self):
        super().__init__()
        self.replicas = W._Replicas()
        self.tasks = []

    def _start(self):
        self.process, self.pid = "late", os.getpid()

    def close(self, kill=False):
        self.process = None

    def send(self, msg, fd=None):
        if fd is not None:
            fd = os.dup(fd)     # the caller closes its own
        if msg[0] == "run":
            self.tasks.append(msg)
        else:
            self.replicas.handle(msg, lambda: fd)

    def reply(self):
        return self.replicas.handle(self.tasks.pop(), None)


@pytest.fixture(scope="session")
def process_worker():
    """One worker process for the session, forked before any test's own
    patches are in place, since a fork keeps those it sees."""
    used = CountingWorker()
    used._start()
    yield used
    used.close()


@pytest.fixture
def worker(monkeypatch, process_worker):
    """Set where a pair's first half runs, whatever the BLAS thread count:
    ``"inline"``, in the worker ``"process"``, or ``"late"`` (a
    ``LateWorker``). Returns that mode's worker."""
    def use(mode: str):
        used = {"inline": W._Worker(), "process": process_worker,
                "late": LateWorker()}[mode]
        used.calls = 0
        monkeypatch.setattr(W, "_worker", used)
        monkeypatch.setattr(W, "_may_fork", lambda: mode != "inline")
        return used

    return use
