"""The worker process: work split into two halves, one per core.

:func:`pair` runs a task's first half in one worker process beside the
caller while its second half runs here, and returns both results, first
half first. Training and evaluation split large model batches by rows,
the data parallelism of PyTorch DDP (Li et al. 2020, arXiv:2006.15704);
trip ingest splits its stages by trips or by rows, as the map step of
MapReduce (Dean & Ghemawat 2004). This module is the package's only
concurrency: the one module that forks, pins a CPU, maps shared memory or
talks to the worker.

A task is a module-level function, sent by its import path, so the worker
runs its own copy as it stood when the worker was forked; a closure cannot
be sent. With a model, the worker's half runs on a replica whose
parameters share memory with the model's.
"""

from __future__ import annotations

import atexit
import ctypes
import itertools
import math
import mmap
import multiprocessing
import os
import signal
import threading
import weakref
from multiprocessing import reduction

import numpy as np

from .models import Model, _NoDraw
from .tensor import grad_enabled

# the variables OpenBLAS takes its thread count from, in the order it reads them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS")


def _blas_leaves_a_core(environ, cpus) -> bool:
    """Whether BLAS runs on one thread and this process may use two cores.

    The first of ``_BLAS_THREAD_VARS`` set to a positive count decides, as
    in OpenBLAS; unset, OpenBLAS takes every core.
    """
    for var in _BLAS_THREAD_VARS:
        try:
            n = int(environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            return n == 1 and len(cpus) >= 2
    return False


def _worker_allowed(environ, cpus, threads: int) -> bool:
    """Whether the worker process may be forked now: BLAS leaves a core,
    and the caller's is the only thread alive (``threads``), since a fork
    copies another thread's locks as they stand but not the thread."""
    return threads == 1 and _blas_leaves_a_core(environ, cpus)


def _may_fork() -> bool:
    """:func:`_worker_allowed` here and now, on Linux, outside ``no_grad``:
    the worker keeps the tape switch it was forked with."""
    return (hasattr(os, "memfd_create") and grad_enabled()
            and _worker_allowed(os.environ, os.sched_getaffinity(0),
                                threading.active_count()))


_LINE = 64      # each slot of a shared block starts on a cache line


def _slot_bytes(shape) -> int:
    return -(-8 * math.prod(shape) // _LINE) * _LINE


def _slots(buf, shapes) -> tuple:
    """``(parameters, gradients)``: one float64 view of ``buf`` per shape in
    each, parameters first; ``buf`` holds ``2 * sum(map(_slot_bytes,
    shapes))`` bytes."""
    views, offset = [], 0
    for shape in [*shapes, *shapes]:
        views.append(np.ndarray(shape, np.float64, buf, offset))
        offset += _slot_bytes(shape)
    return views[:len(shapes)], views[len(shapes):]


class _Replicas(dict):
    """The worker's side: block key -> ``(replica, gradient slots)``, the
    replica a ``Model`` whose parameters are the block's slots."""

    def handle(self, msg, receive_fd):
        """Carry out one message from the caller; returns the reply owed,
        ``("ok", value)``, ``("grads", loss)`` or ``("err", exception)``,
        or None."""
        op, key, *rest = msg
        if op == "bind":            # a new block; its memfd comes next
            spec, size = rest
            fd = receive_fd()
            try:
                buf = mmap.mmap(fd, size)
            finally:
                os.close(fd)
            replica = Model(spec, _NoDraw())
            params = replica.named_params()
            slots, grads = _slots(buf, [p.shape for _, p in params])
            for (_, p), slot in zip(params, slots):
                p.data = slot
            self[key] = replica, grads
        elif op == "drop":          # its model was collected
            self.pop(key, None)
        else:                       # "run": a task's first half
            task, args = rest
            try:
                if key is None:
                    return "ok", task(*args)
                replica, grads = self[key]
                out = task(replica, *args)
                if isinstance(out, tuple):  # the gradients stay in the block
                    out, computed = out
                    for slot, g in zip(grads, computed.values()):
                        slot[...] = g
                    return "grads", out
                return "ok", out
            except Exception as exc:    # noqa: BLE001 - the caller raises it
                return "err", exc
        return None


# glibc's mallopt parameters, and the values the worker sets them to: blocks
# of up to 32 MiB come from the heap (the ceiling of glibc's own sliding
# threshold on 64-bit), and the heap is never trimmed (-1). Left to glibc,
# both start where the caller's stood at the fork. Forked at the first
# ingest stage, before the caller had freed any large block, the worker
# gave its heap top back to the kernel after most tasks and faulted it in
# again at the next; trimming only above 64 MiB, glibc's ceiling, still
# cost a training half 8,800 faults. In 20 s `perfbench/run.py` runs (2-vCPU
# VM, OpenBLAS at one thread) the worker took 359k minor faults in
# `forecast` and 1.0M in `train`; with these settings, 21k and 51k, as with
# the worker forked at the first model pair.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_SETTINGS = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, -1))


def _keep_heap() -> None:
    """Fix this process's malloc thresholds at ``_HEAP_SETTINGS``, where
    the C library has glibc's ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    for param, value in _HEAP_SETTINGS:
        mallopt(param, value)


def _serve(conn, callers_end, cpu: int) -> None:
    """The worker process: carries out the caller's messages until a stop
    message or the end of the pipe, which comes when the caller exits."""
    callers_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # Ctrl-C is the caller's
    os.sched_setaffinity(0, {cpu})
    _keep_heap()
    replicas = _Replicas()
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg[0] == "stop":
            return
        reply = replicas.handle(msg, lambda: reduction.recv_handle(conn))
        if reply is None:
            continue
        try:
            conn.send(reply)
        except OSError:             # the caller is gone
            return


class _Worker:
    """The worker process that runs each pair's first half, and one shared
    block per model it holds a replica of: the model's parameters, which
    both sides read and ``Adam`` updates in place, then room for the
    worker's gradients. The process is forked at the first pair that
    :func:`_may_fork` allows, pinned to one CPU; a forked child of its
    owner runs its pairs inline."""

    def __init__(self):
        self.process = None         # while the worker runs
        self.conn = None
        self.pid = None             # the process that started it
        self.busy = False           # a task sent and its reply not yet read
        self.lock = threading.Lock()
        self.blocks = weakref.WeakKeyDictionary()   # Model -> (key, slots)
        self.dropped = []           # block keys of collected models
        self.keys = itertools.count()

    def ready(self) -> bool:
        """Whether a pair's first half goes to the worker now; starts it at
        the first pair."""
        if self.pid not in (None, os.getpid()):
            return False            # forked from the worker's owner
        if self.busy:               # a cut-off exchange left a reply unread
            self.close(kill=True)
        if self.process is None:
            if not _may_fork():
                return False
            self._start()
        return True

    def _start(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conn, theirs = ctx.Pipe()
        self.process = ctx.Process(
            target=_serve, name="tripcast-worker", daemon=True,
            args=(theirs, self.conn, max(os.sched_getaffinity(0))))
        self.process.start()
        theirs.close()      # so that the worker's exit ends the pipe here
        self.pid = os.getpid()
        # registered after multiprocessing's own exit handler, so run
        # before it: the worker gets a stop message, not a SIGTERM
        atexit.unregister(self.close)
        atexit.register(self.close)

    def close(self, kill: bool = False):
        """Stop the worker, at once with ``kill``, and forget its blocks.
        Returns its exit code; None where this process does not own it."""
        if self.process is None or self.pid != os.getpid():
            return None
        if not kill:
            try:
                self.send(("stop", None))
            except OSError:
                pass
            self.process.join(5)
        if self.process.exitcode is None:
            self.process.kill()
        self.process.join()
        code = self.process.exitcode
        self.conn.close()
        self.process = self.conn = None
        self.busy = False
        self.blocks.clear()
        return code

    def send(self, msg, fd=None) -> None:
        self.conn.send(msg)
        if fd is not None:
            reduction.send_handle(self.conn, fd, self.process.pid)

    def reply(self) -> tuple:
        return self.conn.recv()

    def bind(self, model: Model) -> tuple:
        """``(key, names, gradient slots)`` of ``model``'s block, made and
        sent to the worker at the model's first pair. A parameter not bound
        to its slot yet is copied into it and bound to it."""
        params = model.named_params()
        block = self.blocks.get(model)
        if block is None:
            shapes = [p.shape for _, p in params]
            size = 2 * sum(map(_slot_bytes, shapes))
            key = next(self.keys)
            fd = os.memfd_create("tripcast-block")
            try:
                os.ftruncate(fd, size)
                buf = mmap.mmap(fd, size)
                self.send(("bind", key, model.spec, size), fd)
            finally:
                os.close(fd)
            block = self.blocks[model] = (key, *_slots(buf, shapes))
            weakref.finalize(model, self.dropped.append, key)
        key, slots, grads = block
        for (_, p), slot in zip(params, slots):
            if p.data is not slot:
                slot[...] = p.data
                p.data = slot
        return key, [name for name, _ in params], grads

    def pair(self, task, first: tuple, second: tuple, model):
        """:func:`pair`, with the first half sent to the worker."""
        self.busy = True
        try:
            while self.dropped:
                self.send(("drop", self.dropped.pop()))
            key = names = grads = None
            if model is not None:
                key, names, grads = self.bind(model)
            self.send(("run", key, task, first))
            sent = True
        except ConnectionError:     # the worker is gone
            sent = False
        try:
            tail = task(*second) if model is None else task(model, *second)
        finally:
            try:
                ok, head = self.reply() if sent else ("dead", None)
            except (EOFError, ConnectionError):
                ok = "dead"
            if ok == "dead":
                pid = self.process.pid
                head = RuntimeError(f"the tripcast worker process (pid "
                                    f"{pid}) died with exit code "
                                    f"{self.close(kill=True)}")
            self.busy = False
        if ok in ("err", "dead"):
            raise head
        if ok == "grads":
            head = head, dict(zip(names, grads))
        return head, tail

    def unshare(self) -> None:
        """In a forked child: give every bound model private parameters,
        since its writes into a block would reach the worker's owner."""
        for model, (_, slots, _) in list(self.blocks.items()):
            for (_, p), slot in zip(model.named_params(), slots):
                if p.data is slot:
                    p.data = slot.copy()
        self.blocks.clear()


_worker = _Worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: _worker.unshare())


def available() -> bool:
    """Whether a pair started now would run its first half in the worker
    process: the worker runs for this process, or may be forked now."""
    return (_worker.pid in (None, os.getpid())
            and (_worker.process is not None or _may_fork()))


def pair(task, first: tuple, second: tuple, model: Model | None = None):
    """``(task(*first), task(*second))``, the first half in the worker
    process while the second runs here. With ``model``, the halves are
    ``task(model, *first)`` and ``task(model, *second)``, the worker's on
    its replica of ``model``, and a task returns an array or ``(loss,
    {name: gradient})`` over the model's parameters.

    ``task`` is a private module-level function: the worker looks its own
    copy up by import path, which a public function replaced by a wrapper
    would fail. Where the worker is off, or another thread is using it, the
    first half runs here before the second. Either way a failure is raised
    only after both have finished, the second's if both failed.
    """
    if _worker.lock.acquire(blocking=False):
        try:
            if _worker.ready():
                return _worker.pair(task, first, second, model)
        finally:
            _worker.lock.release()
    lead = () if model is None else (model,)
    try:
        head = task(*lead, *first)
    finally:
        tail = task(*lead, *second)
    return head, tail
