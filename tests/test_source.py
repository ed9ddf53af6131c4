"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

import tripcast.cli

SOURCES = sorted(Path(tripcast.cli.__file__).parent.glob("*.py"))


def _open_calls():
    """Yield ``(file name, enclosing function, mode node, call)`` for every
    ``open(...)`` call in the package; ``mode`` is None when defaulted."""
    def visit(node, path, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, path, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "open"):
                mode = (child.args[1] if len(child.args) > 1 else
                        next((k.value for k in child.keywords
                              if k.arg == "mode"), None))
                yield path.name, func, mode, child
            yield from visit(child, path, func)

    for path in SOURCES:
        yield from visit(ast.parse(path.read_text(encoding="utf-8")), path,
                         None)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported.items()
              if name not in used]
    assert not unused, f"{path.name} imports but never uses: {unused}"


def test_text_files_opened_as_utf8():
    # the locale's encoding differs between machines; the files do not
    unnamed = [f"{name}:{call.lineno}" for name, _, mode, call in _open_calls()
               if not (isinstance(mode, ast.Constant) and "b" in mode.value)
               and not any(k.arg == "encoding" for k in call.keywords)]
    assert not unnamed, f"text open() without encoding=: {unnamed}"


def test_only_atomic_write_opens_for_writing():
    # every output goes through serialize.atomic_write, so a failed write
    # never leaves a half-written file behind
    writers = [
        f"{name}:{call.lineno}" for name, func, mode, call in _open_calls()
        if not (mode is None or (isinstance(mode, ast.Constant)
                                 and set(mode.value) <= set("rbt")))
        and (name, func) != ("serialize.py", "atomic_write")]
    writers += [
        f"{path.name}:{node.lineno}" for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr in ("open", "write_text", "write_bytes")]
    assert not writers, f"files opened for writing outside atomic_write: " \
        f"{writers}"


def test_only_tensor_records_ops():
    # RECORDED_OPS and the gradient audit are built from tensor.py's own
    # ops; an op recorded from another module would escape both
    callers = [
        f"{path.name}:{node.lineno}" for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "_record" in (getattr(node.func, "id", None),
                          getattr(node.func, "attr", None))
        and path.name != "tensor.py"]
    assert not callers, f"_record called outside tensor.py: {callers}"


CONCURRENCY_MODULES = ("threading", "concurrent.futures", "multiprocessing",
                       "mmap")
# the calls that start or place a process, and the worker itself
WORKER_NAMES = ("submit", "_worker", "fork", "sched_setaffinity")
# the one module that owns the worker process
WORKER_MODULE = "worker.py"
# modules a planted case goes in: the model code, and the ingest stages
# that hand halves to the worker through its pair function
PLANTED = ("models.py", "tensor.py", "pipeline.py", "synth.py")


def _concurrency_imports(paths):
    """``file:line`` of every import of a ``CONCURRENCY_MODULES`` module,
    or of a name from one, outside ``worker.py``."""
    def banned(name):
        return any(name == m or name.startswith(m + ".")
                   for m in CONCURRENCY_MODULES)

    found = []
    for path in paths:
        if path.name == WORKER_MODULE:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            else:
                continue
            if any(map(banned, names)):
                found.append(f"{path.name}:{node.lineno}")
    return found


def _worker_uses(paths):
    """``file:line`` of every use or import of a ``WORKER_NAMES`` name
    outside ``worker.py``: ``.submit``, the worker (``worker._worker``),
    ``os.fork`` and ``os.sched_setaffinity``."""
    found = []
    for path in paths:
        if path.name == WORKER_MODULE:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in WORKER_NAMES
                    or isinstance(node, ast.alias)
                    and node.name in WORKER_NAMES):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_the_worker_module_starts_threads():
    # the worker process is the package's one helper; a second pool would
    # compete with it and with BLAS for the same cores, a fork or a shared
    # block outside worker.py would escape its gate and its lifecycle, and
    # a task handed to the worker from elsewhere would bypass pair
    assert (SOURCES[0].parent / WORKER_MODULE).is_file()
    found = _concurrency_imports(SOURCES)
    assert not found, f"thread, process or shared-memory imports outside " \
        f"{WORKER_MODULE}: {found}"
    found = _worker_uses(SOURCES)
    assert not found, f"the worker, a fork or a CPU pin outside " \
        f"{WORKER_MODULE}: {found}"


@pytest.mark.parametrize("line", [
    "import threading", "import concurrent.futures as cf",
    "from concurrent import futures", "from multiprocessing import Pool",
    "from concurrent.futures import ThreadPoolExecutor", "import mmap",
    "from mmap import mmap", "from multiprocessing import reduction",
    "import multiprocessing.reduction",
])
def test_concurrency_rule_catches_a_planted_import(tmp_path, line):
    for name in PLANTED:
        planted = tmp_path / name
        planted.write_text(f"{line}\n", encoding="utf-8")
        assert _concurrency_imports([planted]) == [f"{name}:1"]
    allowed = tmp_path / WORKER_MODULE
    allowed.write_text(f"{line}\n", encoding="utf-8")
    assert _concurrency_imports([allowed]) == []


@pytest.mark.parametrize("line", [
    "pool.submit(fn)", "T._worker", "from .worker import _worker",
    "from .worker import _worker as w", "worker._worker.submit(fn, x)",
    "worker._worker.pair(_task, first, second, None)",
    "from . import worker\nworker._worker.send(msg)",
    "os.fork()", "pid = os.fork()", "from os import fork",
    "os.sched_setaffinity(0, {1})", "from os import sched_setaffinity as pin",
])
def test_worker_rule_catches_a_planted_use(tmp_path, line):
    for name in PLANTED:
        planted = tmp_path / name
        planted.write_text(f"{line}\n", encoding="utf-8")
        assert _worker_uses([planted]) != []
    allowed = tmp_path / WORKER_MODULE
    allowed.write_text(f"{line}\n", encoding="utf-8")
    assert _worker_uses([allowed]) == []


def _globals(paths):
    """``(file, function, names)`` of every ``global`` statement."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.name, func.name, node.names)
                          for node in ast.walk(func)
                          if isinstance(node, ast.Global)]
    return found


def test_only_no_grad_rebinds_a_module_global():
    # two halves run forward and backward() at once on two threads; tape
    # state kept in a module global would be shared between them
    assert _globals(SOURCES) == [("tensor.py", "no_grad", ["_grad_enabled"])]


@pytest.mark.parametrize("source", [
    "def backward(self):\n    global _pending\n    _pending = []\n",
    "def no_grad():\n    global _grad_enabled, _pending\n",
])
def test_global_rule_catches_a_planted_global(tmp_path, source):
    planted = tmp_path / "tensor.py"
    planted.write_text(source, encoding="utf-8")
    assert _globals([planted]) != [("tensor.py", "no_grad",
                                    ["_grad_enabled"])]


def _mean_uses(paths):
    """``file:line`` of every ``.mean`` attribute, ``x.mean(...)`` and
    ``np.mean`` alike, and of every import of a name ``mean``."""
    return [f"{path.name}:{node.lineno}" for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr == "mean"
            or isinstance(node, ast.alias) and node.name == "mean"]


def test_tensor_ops_take_no_mean_wrapper():
    # ndarray.mean runs a Python wrapper around np.add.reduce and a divide
    # that costs several times the reduction on a short row; the ops take
    # the sum and divide themselves, with the same bits
    tensor_py = [path for path in SOURCES if path.name == "tensor.py"]
    assert tensor_py and _mean_uses(tensor_py) == []


@pytest.mark.parametrize("line", [
    "mu = a.data.mean(axis=-1, keepdims=True)", "m = (x * x).mean()",
    "m = np.mean(x)", "from numpy import mean",
])
def test_mean_rule_catches_a_planted_mean(tmp_path, line):
    planted = tmp_path / "tensor.py"
    planted.write_text(f"{line}\n", encoding="utf-8")
    assert _mean_uses([planted]) == ["tensor.py:1"]
