"""Versioned binary container for checkpoints, and atomic file writes.

Layout: 4-byte magic, u32 format version, u64 header length, UTF-8 JSON
header, then the named float64 payloads concatenated little-endian in
header order. Round trips are bit-exact. Containers and JSON outputs are
written through :func:`atomic_write`, so a failed write never replaces an
existing file.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

MAGIC = b"TRPC"
FORMAT_VERSION = 1

# magic, format version, header length
_FIXED = struct.Struct("<4sIQ")


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", newline: str | None = None):
    """Open a temporary file beside ``path``; replace ``path`` with it on
    success.

    ``newline`` is passed to :func:`open` (``""`` for the csv module); a
    text mode writes UTF-8. If the block raises, the temporary file is
    removed and whatever was at ``path`` before is left as it was.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=newline,
                  encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, obj) -> None:
    """Write ``obj`` as indented, key-sorted JSON through :func:`atomic_write`."""
    with atomic_write(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_container(path, kind: str, meta: dict, arrays: list) -> None:
    """Write ``arrays`` (list of (name, float64 ndarray)) under a JSON header."""
    header = {
        "container": kind,
        "meta": meta,
        "arrays": [{"name": name, "shape": list(arr.shape)}
                   for name, arr in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(_FIXED.pack(MAGIC, FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_container(path, expect_kind: str | None = None):
    """Read a container, returning ``(kind, meta, ordered name->array dict)``.

    Any malformed file (bad magic or version, a truncated header or
    payload, an unreadable JSON header, or bytes after the last payload)
    raises ``ValueError`` naming ``path``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a tripcast container (bad magic)")
    if len(raw) < _FIXED.size:
        raise ValueError(f"{path}: truncated container header")
    _, version, header_len = _FIXED.unpack_from(raw)
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported container version {version}"
        )
    offset = _FIXED.size + header_len
    if len(raw) < offset:
        raise ValueError(f"{path}: truncated container header")
    try:
        header = json.loads(raw[_FIXED.size:offset].decode("utf-8"))
        kind, meta = header["container"], header["meta"]
        entries = [(e["name"], tuple(e["shape"])) for e in header["arrays"]]
        if not all(isinstance(n, int) and n >= 0
                   for _, shape in entries for n in shape):
            raise ValueError("array shapes must be non-negative integers")
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed container header: {exc!r}") \
            from None
    arrays = {}
    for name, shape in entries:
        count = math.prod(shape)
        if len(raw) < offset + 8 * count:
            raise ValueError(f"{path}: truncated payload for {name}")
        arrays[name] = np.frombuffer(raw, "<f8", count, offset) \
            .reshape(shape).copy()
        offset += 8 * count
    if offset != len(raw):
        raise ValueError(
            f"{path}: {len(raw) - offset} unexpected bytes after the payload"
        )
    if expect_kind is not None and kind != expect_kind:
        raise ValueError(f"{path}: expected {expect_kind} container, found {kind}")
    return kind, meta, arrays
