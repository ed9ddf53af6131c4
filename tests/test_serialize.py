"""Binary container format: layout, round trips, and failure modes."""

import json
import re
import struct

import numpy as np
import pytest

from tripcast.serialize import (
    FORMAT_VERSION,
    MAGIC,
    read_container,
    write_container,
)


def sample_arrays(rng):
    return [
        ("alpha", rng.standard_normal((3, 4))),
        ("beta", rng.standard_normal(7)),
        ("gamma", np.array(2.5)),
    ]


class TestRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        arrays = sample_arrays(rng)
        path = tmp_path / "c.bin"
        write_container(path, "demo", {"k": [1, 2], "s": "x"}, arrays)
        kind, meta, loaded = read_container(path)
        assert kind == "demo"
        assert meta == {"k": [1, 2], "s": "x"}
        assert list(loaded) == ["alpha", "beta", "gamma"]
        for name, arr in arrays:
            np.testing.assert_array_equal(loaded[name], arr)
            assert loaded[name].dtype == np.float64

    def test_rewrite_is_byte_identical(self, tmp_path, rng):
        arrays = sample_arrays(rng)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_container(a, "demo", {"n": 1}, arrays)
        write_container(b, "demo", {"n": 1}, arrays)
        assert a.read_bytes() == b.read_bytes()

    def test_header_layout(self, tmp_path, rng):
        path = tmp_path / "c.bin"
        write_container(path, "demo", {}, sample_arrays(rng))
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert struct.unpack("<I", raw[4:8])[0] == FORMAT_VERSION
        (header_len,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16:16 + header_len])
        assert header["container"] == "demo"
        assert [e["name"] for e in header["arrays"]] == ["alpha", "beta",
                                                         "gamma"]
        payload = len(raw) - 16 - header_len
        assert payload == (12 + 7 + 1) * 8

    def test_non_contiguous_input_handled(self, tmp_path, rng):
        big = rng.standard_normal((6, 6))
        view = big[::2, ::3]  # non-contiguous slice
        path = tmp_path / "c.bin"
        write_container(path, "demo", {}, [("v", view)])
        _, _, loaded = read_container(path)
        np.testing.assert_array_equal(loaded["v"], view)


class TestAtomicWrite:
    def test_failed_rewrite_leaves_previous_file(self, tmp_path, rng):
        path = tmp_path / "c.bin"
        write_container(path, "demo", {}, sample_arrays(rng))
        before = path.read_bytes()
        # the header and the first payload are written before this raises
        unconvertible = np.array(["not a number"], dtype=object)
        with pytest.raises(ValueError):
            write_container(path, "demo", {},
                            [("alpha", np.ones(3)), ("beta", unconvertible)])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.bin"]


class TestFailureModes:
    def _write(self, tmp_path, rng):
        path = tmp_path / "c.bin"
        write_container(path, "demo", {"n": 1}, sample_arrays(rng))
        return path

    def test_bad_magic(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            read_container(path)

    def test_unsupported_version(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            read_container(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_container(path)

    def test_kind_mismatch(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        with pytest.raises(ValueError, match="expected"):
            read_container(path, expect_kind="checkpoint")

    def test_kind_match_accepted(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        kind, _, _ = read_container(path, expect_kind="demo")
        assert kind == "demo"

    @pytest.mark.parametrize("cut", [0, 3, 4, 8, 15, 16, "header_end"])
    def test_truncated_before_payload(self, tmp_path, rng, cut):
        path = self._write(tmp_path, rng)
        raw = path.read_bytes()
        if cut == "header_end":
            cut = 16 + struct.unpack("<Q", raw[8:16])[0] - 1
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_container(path)

    def test_trailing_byte(self, tmp_path, rng):
        path = self._write(tmp_path, rng)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_container(path)

    @pytest.mark.parametrize("header", [
        b"\xff\xfe",
        b"{not json",
        b"[]",
        b'{"container": "demo", "meta": {}}',
        b'{"container": "demo", "meta": {}, "arrays": [{"name": "a"}]}',
        b'{"container": "demo", "meta": {}, '
        b'"arrays": [{"name": "a", "shape": [-1]}]}',
    ])
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "c.bin"
        path.write_bytes(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header))
                         + header)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_container(path)
