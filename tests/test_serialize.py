"""Binary container format: layout, round trips, and failure modes."""

import contextlib
import io
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripcast.cli import main
from tripcast.serialize import (
    FORMAT_VERSION,
    MAGIC,
    read_container,
    write_container,
    write_json,
)


def sample_arrays(rng):
    return [
        ("alpha", rng.standard_normal((3, 4))),
        ("beta", rng.standard_normal(7)),
        ("gamma", np.array(2.5)),
    ]


# headers whose array entries are well-formed JSON but not a valid table,
# each followed by the payload its shapes ask for, and the words it is
# refused with
BAD_ENTRIES = [
    (b'{"container": "checkpoint", "meta": {}, '
     b'"arrays": [{"name": [1], "shape": [1]}]}', "names must be strings"),
    (b'{"container": "checkpoint", "meta": {}, '
     b'"arrays": [{"name": "a", "shape": [true]}]}',
     "shapes must be non-negative integers"),
    (b'{"container": "checkpoint", "meta": {}, "arrays": '
     b'[{"name": "a", "shape": [1]}, {"name": "a", "shape": [1]}]}',
     "names repeated: ['a']"),
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

    def test_failed_json_write_leaves_previous_file(self, tmp_path):
        path = tmp_path / "report.json"
        write_json(path, {"a": 1})
        before = path.read_bytes()
        # json.dump streams: "a" is written before the unserializable value
        # raises
        with pytest.raises(TypeError):
            write_json(path, {"a": 2, "b": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_json_layout(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"b": [1, 2], "a": 1})
        assert path.read_text() == (
            '{\n  "a": 1,\n  "b": [\n    1,\n    2\n  ]\n}\n')


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
        *(header for header, _ in BAD_ENTRIES),
    ])
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "c.bin"
        path.write_bytes(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header))
                         + header)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_container(path)


@pytest.mark.parametrize("header, words", BAD_ENTRIES,
                         ids=["list name", "bool shape", "repeated name"])
def test_bad_array_entry_refused_by_reader_and_predict(tmp_path, header,
                                                       words):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header))
                     + header + bytes(16 if b'"a", "shape": [1]}, {' in header
                                      else 8))
    with pytest.raises(ValueError) as err:
        read_container(path, expect_kind="checkpoint")
    assert str(err.value).startswith(f"{path}: malformed container header")
    assert words in str(err.value)
    trip = tmp_path / "trip.csv"
    trip.write_text("a\n1\n")
    rc, stderr = _predict(path, str(trip), tmp_path / "out.csv")
    assert rc == 1
    assert stderr.startswith(f"error: {path}: malformed container header")
    assert not (tmp_path / "out.csv").exists()


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A checkpoint from a tiny ``tripcast train`` run, and a trip CSV."""
    root = tmp_path_factory.mktemp("ckpt")
    cfg = {
        "seed": 3,
        "data": {"n_trips": 4, "trip_length": 300, "window": 4, "horizon": 2,
                 "train_n": 40, "val_n": 10, "test_n": 10},
        "model": {"kind": "v_tst", "d_model": 4, "n_heads": 2,
                  "enc_layers": 1, "dec_layers": 1, "ffn_width": 4},
        "train": {"epochs": 1, "batch_size": 20},
    }
    config = root / "config.json"
    config.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["datagen", "--config", str(config),
                     "--out", str(root / "gen")]) == 0
        assert main(["train", "--config", str(config),
                     "--out", str(root / "run")]) == 0
    return {"root": root,
            "raw": (root / "run" / "checkpoint.ckpt").read_bytes(),
            "trip": str(root / "gen" / "trips" / "synth-000.csv")}


def _predict(checkpoint, trip, out):
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        rc = main(["predict", "--checkpoint", str(checkpoint), "--trip", trip,
                   "--start", "10", "--out", str(out)])
    return rc, stderr.getvalue()


def test_untruncated_checkpoint_predicts(trained_run):
    root = trained_run["root"]
    rc, _ = _predict(root / "run" / "checkpoint.ckpt", trained_run["trip"],
                     root / "full.csv")
    assert rc == 0


@given(data=st.data())
@settings(max_examples=150, derandomize=True, database=None)
def test_any_truncation_is_refused_naming_the_file(trained_run, data):
    raw = trained_run["raw"]
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1),
                    label="cut")
    path = trained_run["root"] / "cut.ckpt"
    path.write_bytes(raw[:cut])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        read_container(path, expect_kind="checkpoint")
    out = trained_run["root"] / "cut.csv"
    rc, err = _predict(path, trained_run["trip"], out)
    assert rc == 1
    assert err.startswith(f"error: {path}: ")
    assert not out.exists()
