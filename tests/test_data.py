"""Trip ingestion, windowing, normalization, and the synthetic generator.

The synthetic-trip tests reconstruct the generator's causal recurrences
(SOC drain, battery-temperature lag) from the emitted channels alone and
verify them step by step, so they double as documentation of the physics.
"""

import hashlib
import logging
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripcast import pipeline, synth
from tripcast.pipeline import (
    DEFAULT_SCHEMA,
    MAX_ABS,
    VENT_CHANNELS,
    FeatureSchema,
    NormStats,
    TripSeries,
    Windows,
    aggregate_redundant,
    load_trips,
    make_windows,
    normalize_and_split,
    prepare_dataset,
    preprocess_trip,
    resample,
    smooth_trip,
    write_trip_csv,
)
from tripcast.synth import CAPACITY_KWH, synthesize_trips

TINY = FeatureSchema(input_channels=("a", "b"), target_channels=("b",))


def tiny_trip(length, trip_id="t0", period=1.0):
    return TripSeries(trip_id, period, {
        "a": np.arange(length, dtype=np.float64),
        "b": np.arange(length, dtype=np.float64) * 2.0 + 1.0,
    })


# ------------------------------------------------------------------ loading


class TestCsvRoundTrip:
    def test_write_then_load_is_bit_exact(self, tmp_path):
        trip = synthesize_trips(1, 120, seed=3)[0]
        write_trip_csv(trip, tmp_path / "trip.csv")
        back = load_trips(tmp_path / "trip.csv", DEFAULT_SCHEMA, 0.5)[0]
        assert set(back.channels) >= set(trip.channels)
        for name, seq in trip.channels.items():
            np.testing.assert_array_equal(back.channels[name], seq)

    def test_file_format(self, tmp_path):
        # a header of channel names, %.17g cells, CRLF line ends, UTF-8
        trip = TripSeries("t", 1.0, {"cabin_°C": np.array([0.1, -0.0]),
                                     "b": np.array([1 / 3, 5e15])})
        write_trip_csv(trip, tmp_path / "trip.csv")
        assert (tmp_path / "trip.csv").read_bytes() == (
            "cabin_°C,b\r\n"
            "0.10000000000000001,0.33333333333333331\r\n"
            "-0,5000000000000000\r\n").encode("utf-8")

    def test_sample_period_is_required(self, tmp_path):
        # no default period: datagen writes 0.5 s trips, and a guessed
        # period would resample them at the wrong stride
        write_trip_csv(synthesize_trips(1, 40, seed=3)[0],
                       tmp_path / "trip.csv")
        with pytest.raises(TypeError, match="sample_period_s"):
            load_trips(tmp_path / "trip.csv", DEFAULT_SCHEMA)

    def test_directory_loads_sorted(self, tmp_path):
        for trip in synthesize_trips(3, 40, seed=1):
            write_trip_csv(trip, tmp_path / f"{trip.trip_id}.csv")
        trips = load_trips(tmp_path, DEFAULT_SCHEMA, 0.5)
        assert [t.trip_id for t in trips] == ["synth-000", "synth-001",
                                              "synth-002"]

    @pytest.mark.parametrize("text, a, b", [
        ("a,b\n 1.5 ,\t2\n", [1.5], [2.0]),             # whitespace
        ('a,b\n1.0,"2.5"\n', [1.0], [2.5]),               # quoted cell
        ("a,note,b\n1,fine,2\n3,ok,4\n", [1.0, 3.0], [2.0, 4.0]),
        ("a,b\n1,2\n3,4\n", [1.0, 3.0], [2.0, 4.0]),     # LF
        ("a,b\r\n1,2\r\n3,4\r\n", [1.0, 3.0], [2.0, 4.0]),
        (f"a,b\n{MAX_ABS!r},-{MAX_ABS!r}\n", [MAX_ABS], [-MAX_ABS]),
    ])
    def test_loads_csv_text(self, tmp_path, text, a, b):
        # a column outside the schema may hold anything
        p = tmp_path / "trip.csv"
        p.write_bytes(text.encode())
        trip = load_trips(p, TINY, 1.0)[0]
        assert list(trip.channels) == ["a", "b"]
        assert trip.channels["a"].tolist() == a
        assert trip.channels["b"].tolist() == b

    def test_failed_write_leaves_previous_file(self, tmp_path):
        path = tmp_path / "trip.csv"
        write_trip_csv(tiny_trip(5), path)
        before = path.read_bytes()
        # the header is written before the bad cell raises
        bad = TripSeries("bad", 1.0, {"a": np.array([1.0, 2.0, "x"],
                                                    dtype=object)})
        with pytest.raises(ValueError):
            write_trip_csv(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trip.csv"]


class TestLoadErrors:
    def _write(self, tmp_path, text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        return p

    def test_missing_columns_named(self, tmp_path):
        p = self._write(tmp_path, "a,c\n1.0,2.0\n")
        with pytest.raises(ValueError, match="b"):
            load_trips(p, TINY, 1.0)

    @pytest.mark.parametrize("text, got", [
        ("a,b\n1.0,2.0\n3.0\n4.0,5.0\n", 1),
        ("a,b\n1.0,2.0\n\n4.0,5.0\n", 0),   # a blank line is a ragged row
    ])
    def test_ragged_row_reports_line_number(self, tmp_path, text, got):
        # rows are numbered as physical lines, header included
        p = self._write(tmp_path, text)
        with pytest.raises(ValueError, match=re.escape(
                f"{p}: ragged row 3: expected 2 cells, got {got}")):
            load_trips(p, TINY, 1.0)

    @pytest.mark.parametrize("text, cell", [
        ("a,b\n1.0,2.0\n3.0,oops\n", "oops"),
        # the first fault in row order wins over a later ragged row
        ("a,b\n1.0,2.0\n3.0,oops\n4.0,5.0\n6.0\n", "oops"),
        ('a,b\n1.0,2.0\n3.0, "2.5"\n', '"2.5"'),  # a space opens no quote
    ])
    def test_non_numeric_cell_reports_position(self, tmp_path, text, cell):
        p = self._write(tmp_path, text)
        with pytest.raises(ValueError) as err:
            load_trips(p, TINY, 1.0)
        assert str(err.value) == (
            f"{p}: non-numeric cell {cell!r} at row 3, column 'b'")

    def test_duplicate_schema_column_rejected(self, tmp_path):
        p = self._write(tmp_path, "a,b,a\n1,2,3\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{p}: duplicate column(s): a")):
            load_trips(p, TINY, 1.0)

    def test_non_utf8_file_named(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"a,b\n1.0,2.0\n3.0,\xff\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: not UTF-8")):
            load_trips(p, TINY, 1.0)

    def test_unreadable_csv_named(self, tmp_path):
        p = self._write(tmp_path, "a,b\n1.0," + "2" * 200_000 + "\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{p}: unreadable CSV: field larger than field limit")):
            load_trips(p, TINY, 1.0)

    @pytest.mark.parametrize("header", ["a,c", 'a,c,"d'])
    def test_unreadable_row_comes_before_a_header_fault(self, tmp_path,
                                                        header):
        # as in a one-piece parse: the whole file is read as CSV first
        p = self._write(tmp_path, f"{header}\n1.0,{'2' * 200_000}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{p}: unreadable CSV: field larger than field limit")):
            load_trips(p, TINY, 1.0)

    def test_header_spanning_every_line_has_no_data_rows(self, tmp_path):
        p = self._write(tmp_path, 'a,b,"c\nd"\n')
        with pytest.raises(ValueError, match=re.escape(
                f"{p}: no data rows")):
            load_trips(p, TINY, 1.0)

    def test_empty_file_rejected(self, tmp_path):
        p = self._write(tmp_path, "")
        with pytest.raises(ValueError):
            load_trips(p, TINY, 1.0)

    def test_header_only_rejected(self, tmp_path):
        p = self._write(tmp_path, "a,b\n")
        with pytest.raises(ValueError):
            load_trips(p, TINY, 1.0)

    @pytest.mark.parametrize("cell, what", [
        ("inf", "non-finite value"),
        ("nan", "non-finite value"),
        ("-inf", "non-finite value"),
        # squares and sums of squares of a larger cell overflow
        ("1e308", "out-of-range value 1e+308 (|v| > 1e+150)"),
        ("-2e150", "out-of-range value -2e+150 (|v| > 1e+150)"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, cell, what):
        p = self._write(tmp_path, f"a,b\n1.0,2.0\n3.0,{cell}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{p}: {what} in column 'b' at data row 3")):
            load_trips(p, TINY, 1.0)

    def test_directory_without_csv_rejected(self, tmp_path):
        (tmp_path / "notes.txt").write_text("not a trip")
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path}: no .csv trip files found")):
            load_trips(tmp_path, TINY, 1.0)

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_trips(tmp_path / "nope.csv", TINY, 1.0)


# ------------------------------------------------------- channel operations


class TestAggregation:
    def test_vent_average_is_exact_mean(self):
        trip = synthesize_trips(1, 60, seed=2)[0]
        agg = aggregate_redundant(trip, DEFAULT_SCHEMA)
        want = np.mean([trip.channels[v] for v in VENT_CHANNELS], axis=0)
        np.testing.assert_allclose(agg.channels["avg_vent_temp"], want,
                                   atol=1e-12)
        for v in VENT_CHANNELS:
            assert v not in agg.channels

    def test_missing_member_rejected(self):
        trip = synthesize_trips(1, 30, seed=2)[0]
        channels = dict(trip.channels)
        del channels["vent_temp_rr"]
        broken = TripSeries(trip.trip_id, trip.sample_period_s, channels)
        with pytest.raises(ValueError, match="vent_temp_rr"):
            aggregate_redundant(broken, DEFAULT_SCHEMA)


class TestResample:
    def test_stride_decimation_exact(self):
        trip = tiny_trip(20, period=0.5)
        out = resample(trip, 2.0)
        assert out.sample_period_s == 2.0
        np.testing.assert_array_equal(out.channels["a"],
                                      trip.channels["a"][::4])

    def test_identity_when_periods_match(self):
        trip = tiny_trip(10, period=0.5)
        out = resample(trip, 0.5)
        np.testing.assert_array_equal(out.channels["a"], trip.channels["a"])

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(ValueError):
            resample(tiny_trip(10, period=0.4), 1.0)


class TestSmoothTrip:
    def test_applies_filter_per_channel(self):
        rng = np.random.default_rng(0)
        trip = TripSeries("t", 1.0, {
            "a": rng.standard_normal(50),
            "b": 0.5 * np.arange(50, dtype=np.float64) ** 2,
        })
        out = smooth_trip(trip, 5, 2)
        # order-2 filter reproduces the quadratic channel
        np.testing.assert_allclose(out.channels["b"], trip.channels["b"],
                                   atol=1e-9)
        assert not np.array_equal(out.channels["a"], trip.channels["a"])


# ---------------------------------------------------------------- windowing


class TestMakeWindows:
    def test_count_and_boundaries(self):
        trip = tiny_trip(20)
        samples = make_windows(trip, TINY, window=5, horizon=3)
        assert len(samples) == 20 - 5 - 3 + 1
        first, last = samples[0], samples[-1]
        np.testing.assert_array_equal(first.x_enc[:, 0], np.arange(5.0))
        assert last.start == 12
        # y covers t+1..t+H where t is the last observed index
        b = trip.channels["b"]
        np.testing.assert_array_equal(first.y[:, 0], b[5:8])
        np.testing.assert_array_equal(first.teacher[:, 0], b[4:7])
        np.testing.assert_array_equal(last.y[-1], b[-1:])

    def test_teacher_is_y_shifted_back_one(self):
        samples = make_windows(tiny_trip(15), TINY, 4, 3)
        for s in samples:
            np.testing.assert_array_equal(s.teacher[1:], s.y[:-1])

    def test_short_trip_warns_and_yields_nothing(self, caplog):
        with caplog.at_level(logging.WARNING):
            out = make_windows(tiny_trip(6), TINY, 5, 3)
        assert len(out) == 0
        assert "too short" in caplog.text

    def test_missing_channel_rejected(self):
        trip = TripSeries("t", 1.0, {"a": np.arange(10.0)})
        with pytest.raises(ValueError, match="b"):
            make_windows(trip, TINY, 3, 2)

    def test_windows_never_cross_trips(self):
        trips = [
            TripSeries("one", 1.0, {"a": np.ones(12), "b": np.ones(12)}),
            TripSeries("two", 1.0, {"a": 2 * np.ones(12), "b": 2 * np.ones(12)}),
        ]
        samples = Windows.concat([make_windows(t, TINY, 4, 2) for t in trips])
        for s in samples:
            vals = np.unique(np.concatenate([s.x_enc.ravel(), s.y.ravel()]))
            assert vals.size == 1  # all values from a single trip


@given(
    length=st.integers(min_value=2, max_value=60),
    window=st.integers(min_value=1, max_value=20),
    horizon=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=60)
def test_window_count_property(length, window, horizon):
    trip = tiny_trip(length)
    samples = make_windows(trip, TINY, window, horizon)
    expected = length - window - horizon + 1
    assert len(samples) == max(expected, 0)
    if samples:
        assert samples[0].start == 0
        assert samples[-1].start == expected - 1


# ------------------------------------------------------- split and normalize


def _make_samples(n, w=3, f=2, h=2, v=1, trip_id="t", offset=0.0):
    rng = np.random.default_rng(17)
    rows = [(rng.standard_normal((w, f)) * 3.0 + offset,
             rng.standard_normal((h, v)),
             rng.standard_normal((h, v)) * 2.0 + offset) for _ in range(n)]
    xs, teach, ys = (np.stack(a) for a in zip(*rows))
    return Windows(xs, teach, ys, np.full(n, trip_id), np.arange(n))


class TestWindows:
    def test_int_index_gives_row_views(self):
        win = make_windows(tiny_trip(20), TINY, 5, 3)
        row = win[3]
        assert row.x_enc.shape == (5, 2) and row.y.shape == (3, 1)
        assert np.shares_memory(row.x_enc, win.x_enc)
        assert np.shares_memory(row.teacher, win.teacher)
        np.testing.assert_array_equal(row.y, win.y[3])
        assert (row.trip_id, row.start) == ("t0", 3)

    def test_slice_and_index_array_give_windows(self):
        win = make_windows(tiny_trip(20), TINY, 5, 3)
        head = win[:4]
        assert isinstance(head, Windows) and len(head) == 4
        np.testing.assert_array_equal(head.x_enc, win.x_enc[:4])
        picked = win[np.array([7, 2, 7])]
        assert isinstance(picked, Windows) and len(picked) == 3
        assert picked.start.tolist() == [7, 2, 7]
        np.testing.assert_array_equal(picked.y, win.y[[7, 2, 7]])

    def test_len_and_iteration_follow_rows(self):
        win = make_windows(tiny_trip(20), TINY, 5, 3)
        assert len(win) == 13
        rows = list(win)
        assert [r.start for r in rows] == list(range(13))
        for i, r in enumerate(rows):
            np.testing.assert_array_equal(r.x_enc, win.x_enc[i])
            np.testing.assert_array_equal(r.teacher, win.teacher[i])

    def test_short_trip_gives_empty_arrays(self):
        win = make_windows(tiny_trip(6), TINY, 5, 3)
        assert len(win) == 0 and list(win) == []
        assert win.x_enc.shape == (0, 5, 2)
        assert win.teacher.shape == win.y.shape == (0, 3, 1)
        assert win.trip_id.shape == win.start.shape == (0,)

    def test_concat_keeps_row_order(self):
        parts = [make_windows(tiny_trip(10, trip_id=name), TINY, 4, 2)
                 for name in ("a", "bb", "c")]
        win = Windows.concat([parts[0], make_windows(tiny_trip(3), TINY, 4, 2),
                              *parts[1:]])
        assert len(win) == 15
        assert win.trip_id.tolist() == ["a"] * 5 + ["bb"] * 5 + ["c"] * 5
        np.testing.assert_array_equal(win.x_enc[5:10], parts[1].x_enc)


class TestNormalizeAndSplit:
    def test_exact_sizes_and_permutation(self):
        samples = _make_samples(30)
        split = normalize_and_split(samples, 20, 5, 5, seed=1)
        assert (len(split.train), len(split.validation), len(split.test)) \
            == (20, 5, 5)
        keys = [(s.trip_id, s.start) for part in
                (split.train, split.validation, split.test) for s in part]
        assert len(keys) == len(set(keys)) == 30

    def test_stats_come_from_train_portion_only(self):
        samples = _make_samples(24)
        originals = {(s.trip_id, s.start): s for s in samples}
        split = normalize_and_split(samples, 16, 4, 4, seed=5)
        train_orig = [originals[(s.trip_id, s.start)] for s in split.train]
        xs = np.stack([s.x_enc for s in train_orig])
        ys = np.stack([s.y for s in train_orig])
        np.testing.assert_allclose(split.stats.input_mean,
                                   xs.mean(axis=(0, 1)), atol=1e-12)
        np.testing.assert_allclose(split.stats.target_std,
                                   ys.std(axis=(0, 1)), atol=1e-12)

    def test_train_portion_is_standardized(self):
        split = normalize_and_split(_make_samples(40), 30, 5, 5, seed=2)
        xs = split.train.x_enc
        np.testing.assert_allclose(xs.mean(axis=(0, 1)), 0.0, atol=1e-10)
        np.testing.assert_allclose(xs.std(axis=(0, 1)), 1.0, atol=1e-10)

    def test_round_trip_recovers_originals(self):
        samples = _make_samples(20)
        originals = {(s.trip_id, s.start): s for s in samples}
        split = normalize_and_split(samples, 12, 4, 4, seed=3)
        for part in (split.train, split.validation, split.test):
            for s in part:
                orig = originals[(s.trip_id, s.start)]
                np.testing.assert_allclose(
                    split.stats.denormalize_targets(s.y), orig.y, atol=1e-9)

    def test_same_seed_reproduces_split(self):
        samples = _make_samples(25)
        a = normalize_and_split(samples, 15, 5, 5, seed=9)
        b = normalize_and_split(samples, 15, 5, 5, seed=9)
        assert [(s.trip_id, s.start) for s in a.train] == \
            [(s.trip_id, s.start) for s in b.train]

    def test_different_seed_changes_order(self):
        samples = _make_samples(25)
        a = normalize_and_split(samples, 15, 5, 5, seed=1)
        b = normalize_and_split(samples, 15, 5, 5, seed=2)
        assert [(s.trip_id, s.start) for s in a.train] != \
            [(s.trip_id, s.start) for s in b.train]

    def test_insufficient_samples_message_counts(self):
        with pytest.raises(ValueError, match="need 30"):
            normalize_and_split(_make_samples(10), 20, 5, 5, seed=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            normalize_and_split(_make_samples(10), 4, 2, 2, seed=0,
                                mode="stratified")

    def test_trip_holdout_keeps_trips_whole(self):
        samples = Windows.concat([_make_samples(8, trip_id=f"trip{i}", offset=i)
                                  for i in range(6)])
        split = normalize_and_split(samples, 0, 8, 8, seed=4,
                                    mode="trip_holdout")
        seen = {}
        for name, part in (("train", split.train), ("val", split.validation),
                           ("test", split.test)):
            for s in part:
                assert seen.setdefault(s.trip_id, name) == name

    def test_trip_holdout_needs_enough_trips(self):
        samples = _make_samples(20, trip_id="only")
        with pytest.raises(ValueError, match="empty"):
            normalize_and_split(samples, 0, 5, 5, seed=0, mode="trip_holdout")

    @pytest.mark.parametrize("h", [1, 2])
    def test_trip_holdout_one_window_portion_needs_two_steps(self, h):
        # one window at horizon 1 is a single point per target: no R²
        samples = Windows.concat([_make_samples(1, h=h, trip_id=f"trip{i}")
                                  for i in range(6)])
        if h == 1:
            with pytest.raises(ValueError, match="one-window portion"):
                normalize_and_split(samples, 0, 1, 1, seed=0,
                                    mode="trip_holdout")
        else:
            split = normalize_and_split(samples, 0, 1, 1, seed=0,
                                        mode="trip_holdout")
            assert (len(split.validation), len(split.test)) == (1, 1)

    def test_flat_channel_keeps_unit_scale(self):
        samples = _make_samples(12)
        samples.x_enc[:, :, 1] = 7.0  # constant channel
        split = normalize_and_split(samples, 8, 2, 2, seed=0)
        assert split.stats.input_std[1] == 1.0
        for s in split.train:
            np.testing.assert_allclose(s.x_enc[:, 1], 0.0, atol=1e-12)


class TestNormStats:
    def test_inverse_composition_is_identity(self, rng):
        stats = NormStats(rng.standard_normal(3), np.abs(rng.standard_normal(3)) + 0.5,
                          rng.standard_normal(2), np.abs(rng.standard_normal(2)) + 0.5)
        y = rng.standard_normal((7, 2))
        np.testing.assert_allclose(
            stats.denormalize_targets(stats.normalize_targets(y)), y,
            atol=1e-9)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25)
def test_normalization_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    stats = NormStats(rng.normal(size=4), rng.uniform(0.1, 5.0, 4),
                      rng.normal(size=2), rng.uniform(0.1, 5.0, 2))
    x = rng.normal(scale=10.0, size=(5, 4))
    np.testing.assert_allclose(
        (stats.normalize_inputs(x) * stats.input_std) + stats.input_mean,
        x, atol=1e-9)


# ------------------------------------------------------------ synthesizer


# sha256 of the channel names and float64 bytes of ``synthesize_trips(2, 300,
# seed=7, **kwargs)``, and of the CSV bytes ``write_trip_csv`` writes for
# those trips; any change to the generator's arithmetic or to the file format
# shows here. A numpy build whose sin, tanh or std rounds differently also
# moves them; re-pin only after checking the bytes changed for that reason.
PINNED = [
    ({"noise_std": 0.0},
     "3a61236a43936a5693afbc11c5bf4fe515b5dd198682a4042199cc072544163f",
     "7c25bb0dd1f47eeecf542e48430884d549d120962f6f8af917a5b24647c92a18"),
    ({"noise_std": 0.01},
     "931de39d047583d8003e3f347635e878e1939935bd065f5779f908932b194ab6",
     "58b08d47baa80fb13d817aee7a9a975e4fc00380dd6a6142fd69a7c5e876ed8d"),
    ({"velocity_scale": 0.0},
     "5dcb26076084a27008c362c268870801b11f296baf85ff10c23b2c270fdd39d0",
     "82ea286afbd2c3746fdb522bea25eb5d659eb01e4ea9b2a53cdabab324702084"),
]


# where the first half of a paired ingest stage runs (conftest ``worker``)
MODES = ["inline", "process", "late"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kwargs, arrays_sha, csv_sha", PINNED,
                         ids=["clean", "noisy", "parked"])
def test_synth_and_csv_bytes_pinned(tmp_path, kwargs, arrays_sha, csv_sha,
                                    mode, worker, monkeypatch):
    # with the size constant under 300, the synthesis and each CSV write
    # run as two halves
    monkeypatch.setattr(pipeline, "PAIR_MIN_SAMPLES", 200)
    used = worker(mode)
    arrays, csvs = hashlib.sha256(), hashlib.sha256()
    for trip in synthesize_trips(2, 300, seed=7, **kwargs):
        for name, seq in trip.channels.items():
            arrays.update(name.encode() + seq.astype("<f8").tobytes())
        write_trip_csv(trip, tmp_path / "trip.csv")
        csvs.update((tmp_path / "trip.csv").read_bytes())
    assert arrays.hexdigest() == arrays_sha
    assert csvs.hexdigest() == csv_sha
    assert used.calls == (0 if mode == "inline" else 3)


class TestSynthTrips:
    def test_reproducible_and_seeded(self):
        a = synthesize_trips(3, 50, seed=5)
        b = synthesize_trips(3, 50, seed=5)
        c = synthesize_trips(3, 50, seed=6)
        for ta, tb in zip(a, b):
            for name in ta.channels:
                np.testing.assert_array_equal(ta.channels[name],
                                              tb.channels[name])
        assert not np.array_equal(a[0].channels["velocity"],
                                  c[0].channels["velocity"])

    def test_raw_layout_has_individual_vents(self):
        trip = synthesize_trips(1, 30, seed=0)[0]
        assert len(trip.channels) == 18
        for v in VENT_CHANNELS:
            assert v in trip.channels
        vals = [trip.channels[v] for v in VENT_CHANNELS]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert not np.array_equal(vals[i], vals[j])

    def test_acceleration_is_exact_finite_difference(self):
        trip = synthesize_trips(1, 200, seed=7, noise_std=0.0)[0]
        vel = trip.channels["velocity"]
        acc = trip.channels["acceleration"]
        assert acc[0] == 0.0
        np.testing.assert_array_equal(acc[1:], np.diff(vel) / 0.5)

    def test_soc_monotone_except_regen(self):
        upticks = 0
        for trip in synthesize_trips(6, 800, seed=1, noise_std=0.0):
            soc = trip.channels["soc"]
            regen = trip.channels["regen_power"]
            dsoc = np.diff(soc)
            rising = dsoc > 0
            assert (regen[:-1][rising] > 0).all()
            upticks += int(rising.sum())
        assert upticks > 0  # regen must actually occur somewhere

    def test_soc_drain_recurrence_reconstructed(self):
        # p_batt is recoverable as V*I/1000; the drain integrates it
        trip = synthesize_trips(1, 300, seed=9, noise_std=0.0)[0]
        soc = trip.channels["soc"]
        p_batt = (trip.channels["batt_voltage"]
                  * trip.channels["batt_current"]) / 1000.0
        want = soc[:-1] - p_batt[:-1] * 0.5 / (CAPACITY_KWH * 36.0)
        np.testing.assert_allclose(soc[1:], want, atol=1e-9)

    def test_batt_temp_first_order_lag_reconstructed(self):
        trip = synthesize_trips(1, 300, seed=4, noise_std=0.0)[0]
        temp = trip.channels["batt_temp"]
        p_batt = (trip.channels["batt_voltage"]
                  * trip.channels["batt_current"]) / 1000.0
        ambient = temp[0] - 5.0
        t_eq = ambient + 0.8 * np.abs(p_batt)
        want = temp[:-1] + 0.5 / 120.0 * (t_eq[:-1] - temp[:-1])
        np.testing.assert_allclose(temp[1:], want, atol=1e-9)

    def test_parked_trips_drain_through_hvac_only(self):
        for trip in synthesize_trips(3, 200, seed=2, noise_std=0.0,
                                     velocity_scale=0.0):
            np.testing.assert_array_equal(trip.channels["velocity"],
                                          np.zeros(200))
            np.testing.assert_array_equal(trip.channels["regen_power"],
                                          np.zeros(200))
            dsoc = np.diff(trip.channels["soc"])
            assert (dsoc <= 0).all()
            hvac = (trip.channels["heater_power"]
                    + trip.channels["ac_power"])[:-1]
            drains = dsoc < 0
            assert (hvac[drains] > 0).all()

    def test_velocity_nonnegative_without_noise(self):
        for trip in synthesize_trips(4, 150, seed=3, noise_std=0.0):
            assert (trip.channels["velocity"] >= 0).all()

    def test_noise_perturbs_channels(self):
        quiet = synthesize_trips(1, 100, seed=8, noise_std=0.0)[0]
        noisy = synthesize_trips(1, 100, seed=8, noise_std=0.05)[0]
        assert not np.array_equal(quiet.channels["soc"],
                                  noisy.channels["soc"])

    def test_all_channels_finite(self):
        for trip in synthesize_trips(2, 400, seed=12):
            for name, seq in trip.channels.items():
                assert np.isfinite(seq).all(), name


def window_loop_oracle(trip, schema, window, horizon):
    """One ``(x_enc, teacher, y, trip_id, start)`` tuple per window, cut in
    a Python loop over window starts."""
    feats = np.stack([trip.channels[c] for c in schema.input_channels], axis=1)
    targs = np.stack([trip.channels[c] for c in schema.target_channels], axis=1)
    rows = []
    for s in range(trip.length - window - horizon + 1):
        t = s + window - 1
        rows.append((feats[s:s + window].copy(), targs[t:t + horizon].copy(),
                     targs[t + 1:t + 1 + horizon].copy(), trip.trip_id, s))
    return rows


def split_loop_oracle(rows, train_n, val_n, test_n, seed, mode):
    """Split and normalize window tuples one at a time, grouping trips in a
    dict of lists; returns ``(train, validation, test)`` stacked portions
    and the statistics as a tuple of arrays."""
    rng = np.random.default_rng(seed)
    if mode == "shuffle":
        picked = [rows[i] for i in rng.permutation(len(rows))]
        parts = (picked[:train_n], picked[train_n:train_n + val_n],
                 picked[train_n + val_n:train_n + val_n + test_n])
    else:
        by_trip = {}
        for r in rows:
            by_trip.setdefault(r[3], []).append(r)
        trip_ids = list(by_trip)
        rng.shuffle(trip_ids)
        test, val, train = [], [], []
        for tid in trip_ids:
            if len(test) < test_n:
                test.extend(by_trip[tid])
            elif len(val) < val_n:
                val.extend(by_trip[tid])
            else:
                train.extend(by_trip[tid])
        parts = ([train[i] for i in rng.permutation(len(train))], val, test)
    xs = np.stack([r[0] for r in parts[0]])
    ys = np.stack([r[2] for r in parts[0]])
    in_mean, t_mean = xs.mean(axis=(0, 1)), ys.mean(axis=(0, 1))
    in_std, t_std = xs.std(axis=(0, 1)), ys.std(axis=(0, 1))
    in_std = np.where(in_std < 1e-12, 1.0, in_std)
    t_std = np.where(t_std < 1e-12, 1.0, t_std)
    stacked = tuple(
        (np.stack([(r[0] - in_mean) / in_std for r in part]),
         np.stack([(r[1] - t_mean) / t_std for r in part]),
         np.stack([(r[2] - t_mean) / t_std for r in part]),
         [r[3] for r in part], [r[4] for r in part])
        for part in parts)
    return stacked, (in_mean, in_std, t_mean, t_std)


class TestPrepareDataset:
    def test_end_to_end_counts_and_shapes(self):
        trips = synthesize_trips(4, 400, seed=6)
        split = prepare_dataset(trips, DEFAULT_SCHEMA, window=12, horizon=6,
                                savgol_window=21, savgol_order=2,
                                target_period_s=1.0, train_n=300, val_n=60,
                                test_n=60, seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) \
            == (300, 60, 60)
        s = split.train[0]
        assert s.x_enc.shape == (12, 15)
        assert s.teacher.shape == (6, 2)
        assert s.y.shape == (6, 2)

    @pytest.mark.parametrize("mode, sizes", [("shuffle", (300, 60, 60)),
                                             ("trip_holdout", (0, 200, 200))])
    def test_matches_per_window_loop_oracle_bytes(self, mode, sizes):
        trips = synthesize_trips(6, 400, seed=11)[::-1]  # ids out of order
        trips.append(synthesize_trips(1, 30, seed=12)[0])  # too short
        split = prepare_dataset(trips, DEFAULT_SCHEMA, 12, 6, 21, 2, 1.0,
                                *sizes, seed=4, split_mode=mode)
        rows = [r for trip in trips
                for r in window_loop_oracle(
                    preprocess_trip(trip, DEFAULT_SCHEMA, 21, 2, 1.0),
                    DEFAULT_SCHEMA, 12, 6)]
        parts, stats = split_loop_oracle(rows, *sizes, seed=4, mode=mode)
        for got, (xs, teach, ys, trip_ids, starts) in zip(
                (split.train, split.validation, split.test), parts):
            for arr, want in ((got.x_enc, xs), (got.teacher, teach),
                              (got.y, ys)):
                assert arr.shape == want.shape and arr.dtype == want.dtype
                assert arr.tobytes() == want.tobytes()
            assert got.trip_id.tolist() == trip_ids
            assert got.start.tolist() == starts
        for name, want in zip(("input_mean", "input_std", "target_mean",
                               "target_std"), stats):
            assert getattr(split.stats, name).tobytes() == want.tobytes()


# ------------------------------------------------------------ ingest pairs


def _ingest_bytes(root):
    """The bytes of every ingest stage for 3 trips of 1,200 samples: each
    stage is above ``PAIR_MIN_SAMPLES``."""
    root.mkdir()
    trips = synthesize_trips(3, 1200, seed=5)
    out = []
    for trip in trips:
        write_trip_csv(trip, root / f"{trip.trip_id}.csv")
        out.append((root / f"{trip.trip_id}.csv").read_bytes())
    loaded = load_trips(root, DEFAULT_SCHEMA, 0.5)
    for trip in (*trips, *loaded):
        out += [trip.trip_id, *trip.channels,
                *(seq.tobytes() for seq in trip.channels.values())]
    split = prepare_dataset(loaded, DEFAULT_SCHEMA, 12, 6, 21, 2, 5.0,
                            200, 50, 50, seed=2)
    for part in (split.train, split.validation, split.test):
        out += [part.x_enc.tobytes(), part.teacher.tobytes(),
                part.y.tobytes(), part.trip_id.tolist(), part.start.tobytes()]
    return out + [a.tobytes() for a in vars(split.stats).values()]


@pytest.mark.parametrize("mode", MODES)
def test_ingest_bytes_do_not_depend_on_the_worker(tmp_path, mode, worker,
                                                  monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(pipeline, "PAIR_MIN_SAMPLES", 10 ** 12)
        whole = _ingest_bytes(tmp_path / "whole")
    used = worker(mode)
    assert _ingest_bytes(tmp_path / mode) == whole
    # the synthesis, three writes, three parses and the preprocessing
    assert used.calls == (0 if mode == "inline" else 8)


def _tiny_csv(faults: dict) -> str:
    """A TINY-schema CSV of 1,200 data rows, row ``i`` (line ``i + 2``)
    replaced by ``faults[i]`` where given."""
    rows = [faults.get(i, f"{i},{2 * i}") for i in range(1200)]
    return "a,b\n" + "".join(f"{row}\n" for row in rows)


@pytest.mark.parametrize("faults, message", [
    ({100: "3.0"}, "ragged row 102: expected 2 cells, got 1"),
    ({1000: "3.0,x"}, "non-numeric cell 'x' at row 1002, column 'b'"),
    ({200: "1.0", 900: "1.0,oops"}, "ragged row 202: expected 2 cells, got 1"),
    ({300: "1.0,oops", 800: "1.0"},
     "non-numeric cell 'oops' at row 302, column 'b'"),
], ids=["ragged in first half", "bad cell in second half",
        "both halves, ragged first", "both halves, bad cell first"])
@pytest.mark.parametrize("mode", MODES)
def test_paired_parse_raises_the_one_piece_message(tmp_path, faults, message,
                                                   mode, worker):
    path = tmp_path / "bad.csv"
    path.write_text(_tiny_csv(faults), encoding="utf-8")
    used = worker(mode)
    with pytest.raises(ValueError) as err:
        load_trips(path, TINY, 1.0)
    assert str(err.value) == f"{path}: {message}"
    assert used.calls == (0 if mode == "inline" else 1)


# the lines of each block the fast parse was given in this process
_PARSED = []
_PARSE = pipeline._parse_columns


def _counted_parse(lines, width, columns):
    """The fast parse, counted in ``_PARSED``; module-level, so a pair can
    send it to the worker process, which counts in its own copy."""
    _PARSED.append(len(lines))
    return _PARSE(lines, width, columns)


@pytest.mark.parametrize("faults, message", [
    ({100: "3.0"}, "ragged row 102: expected 2 cells, got 1"),
    ({1000: "1_0,2000"}, None),     # ``float`` reads what numpy refuses
], ids=["ragged", "underscore"])
@pytest.mark.parametrize("mode", MODES)
def test_failed_half_goes_straight_to_csv_reader(tmp_path, faults, message,
                                                 mode, worker, monkeypatch):
    # each half is parsed by numpy once, and the body not again after a
    # half fails; the worker's half is parsed in the worker process
    _PARSED.clear()
    monkeypatch.setattr(pipeline, "_parse_columns", _counted_parse)
    path = tmp_path / "trip.csv"
    path.write_text(_tiny_csv(faults), encoding="utf-8")
    worker(mode)
    if message is None:
        trip = load_trips(path, TINY, 1.0)[0]
        assert trip.channels["a"][1000] == 10.0
    else:
        with pytest.raises(ValueError) as err:
            load_trips(path, TINY, 1.0)
        assert str(err.value) == f"{path}: {message}"
    assert _PARSED == ([600] if mode == "process" else [600, 600])


@pytest.mark.parametrize("bad", [1, 3], ids=["first half", "second half"])
@pytest.mark.parametrize("mode", MODES)
def test_paired_preprocessing_raises_the_one_piece_error(bad, mode, worker,
                                                         monkeypatch, caplog):
    # trip 0 is too short for windows and warns; trip ``bad`` lacks a vent
    # thermometer; in one piece the warning comes before the error
    trips = synthesize_trips(4, 400, seed=8)
    trips[0] = synthesize_trips(1, 30, seed=9)[0]
    del trips[bad].channels["vent_temp_fl"]

    def run():
        caplog.clear()
        with caplog.at_level(logging.WARNING), \
                pytest.raises(ValueError) as err:
            prepare_dataset(trips, DEFAULT_SCHEMA, 12, 6, 21, 2, 1.0,
                            100, 20, 20, seed=0)
        return str(err.value), [r.getMessage() for r in caplog.records]

    with monkeypatch.context() as m:
        m.setattr(pipeline, "PAIR_MIN_SAMPLES", 10 ** 12)
        whole = run()
    worker(mode)
    assert run() == whole
    assert whole[0] == (f"trip 'synth-{bad:03d}': aggregation 'avg_vent_temp' "
                        f"is missing member channel(s): vent_temp_fl")
    assert len(whole[1]) == 1 and "too short" in whole[1][0]


@pytest.mark.parametrize("mode", MODES)
def test_quoted_and_bare_cr_files_keep_their_values(tmp_path, mode, worker):
    # a file holding a quote parses in one piece, since a quoted cell may
    # span lines (here, at the middle row); a bare-CR file pairs
    a = np.arange(1200.0)
    b = 2.0 * a
    b[600] = 2.5
    quoted = tmp_path / "quoted.csv"
    quoted.write_text(_tiny_csv({600: '600,"2.5\n"'}), encoding="utf-8")
    bare_cr = tmp_path / "bare_cr.csv"
    bare_cr.write_bytes(_tiny_csv({600: "600,2.5"}).replace(
        "\n", "\r").encode())
    used = worker(mode)
    for path, calls in ((quoted, 0), (bare_cr, 1)):
        trip = load_trips(path, TINY, 1.0)[0]
        assert trip.channels["a"].tobytes() == a.tobytes()
        assert trip.channels["b"].tobytes() == b.tobytes()
        assert used.calls == (0 if mode == "inline" else calls)


# cells that test where numpy's C reader and ``float`` after csv.reader
# may part: ``float`` takes the first two and numpy refuses them, and
# csv.reader refuses a field over its limit; among the lines, numpy skips
# blank ones that csv.reader reads as empty rows
EDGE_CELLS = ["1_0", "١٢", " 1.5", "\t1.5", "1.5\xa0", "+NaN", "Infinity",
              "1e400", "1e-400", ".5", "5.", "-0", "", "x", "\0",
              "7" * 131_073]


def _refuse(lines, width, columns):
    """Stands in for the fast parse: every block goes to csv.reader."""
    return None


def _load_result(path):
    """``load_trips``'s trips, each channel as its dtype, layout and bytes,
    or the text of the ``ValueError`` it raised."""
    try:
        trips = load_trips(path, TINY, 1.0)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return [(trip.trip_id, [(name, seq.dtype.str, seq.flags.c_contiguous,
                             seq.tobytes())
                            for name, seq in trip.channels.items()])
            for trip in trips]


def _assert_fast_parse_is_exact(path, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # numpy's "no data", say
        got = _load_result(path)
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_parse_columns", _refuse)
        assert got == _load_result(path)


def _three_column_csv(faults: dict, end: str = "\n") -> str:
    """A TINY-schema CSV of 1,200 data rows with a ``note`` column between
    ``a`` and ``b``, row ``i`` replaced by ``faults[i]`` where given."""
    rows = [faults.get(i, f"{i},{-i},{2 * i}") for i in range(1200)]
    return "".join(f"{row}{end}" for row in ["a,note,b", *rows])


@pytest.mark.parametrize("faults, end", [
    *(({100: f"{cell},0,200"}, "\n") for cell in EDGE_CELLS),
    *(({900: f"900,{cell},1800"}, "\r\n") for cell in EDGE_CELLS),
    ({300: ""}, "\n"),                      # a blank line
    ({300: " \t"}, "\n"),                   # whitespace only
    ({300: "300,-300"}, "\n"),              # ragged, short
    ({900: "900,-900,1800,1"}, "\r\n"),     # ragged, long
    ({0: "", 1199: ""}, "\r"),              # bare CR, blank ends
    ({}, "\r"),
    ({i: "" for i in range(600, 1200)}, "\n"),   # a blank second half
    ({i: "" for i in range(1200)}, "\r\n"),     # nothing but blank lines
], ids=[*(f"a={c!r}" for c in EDGE_CELLS), *(f"note={c!r}" for c in EDGE_CELLS),
        "blank", "whitespace", "short", "long", "bare CR blank", "bare CR",
        "blank half", "all blank"])
@pytest.mark.parametrize("mode", ["inline", "process"])
def test_fast_parse_matches_csv_reader_table(tmp_path, faults, end, mode,
                                             worker, monkeypatch):
    path = tmp_path / "trip.csv"
    path.write_bytes(_three_column_csv(faults, end).encode())
    worker(mode)
    _assert_fast_parse_is_exact(path, monkeypatch)


_clean_cells = st.sampled_from(["0", "-1.25", "3e2", "42"])
_cells = st.one_of(_clean_cells, _clean_cells, st.sampled_from(EDGE_CELLS))
# a data row, a bad cell in the note column only, or a ragged, blank or
# whitespace-only line
_lines = st.one_of(
    st.tuples(_cells, _cells, _cells),
    st.tuples(_clean_cells, st.sampled_from(EDGE_CELLS), _clean_cells),
    st.lists(_cells, max_size=4).map(tuple),
    st.just((" ",)))


@given(body=st.lists(st.tuples(_lines, st.sampled_from(["\n", "\r\n", "\r"])),
                     min_size=1, max_size=12),
       last_end=st.booleans())
@settings(max_examples=120, derandomize=True, database=None)
def _fast_parse_property(tmp_path, monkeypatch, body, last_end):
    text = "".join(",".join(cells) + end
                   for cells, end in [(("a", "note", "b"), "\n"), *body])
    path = tmp_path / "trip.csv"
    path.write_bytes((text if last_end else text.rstrip("\r\n")).encode())
    _assert_fast_parse_is_exact(path, monkeypatch)


@pytest.mark.parametrize("mode", ["inline", "process"])
def test_fast_parse_matches_csv_reader_property(tmp_path, mode, worker,
                                                monkeypatch):
    # every body of two rows or more pairs where the worker runs
    monkeypatch.setattr(pipeline, "PAIR_MIN_SAMPLES", 2)
    worker(mode)
    _fast_parse_property(tmp_path, monkeypatch)


@pytest.mark.parametrize("mode", MODES)
def test_clean_files_take_the_fast_parse(tmp_path, mode, worker,
                                         monkeypatch):
    # no cell of a clean file is parsed in Python, in either half
    calls = []
    columns = pipeline._columns

    def spied(*args):
        calls.append(len(args[0]))
        return columns(*args)

    monkeypatch.setattr(pipeline, "_columns", spied)
    path = tmp_path / "trip.csv"
    path.write_text(_tiny_csv({}), encoding="utf-8")
    used = worker(mode)
    trip = load_trips(path, TINY, 1.0)[0]
    assert calls == []
    assert used.calls == (0 if mode == "inline" else 1)
    assert trip.channels["a"].tobytes() == np.arange(1200.0).tobytes()
    assert trip.channels["b"].tobytes() == np.arange(0.0, 2400, 2).tobytes()


def test_too_short_warning_reaches_the_caller(worker, caplog):
    # trip 1 is preprocessed in the worker; its windows are cut here
    trips = synthesize_trips(4, 400, seed=10)
    trips[1] = synthesize_trips(2, 30, seed=11)[1]
    used = worker("process")
    with caplog.at_level(logging.WARNING):
        split = prepare_dataset(trips, DEFAULT_SCHEMA, 12, 6, 21, 2, 1.0,
                                100, 20, 20, seed=0)
    assert used.calls == 1
    assert len(split.train) == 100
    assert [r.getMessage() for r in caplog.records] == [
        "trip 'synth-001' too short for windowing: length 15 < W+H=18; "
        "skipped"]


def test_pairs_run_with_public_functions_wrapped_in_closures(worker,
                                                             monkeypatch):
    # as perfbench's Tracer wraps them: only private helpers go to the
    # worker, so each call still pairs, and the caller's wrapped
    # preprocess_trip sees its own half of the trips only
    def run():
        trips = synth.synthesize_trips(4, 400, seed=3)
        split = pipeline.prepare_dataset(trips, DEFAULT_SCHEMA, 12, 6, 21, 2,
                                         1.0, 100, 20, 20, seed=0)
        return [t.channels["soc"].tobytes() for t in trips] + [
            split.train.x_enc.tobytes(), split.test.y.tobytes()]

    worker("inline")
    want = run()
    calls = Counter()
    for module, name in ((synth, "synthesize_trips"),
                         (pipeline, "preprocess_trip")):
        def wrapped(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)
    used = worker("process")
    assert run() == want
    assert used.calls == 2
    assert calls == {"synthesize_trips": 1, "preprocess_trip": 2}
