"""Trip ingestion, windowing, normalization, and the synthetic generator.

The synthetic-trip tests reconstruct the generator's causal recurrences
(SOC drain, battery-temperature lag) from the emitted channels alone and
verify them step by step, so they double as documentation of the physics.
"""

import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripcast.pipeline import (
    DEFAULT_SCHEMA,
    VENT_CHANNELS,
    FeatureSchema,
    NormStats,
    TripSeries,
    WindowedSample,
    aggregate_redundant,
    load_trips,
    make_windows,
    normalize_and_split,
    prepare_dataset,
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

    def test_directory_loads_sorted(self, tmp_path):
        for trip in synthesize_trips(3, 40, seed=1):
            write_trip_csv(trip, tmp_path / f"{trip.trip_id}.csv")
        trips = load_trips(tmp_path, DEFAULT_SCHEMA, 0.5)
        assert [t.trip_id for t in trips] == ["synth-000", "synth-001",
                                              "synth-002"]


class TestLoadErrors:
    def _write(self, tmp_path, text):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        return p

    def test_missing_columns_named(self, tmp_path):
        p = self._write(tmp_path, "a,c\n1.0,2.0\n")
        with pytest.raises(ValueError, match="b"):
            load_trips(p, TINY, 1.0)

    def test_ragged_row_reports_line_number(self, tmp_path):
        # rows are numbered as physical lines, header included
        p = self._write(tmp_path, "a,b\n1.0,2.0\n3.0\n4.0,5.0\n")
        with pytest.raises(ValueError, match="row 3"):
            load_trips(p, TINY, 1.0)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        p = self._write(tmp_path, "a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError) as err:
            load_trips(p, TINY, 1.0)
        msg = str(err.value)
        assert "oops" in msg and "row 3" in msg and "b" in msg

    def test_empty_file_rejected(self, tmp_path):
        p = self._write(tmp_path, "")
        with pytest.raises(ValueError):
            load_trips(p, TINY, 1.0)

    def test_header_only_rejected(self, tmp_path):
        p = self._write(tmp_path, "a,b\n")
        with pytest.raises(ValueError):
            load_trips(p, TINY, 1.0)

    def test_non_finite_value_rejected(self, tmp_path):
        p = self._write(tmp_path, "a,b\n1.0,2.0\n3.0,inf\n")
        with pytest.raises(ValueError):
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
        assert out == []
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
        samples = []
        for t in trips:
            samples.extend(make_windows(t, TINY, 4, 2))
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
    out = []
    for i in range(n):
        out.append(WindowedSample(
            x_enc=rng.standard_normal((w, f)) * 3.0 + offset,
            teacher=rng.standard_normal((h, v)),
            y=rng.standard_normal((h, v)) * 2.0 + offset,
            trip_id=trip_id,
            start=i,
        ))
    return out


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
        originals = {(s.trip_id, s.start): s for s in _make_samples(24)}
        split = normalize_and_split(list(originals.values()), 16, 4, 4, seed=5)
        train_orig = [originals[(s.trip_id, s.start)] for s in split.train]
        xs = np.stack([s.x_enc for s in train_orig])
        ys = np.stack([s.y for s in train_orig])
        np.testing.assert_allclose(split.stats.input_mean,
                                   xs.mean(axis=(0, 1)), atol=1e-12)
        np.testing.assert_allclose(split.stats.target_std,
                                   ys.std(axis=(0, 1)), atol=1e-12)

    def test_train_portion_is_standardized(self):
        split = normalize_and_split(_make_samples(40), 30, 5, 5, seed=2)
        xs = np.stack([s.x_enc for s in split.train])
        np.testing.assert_allclose(xs.mean(axis=(0, 1)), 0.0, atol=1e-10)
        np.testing.assert_allclose(xs.std(axis=(0, 1)), 1.0, atol=1e-10)

    def test_round_trip_recovers_originals(self):
        originals = {(s.trip_id, s.start): s for s in _make_samples(20)}
        split = normalize_and_split(list(originals.values()), 12, 4, 4, seed=3)
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
        samples = []
        for i in range(6):
            samples.extend(_make_samples(8, trip_id=f"trip{i}", offset=i))
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

    def test_flat_channel_keeps_unit_scale(self):
        samples = _make_samples(12)
        for s in samples:
            s.x_enc[:, 1] = 7.0  # constant channel
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
