"""Synthetic trip generator for dataset-free testing and benchmarks.

Channels are causally linked the way real drive logs are: a smooth velocity
profile drives acceleration (its exact finite difference), traction power
(velocity squared, acceleration, and road grade terms), battery discharge
with regenerative upticks on deceleration, and battery temperature as a
first-order lag of power draw. HVAC channels walk slowly around their
set-points, and every channel finally receives additive Gaussian sensor
noise. Trips carry the raw 18-column layout, including the four individual
vent thermometers, so the whole ingestion pipeline gets exercised.

Each trip draws from its own seed, so once the trips hold
``pipeline.PAIR_MIN_SAMPLES`` samples, and the worker can run, the first
half of them is made in the worker process while the second is made here,
with the same bytes.
"""

from __future__ import annotations

import numpy as np

from .pipeline import VENT_CHANNELS, TripSeries, _halves

CAPACITY_KWH = 18.0     # usable pack energy
NOMINAL_VOLTS = 360.0
PACK_RESISTANCE = 0.05  # ohms, for the voltage sag term
REGEN_EFFICIENCY = 0.6


def _smooth_profile(rng, t, n_components, amp_range, period_range):
    out = np.zeros_like(t)
    for _ in range(n_components):
        amp = rng.uniform(*amp_range)
        period = rng.uniform(*period_range)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        out += amp * np.sin(2.0 * np.pi * t / period + phase)
    return out


def _slow_walk(rng, n, dt, scale, tau_s=60.0):
    """Exponentially smoothed white noise: a slow walk around zero."""
    alpha = dt / (tau_s + dt)
    root = max(alpha, 1e-9) ** 0.5
    out = []
    state = 0.0
    for eps in rng.normal(size=n).tolist():
        state += alpha * (eps * scale / root - state)
        out.append(state)
    return np.array(out)


def _synthesize_one(rng: np.random.Generator, trip_id: str, length: int,
                    dt: float, noise_std: float,
                    velocity_scale: float) -> TripSeries:
    n = length
    t = np.arange(n) * dt

    vel = velocity_scale * np.clip(
        10.0 + _smooth_profile(rng, t, 6, (1.0, 4.0), (30.0, 300.0)), 0.0, None)
    acc = np.empty(n)
    acc[0] = 0.0
    acc[1:] = np.diff(vel) / dt
    throttle = np.clip(0.5 * np.maximum(acc, 0.0) + 0.015 * vel, 0.0, 1.0)

    grade = _smooth_profile(rng, t, 4, (0.005, 0.02), (60.0, 600.0))
    elevation = np.concatenate([[0.0], np.cumsum(grade * vel * dt)[:-1]])

    ambient = rng.uniform(-5.0, 30.0)
    ambient_temp = ambient + _smooth_profile(rng, t, 2, (0.1, 0.4),
                                             (300.0, 1200.0))

    heat_set = max(0.0, (18.0 - ambient) * 0.25)
    ac_set = max(0.0, (ambient - 22.0) * 0.2)
    heater_power = np.clip(heat_set + _slow_walk(rng, n, dt, 0.05), 0.0, None)
    ac_power = np.clip(ac_set + _slow_walk(rng, n, dt, 0.05), 0.0, None)
    hvac = heater_power + ac_power

    setpoint = 21.0 + rng.uniform(-1.5, 1.5)
    cabin_setpoint = np.full(n, setpoint)
    cabin = [ambient]
    tau_cabin = 180.0
    for _ in range(1, n):
        cabin.append(cabin[-1] + dt / tau_cabin * (setpoint - cabin[-1]))
    cabin_temp = np.array(cabin)
    vent_base = cabin_setpoint + 2.0 * np.tanh(cabin_setpoint - cabin_temp)
    vents = {name: vent_base * (1.0 + rng.uniform(-5e-5, 5e-5))
             for name in VENT_CHANNELS}

    # traction power in kW: drag, acceleration, and grade terms
    p_traction = 0.008 * vel ** 2 + 0.3 * acc * vel + 1.3 * grade * vel
    regen_power = REGEN_EFFICIENCY * np.maximum(-p_traction, 0.0)
    p_batt = np.where(p_traction >= 0.0, p_traction, -regen_power) + hvac

    # Python floats: the same IEEE arithmetic as numpy scalars, unboxed
    soc = [rng.uniform(85.0, 98.0)]
    batt_temp = [ambient + 5.0]
    batt_voltage, batt_current = [], []
    tau_batt = 120.0
    for k, p in enumerate(p_batt.tolist()):
        i0 = p * 1000.0 / NOMINAL_VOLTS
        volts = NOMINAL_VOLTS + 0.3 * (soc[k] - 50.0) - PACK_RESISTANCE * i0
        batt_voltage.append(volts)
        batt_current.append(p * 1000.0 / volts)
        if k + 1 < n:
            # percent drained: kW * s over kWh capacity (1 kWh = 36 kJ per %)
            soc.append(soc[k] - p * dt / (CAPACITY_KWH * 36.0))
            t_eq = ambient + 0.8 * abs(p)
            batt_temp.append(batt_temp[k] + dt / tau_batt * (
                t_eq - batt_temp[k]))

    channels = {
        "velocity": vel,
        "acceleration": acc,
        "throttle": throttle,
        "elevation": elevation,
        "ambient_temp": ambient_temp,
        "batt_voltage": np.array(batt_voltage),
        "batt_current": np.array(batt_current),
        "batt_temp": np.array(batt_temp),
        "soc": np.array(soc),
        "heater_power": heater_power,
        "ac_power": ac_power,
        **vents,
        "cabin_temp": cabin_temp,
        "cabin_setpoint": cabin_setpoint,
        "regen_power": regen_power,
    }
    if noise_std > 0.0:
        for name, clean in channels.items():
            sigma = noise_std * max(float(np.std(clean)), 1e-6)
            channels[name] = clean + rng.normal(0.0, sigma, size=n)
    return TripSeries(trip_id, dt, channels)


def synthesize_trips(n_trips: int, length: int, seed: int,
                     sample_period_s: float = 0.5, noise_std: float = 0.01,
                     velocity_scale: float = 1.0) -> list:
    """Generate ``n_trips`` correlated synthetic trips of ``length`` samples.

    ``noise_std`` scales the per-channel Gaussian sensor noise (relative to
    each channel's clean standard deviation); zero disables it. ``velocity_scale``
    scales the whole velocity profile; zero produces parked trips whose SOC
    drains only through HVAC load.
    """
    seeds = list(enumerate(np.random.SeedSequence(seed).spawn(n_trips)))
    args = length, sample_period_s, noise_std, velocity_scale
    halves = (_halves(_synthesize_some, seeds, n_trips * length, *args)
              or [_synthesize_some(seeds, *args)])
    return [trip for half in halves for trip in half]


def _synthesize_some(seeds: list, length: int, dt: float, noise_std: float,
                     velocity_scale: float) -> list:
    """The trip of each ``(index, SeedSequence)`` in ``seeds``."""
    return [_synthesize_one(np.random.default_rng(seq), f"synth-{i:03d}",
                            length, dt, noise_std, velocity_scale)
            for i, seq in seeds]
