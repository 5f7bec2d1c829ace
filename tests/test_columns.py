"""The column chain against per-sample references, with exact equality.

``simulate_session``, ``compare_sensors`` and ``characterize`` run on numpy
columns; each must give exactly what the per-sample public functions give
when called one sample at a time, which is how the chain used to run.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from solesense import sensor
from solesense.acquisition import DividerConfig, counts_to_sample, divider_out, quantize
from solesense.analysis import compare_sensors
from solesense.cli import simulate_session
from solesense.datasets import comparison_stimulus
from solesense.sensor import (
    DynamicsConfig,
    SensorState,
    builtin_profile,
    builtin_profile_names,
    characterize,
    run_channel,
    step,
)
from solesense.synth import GaitParams, synthesize
from solesense.units import CHANNEL_ORDER, Pressure, Voltage

GRID = list(
    itertools.product(
        (100.0, 1000.0),  # sample rate
        (0.5, 0.6, 0.7),  # stance fraction
        (0.0, 2000.0),  # noise sigma, Pa
        (1, 2),  # seed
    )
)


def _per_sample_chain(params, profile, divider):
    dynamics = DynamicsConfig(sample_period=1.0 / params.sample_rate_hz)
    states = {channel: SensorState.at_rest(0.0) for channel in CHANNEL_ORDER}
    samples = []
    for truth in synthesize(params):
        counts = []
        for channel in CHANNEL_ORDER:
            states[channel], resistance = step(
                states[channel], truth.channels[channel], truth.timestamp, profile, dynamics
            )
            counts.append(quantize(divider_out(resistance, divider), divider).value)
        samples.append(counts_to_sample(truth.timestamp, tuple(counts), profile, divider))
    return samples


def _stepwise(state, applied_pa, timestamps, profile, dynamics):
    """run_channel's reference: step() once per sample."""
    effective, ohms = [], []
    for p, t in zip(applied_pa, timestamps):
        state, resistance = step(state, Pressure(float(p)), float(t), profile, dynamics)
        effective.append(state.effective_pressure.pascals)
        ohms.append(resistance.ohms)
    return np.array(effective), np.array(ohms)


@pytest.mark.parametrize("name", builtin_profile_names())
def test_simulate_session_equals_per_sample_chain(name):
    profile = builtin_profile(name)
    divider = DividerConfig()
    for rate, stance, noise, seed in GRID:
        params = GaitParams(
            body_mass_kg=70.0,
            stance_fraction=stance,
            sample_rate_hz=rate,
            cycles=2 if rate < 1000.0 else 1,
            noise_sigma_pa=noise,
            seed=seed,
        )
        got = simulate_session(params, profile, divider).samples
        want = _per_sample_chain(params, profile, divider)
        assert [s.timestamp for s in got] == [s.timestamp for s in want], (rate, stance, noise, seed)
        assert [s.as_row() for s in got] == [s.as_row() for s in want], (rate, stance, noise, seed)


def test_reference_above_the_rail_raises_the_per_sample_error():
    # the unloaded sensor reads the rail, code floor(3.3 / 3.7 * 4096) = 3653,
    # whose centre lies above the rail: past the last code the divider decodes
    profile = builtin_profile("measured")
    divider = DividerConfig(v_ref=Voltage(3.7))
    params = GaitParams(body_mass_kg=70.0, cycles=1)
    with pytest.raises(ValueError) as per_sample:
        _per_sample_chain(params, profile, divider)
    with pytest.raises(ValueError) as columns:
        simulate_session(params, profile, divider)
    assert str(columns.value) == str(per_sample.value)
    assert "outside the" in str(columns.value)


@pytest.mark.parametrize("name", builtin_profile_names())
def test_run_channel_equals_step_by_step(name):
    profile = builtin_profile(name)
    rng = np.random.default_rng(5)
    top = 1.2 * profile.max_pressure_pa
    # presses, releases to zero (open circuit), random walks, repeated times
    applied = np.concatenate(
        [
            np.zeros(5),
            np.full(20, 0.8 * top),
            np.zeros(10),
            rng.uniform(0.0, top, 200),
            np.abs(np.cumsum(rng.normal(0.0, 0.02 * top, 200))),
        ]
    )
    times = np.cumsum(rng.choice([0.0, 0.001, 0.01, 0.05], applied.size))
    dynamics = dataclasses.replace(DynamicsConfig.for_profile(profile), sample_period=0.01)
    for start in (SensorState.at_rest(0.0), SensorState.settled(Pressure(0.5 * top), profile)):
        got = run_channel(start, applied, times, profile, dynamics)
        want = _stepwise(start, applied, times, profile, dynamics)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_run_channel_rejects_what_step_rejects():
    profile = builtin_profile("measured")
    dynamics = DynamicsConfig()
    state = SensorState.at_rest(1.0)
    with pytest.raises(ValueError, match="backwards"):
        run_channel(state, [1.0, 1.0], [1.5, 1.2], profile, dynamics)
    with pytest.raises(ValueError, match="backwards"):
        run_channel(state, [1.0], [0.5], profile, dynamics)
    with pytest.raises(ValueError, match=">= 0"):
        run_channel(state, [1.0, -1.0], [1.5, 1.6], profile, dynamics)
    with pytest.raises(ValueError, match="one applied pressure per timestamp"):
        run_channel(state, [1.0, 2.0], [1.5], profile, dynamics)


def test_compare_sensors_equals_per_step_reference():
    times, sensor_stim, fsr_stim = comparison_stimulus()
    profiles = [builtin_profile("bench"), builtin_profile("fsr")]
    dynamics = DynamicsConfig(hysteresis_halfwidth=1e-9)
    table = compare_sensors(times, [sensor_stim, fsr_stim], profiles)
    for k, (profile, series) in enumerate(zip(profiles, (sensor_stim, fsr_stim))):
        state = SensorState.settled(Pressure(series[0]), profile, timestamp=times[0])
        want = [state.lagged_resistance.ohms]
        for t, p in zip(times[1:], series[1:]):
            state, resistance = step(state, Pressure(p), t, profile, dynamics)
            want.append(resistance.ohms)
        assert [row[k] for row in table.resistances_ohm] == want


@pytest.mark.parametrize("name", builtin_profile_names())
def test_characterize_equals_per_step_reference(name, monkeypatch):
    profile = builtin_profile(name)
    got = characterize(profile)
    monkeypatch.setattr(sensor, "run_channel", _stepwise)
    want = characterize(profile)
    assert got == want
    assert math.isfinite(got.hysteresis_fraction)
