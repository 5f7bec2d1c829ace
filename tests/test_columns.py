"""The column chain against per-sample references, with exact equality.

``simulate_session``, ``compare_sensors`` and ``characterize`` run on numpy
columns; each must give exactly what the per-sample public functions give
when called one sample at a time, which is how the chain used to run.
``run_channel`` on an (n, k) block must equal k one-column runs, and the
float64 decode table the tuple table.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from helpers import counts_to_samples, simulate_session

from solesense import analysis, cli, sensor
from solesense.acquisition import (
    DividerConfig,
    _decode_tables,
    counts_to_pascals,
    counts_to_sample,
    decode_table,
    divider_out,
    quantize,
)
from solesense.analysis import compare_sensors
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
from solesense.synth import GaitParams, synthesize, synthesize_columns
from solesense.units import CHANNEL_ORDER, Pressure, Resistance, Voltage

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
        _assert_same_bits(run_channel(start, applied, times, profile, dynamics),
                          _stepwise(start, applied, times, profile, dynamics))


def _assert_same_bits(got, want):
    """Effective and lagged columns equal bit for bit: -0.0 is not 0.0 here."""
    assert got[0].tobytes() == np.asarray(want[0], dtype=float).tobytes()
    assert got[1].tobytes() == np.asarray(want[1], dtype=float).tobytes()


def _edge_columns():
    """(id, profile, dynamics, start state, applied pascals, timestamps) around
    the play scan's strides, signed zeros, dead-band edges, repeated times and
    open-circuit stretches."""
    measured = builtin_profile("measured")
    onset = measured.onset_pressure.pascals
    top = measured.max_pressure_pa
    dynamics = DynamicsConfig.for_profile(measured)
    rng = np.random.default_rng(18)
    at_rest = SensorState.at_rest(0.0)
    cases = []
    for n in sorted({0, 1, 2} | {m + d for m in (4, 8, 16, 32, 64, 128) for d in (-1, 0, 1)}):
        times = np.cumsum(rng.choice([0.0, 0.001, 0.01], n))
        jumps = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 1.2 * top, n))
        cases.append((f"length {n}, jumps", measured, dynamics, at_rest, jumps, times))
        # steps a tenth of the dead band wide: the state hangs on samples far back
        walk = 0.7 * top + np.cumsum(rng.normal(0.0, 0.1 * dynamics.hysteresis_halfwidth, n))
        cases.append((f"length {n}, slow walk", measured, dynamics, at_rest, walk, times))

    # halfwidth 0.5 keeps a +/- h exact: applied values land on the dead
    # band's edges of the state before them, and h - h = +0.0 meets a -0.0 state
    exact = dataclasses.replace(dynamics, hysteresis_halfwidth=0.5)
    edges = np.array([0.5, 0.0, 0.5, 1.0, 1.5, 1.0, 0.5, 0.0, -0.0, 0.5])
    edge_times = np.arange(1, edges.size + 1) * 0.01
    for start_pa in (-0.0, 0.0, 0.5):
        state = SensorState(Pressure(start_pa), Resistance.open_circuit(), 0.0)
        cases.append((f"dead-band edges from {start_pa!r}", measured, exact, state, edges, edge_times))
    cases.append(("-0.0 applied", measured, dynamics, at_rest, np.full(9, -0.0), np.arange(9) * 0.01))
    cases.append(("-0.0 start, -0.0 applied", measured, dynamics,
                  SensorState(Pressure(-0.0), Resistance.open_circuit(), 0.0), np.full(9, -0.0), np.arange(9) * 0.01))

    pressed = np.full(12, 0.9 * top)
    cases.append(("equal timestamps", measured, dynamics, SensorState.settled(Pressure(0.5 * top), measured),
                  pressed, np.array([0.0] * 4 + [0.01] * 4 + [0.02] * 4)))
    closed = rng.uniform(onset + 0.1 * (top - onset), top, 30)
    open_at = {"start": slice(0, 5), "middle": slice(12, 18), "end": slice(25, 30)}
    for where, cut in open_at.items():
        applied = closed.copy()
        applied[cut] = 0.5 * onset
        times = np.arange(1, 31) * 0.01
        for label, state in (("at rest", at_rest), ("settled", SensorState.settled(Pressure(0.6 * top), measured))):
            cases.append((f"open at the {where}, from {label}", measured, dynamics, state, applied, times))

    bench = builtin_profile("bench")
    series = rng.uniform(0.0, bench.max_pressure_pa, 40)
    state = SensorState.settled(Pressure(series[0]), bench, timestamp=0.0)
    cases.append(("bench dynamics, settled start", bench, analysis._BENCH_DYNAMICS, state,
                  series[1:], np.cumsum(rng.choice([0.0, 0.5, 1.0], 39))))
    return cases


EDGE_COLUMNS = _edge_columns()


@pytest.mark.parametrize("case", EDGE_COLUMNS, ids=[case[0] for case in EDGE_COLUMNS])
def test_run_channel_equals_step_by_step_on_edge_columns(case):
    _, profile, dynamics, state, applied, times = case
    _assert_same_bits(run_channel(state, applied, times, profile, dynamics),
                      _stepwise(state, applied, times, profile, dynamics))


def test_run_channel_runs_the_lag_of_step(monkeypatch):
    """run_channel has no lag of its own: with _lagged_ohms swapped for one
    that doubles the time step, it still equals step() sample by sample."""
    cases = [(state, applied, times, profile, dynamics) for _, profile, dynamics, state, applied, times in EDGE_COLUMNS]
    before = [run_channel(*case)[1].tobytes() for case in cases]
    lag = sensor._lagged_ohms
    monkeypatch.setattr(sensor, "_lagged_ohms", lambda previous, target, dt, dyn: lag(previous, target, 2.0 * dt, dyn))
    changed = 0
    for case, ohms in zip(cases, before):
        got = run_channel(*case)
        _assert_same_bits(got, _stepwise(*case))
        changed += got[1].tobytes() != ohms
    assert changed  # the swap reaches both paths


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


def _assert_block_equals_columns(state, applied, times, profile, dynamics):
    """run_channel on an (n, k) block equals k one-column runs, bit for bit."""
    effective, ohms = run_channel(state, applied, times, profile, dynamics)
    assert effective.shape == ohms.shape == applied.shape
    for k in range(applied.shape[1]):
        _assert_same_bits((effective[:, k], ohms[:, k]),
                          run_channel(state, applied[:, k], times, profile, dynamics))


@pytest.mark.parametrize("name", builtin_profile_names())
def test_run_channel_on_a_block_equals_one_column_runs(name):
    profile = builtin_profile(name)
    dynamics = DynamicsConfig.for_profile(profile)
    for rate, stance, noise, seed in GRID:
        params = GaitParams(body_mass_kg=70.0, stance_fraction=stance, sample_rate_hz=rate, cycles=1,
                            noise_sigma_pa=noise, seed=seed)
        times, pascals = synthesize_columns(params)
        for state in (SensorState.at_rest(0.0), SensorState.settled(Pressure(0.5 * profile.max_pressure_pa), profile)):
            _assert_block_equals_columns(state, pascals, times, profile, dynamics)


def _edge_blocks():
    """(id, profile, dynamics, start state, (n, k) applied pascals, timestamps)."""
    measured = builtin_profile("measured")
    onset = measured.onset_pressure.pascals
    top = measured.max_pressure_pa
    dynamics = DynamicsConfig.for_profile(measured)
    rng = np.random.default_rng(20)
    settled = SensorState.settled(Pressure(0.5 * top), measured)
    cases = []
    for n in sorted({0, 1, 2, 3} | {m + d for m in (4, 8, 16, 32, 64, 128) for d in (-1, 0, 1)}):
        times = np.cumsum(rng.choice([0.0, 0.001, 0.01], n))
        jumps = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 1.2 * top, n))
        walk = 0.7 * top + np.cumsum(rng.normal(0.0, 0.1 * dynamics.hysteresis_halfwidth, n))
        # one column open throughout beside one loaded throughout
        block = np.column_stack([jumps, np.zeros(n), walk, np.full(n, 0.9 * top), np.full(n, 0.5 * onset)])
        for label, state in (("at rest", SensorState.at_rest(0.0)), ("settled", settled)):
            cases.append((f"length {n}, from {label}", measured, dynamics, state, block, times))
    cases.append(("one column", measured, dynamics, settled, block[:, :1], times))

    exact = dataclasses.replace(dynamics, hysteresis_halfwidth=0.5)
    edges = np.array([0.5, 0.0, 0.5, 1.0, 1.5, 1.0, 0.5, 0.0, -0.0, 0.5])
    signed = np.column_stack([edges, np.full(10, -0.0), np.zeros(10), edges[::-1]])
    for start_pa in (-0.0, 0.0, 0.5):
        state = SensorState(Pressure(start_pa), Resistance.open_circuit(), 0.0)
        cases.append((f"signed zeros from {start_pa!r}", measured, exact, state, signed, np.arange(1, 11) * 0.01))
    pressed = np.column_stack([np.full(12, 0.9 * top), np.full(12, 0.3 * top), np.zeros(12)])
    cases.append(("equal timestamps", measured, dynamics, settled, pressed,
                  np.array([0.0] * 4 + [0.01] * 4 + [0.02] * 4)))
    return cases


EDGE_BLOCKS = _edge_blocks()


@pytest.mark.parametrize("case", EDGE_BLOCKS, ids=[case[0] for case in EDGE_BLOCKS])
def test_run_channel_on_edge_blocks_equals_one_column_runs(case):
    _, profile, dynamics, state, applied, times = case
    _assert_block_equals_columns(state, applied, times, profile, dynamics)


def test_run_channel_rejects_a_bad_block_as_it_rejects_a_bad_column():
    profile = builtin_profile("measured")
    dynamics = DynamicsConfig()
    state = SensorState.at_rest(1.0)
    times = np.array([1.5, 1.6, 1.7])
    good = np.full((3, 5), 3e5)
    for bad in (math.nan, -1.0, math.inf):
        block = good.copy()
        block[1, 3] = bad
        with pytest.raises(ValueError, match=r"applied pressures must be finite and >= 0"):
            run_channel(state, block, times, profile, dynamics)
    for shape in ((2, 5), (4, 5), (3, 5, 1), (3, 1, 5)):
        with pytest.raises(ValueError, match="one applied pressure per timestamp"):
            run_channel(state, np.full(shape, 3e5), times, profile, dynamics)
    with pytest.raises(ValueError, match="one applied pressure per timestamp"):
        run_channel(state, good, np.tile(times, (5, 1)).T, profile, dynamics)
    with pytest.raises(ValueError, match="backwards"):
        run_channel(state, good, [1.5, 1.2, 1.7], profile, dynamics)
    with pytest.raises(ValueError, match="backwards"):
        run_channel(state, good, times - 1.0, profile, dynamics)


def test_simulated_counts_run_the_sensors_as_one_block(monkeypatch):
    calls = []

    def counted(state, applied, times, profile, dynamics):
        calls.append(np.shape(applied))
        return run_channel(state, applied, times, profile, dynamics)

    monkeypatch.setattr(cli, "run_channel", counted)
    params = GaitParams(body_mass_kg=70.0, cycles=2, noise_sigma_pa=2000.0, seed=4)
    times, counts = cli._simulated_counts(params, builtin_profile("measured"))
    assert calls == [(len(times), len(CHANNEL_ORDER))]
    assert counts.shape == (len(times), len(CHANNEL_ORDER))


@pytest.mark.parametrize("name", builtin_profile_names())
@pytest.mark.parametrize("divider", [DividerConfig(), DividerConfig(adc_bits=8), DividerConfig(v_ref=Voltage(3.6))],
                         ids=["12 bit", "8 bit", "reference above the rail"])
def test_float_view_equals_the_decode_table(name, divider):
    profile = builtin_profile(name)
    table, objects, floats = _decode_tables(profile, divider)
    assert table is decode_table(profile, divider)
    assert _decode_tables(profile, divider)[2] is floats  # built once
    assert floats.dtype == np.float64 and floats.shape == (len(table),)
    assert [x.hex() for x in floats.tolist()] == [x.hex() for x in table]
    counts = np.random.default_rng(6).integers(0, len(table), (400, 5))
    rows = [sample.as_row() for sample in counts_to_samples(np.arange(400.0), counts, profile, divider)]
    assert counts_to_pascals(counts, profile, divider).tobytes() == np.array(rows).tobytes()


def test_compare_sensors_equals_per_step_reference():
    times, stimuli = comparison_stimulus()
    profiles = [builtin_profile("bench"), builtin_profile("fsr")]
    dynamics = DynamicsConfig(hysteresis_halfwidth=1e-9)
    table = compare_sensors(times, stimuli, profiles)
    for k, (profile, series) in enumerate(zip(profiles, stimuli)):
        state = SensorState.settled(Pressure(series[0]), profile, timestamp=times[0])
        want = [state.lagged_resistance.ohms]
        for t, p in zip(times[1:], series[1:]):
            state, resistance = step(state, Pressure(p), t, profile, dynamics)
            want.append(resistance.ohms)
        assert list(table.resistances_ohm[k]) == want


@pytest.mark.parametrize("name", builtin_profile_names())
def test_characterize_equals_per_step_reference(name, monkeypatch):
    profile = builtin_profile(name)
    got = characterize(profile)
    monkeypatch.setattr(sensor, "run_channel", _stepwise)
    want = characterize(profile)
    assert got == want
    assert math.isfinite(got.hysteresis_fraction)
