import math
import random
import re
from itertools import accumulate

import numpy as np
import pytest

from solesense.datasets import DATASHEET_RANGE, MEASURED_CALIBRATION
from solesense.sensor import (
    CalibrationError,
    CalibrationPoint,
    DynamicsConfig,
    SensorState,
    _play_scan,
    builtin_profile,
    characterize,
    fit_profile,
    play_update,
    run_channel,
    static_ohms,
    static_resistance,
    step,
)
from solesense import store
from solesense.store import read_calibration_csv
from solesense.telemetry import SessionHeader
from solesense.units import Pressure, Resistance

from helpers import write_calibration_csv


def _points(rows):
    return [CalibrationPoint(p, r) for p, r in rows]


class TestFit:
    def test_measured_profile_reproduces_every_point(self):
        profile = builtin_profile("measured")
        for pressure, resistance in MEASURED_CALIBRATION:
            got = static_resistance(profile, Pressure(pressure))
            assert got.ohms == pytest.approx(resistance, rel=1e-9)

    def test_flat_two_point_profile(self):
        profile = fit_profile("flat", _points([(1e5, 500.0), (2e5, 500.0)]), Pressure(0.0))
        for p in (1e5, 1.3e5, 1.77e5, 2e5):
            assert static_resistance(profile, Pressure(p)).ohms == pytest.approx(500.0, rel=1e-12)

    def test_leave_one_out_interpolation(self):
        held_out = (509514.4, 1333783.333)
        rows = [r for r in MEASURED_CALIBRATION if r != held_out]
        profile = fit_profile("loo", _points(rows), Pressure(200_000.0))
        got = static_resistance(profile, Pressure(held_out[0])).ohms
        assert abs(got - held_out[1]) / held_out[1] <= 0.15

    def test_duplicate_pressures_average(self):
        profile = fit_profile(
            "dup", _points([(1e5, 1000.0), (1e5, 3000.0), (2e5, 500.0)]), Pressure(0.0)
        )
        assert static_resistance(profile, Pressure(1e5)).ohms == pytest.approx(2000.0, rel=1e-12)
        assert len(profile.points) == 2

    def test_rejects_too_few_points(self):
        with pytest.raises(CalibrationError, match=">= 2"):
            fit_profile("one", _points([(1e5, 1000.0), (1e5, 2000.0)]), Pressure(0.0))

    def test_rejects_increasing_resistance(self):
        with pytest.raises(CalibrationError, match="must not increase"):
            fit_profile("bad", _points([(1e5, 1000.0), (2e5, 2000.0)]), Pressure(0.0))

    # the session header's CSV reader splits lines and strips each value
    @pytest.mark.parametrize("name", ["sole\nleft", "sole\rleft", "sole\r\n", " sole", "sole\t", "\u2028"])
    def test_rejects_a_name_a_session_header_cannot_carry(self, name):
        with pytest.raises(CalibrationError, match=f"^profile name {re.escape(repr(name))}: ") as err:
            fit_profile(name, _points([(1e5, 1000.0), (2e5, 500.0)]), Pressure(0.0))
        assert "line break or whitespace at either end" in str(err.value)

    @pytest.mark.parametrize("name", ["sole left", "sole[L]", "", "s\u00f8le", "a\x0bb", "a: b,c"])
    def test_a_name_it_takes_reads_back_from_a_csv_session_header(self, tmp_path, name):
        profile = fit_profile(name, _points([(1e5, 1000.0), (2e5, 500.0)]), Pressure(0.0))
        path = tmp_path / "s.csv"
        header = SessionHeader(1, store.DEFAULT_EPOCH, profile.name, 100.0)
        store.write_columns(header, np.zeros(1), np.zeros((1, 5)), path)
        assert store.read_columns(path)[0].profile_name == name


class TestStaticCurve:
    def test_datasheet_end_points(self):
        profile = builtin_profile("datasheet")
        assert static_resistance(profile, Pressure(200_000.0)).ohms == pytest.approx(150_000.0, rel=1e-9)
        assert static_resistance(profile, Pressure(750_000.0)).ohms == pytest.approx(200.0, rel=1e-9)

    def test_open_circuit_below_onset(self):
        profile = builtin_profile("datasheet")
        assert static_resistance(profile, Pressure(0.0)).is_open
        assert static_resistance(profile, Pressure(199_999.0)).is_open

    def test_log_linear_midpoint(self):
        profile = builtin_profile("datasheet")
        expected = math.exp((math.log(150_000.0) + math.log(200.0)) / 2.0)
        got = static_resistance(profile, Pressure(475_000.0)).ohms
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(5477.2255750516, rel=1e-9)

    def test_clamps_beyond_last_point(self):
        profile = builtin_profile("datasheet")
        assert static_resistance(profile, Pressure(2e6)).ohms == pytest.approx(200.0, rel=1e-12)

    def test_monotone_non_increasing(self):
        profile = builtin_profile("measured")
        rng = random.Random(42)
        for _ in range(500):
            p1 = rng.uniform(200_000.0, 800_000.0)
            p2 = rng.uniform(200_000.0, 800_000.0)
            lo, hi = sorted((p1, p2))
            r_lo = static_resistance(profile, Pressure(lo))
            r_hi = static_resistance(profile, Pressure(hi))
            assert r_lo.ohms >= r_hi.ohms or r_lo.is_open

    @pytest.mark.parametrize("profile", [builtin_profile("measured"), builtin_profile("datasheet"), builtin_profile("fsr")], ids=lambda p: p.name)
    def test_array_curve_equals_the_scalar_one(self, profile):
        onset = profile.onset_pressure.pascals
        edges = [0.0, onset, math.nextafter(onset, 0.0), profile.min_pressure_pa, profile.max_pressure_pa, 2e6]
        rng = random.Random(7)
        pascals = np.array(edges * 5 + [rng.uniform(0.0, 1e6) for _ in range(70)]).reshape(20, 5)
        got = static_ohms(profile, pascals)
        assert got.shape == (20, 5)
        assert got.tolist() == [[static_resistance(profile, Pressure(p)).ohms for p in row] for row in pascals.tolist()]
        assert static_ohms(profile, np.empty((0, 5))).shape == (0, 5)


class TestDynamics:
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("field", ["tau_load", "tau_recover", "hysteresis_halfwidth", "sample_period"])
    def test_refuses_a_field_that_is_not_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite and > 0, got {re.escape(repr(value))}$"):
            DynamicsConfig(**{field: value})

    # one row, a power of two and either side of it, and a long column
    @pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 1023, 1024, 1025, 100_000])
    @pytest.mark.parametrize("start", [-0.0, 0.0, 300_000.0], ids=["-0.0", "0.0", "loaded"])
    def test_the_play_scan_equals_play_update_sample_by_sample(self, n, start):
        halfwidth = DynamicsConfig().hysteresis_halfwidth
        rng = np.random.default_rng(n)
        # a walk that stays in the dead band and leaves it both ways, resting at
        # 0 Pa and at the halfwidth, whose lower bound is 0.0 against a -0.0 start
        applied = np.maximum(0.0, np.cumsum(rng.normal(0.0, halfwidth, (n, 5)), axis=0))
        applied[rng.random((n, 5)) < 0.1] = halfwidth
        got = _play_scan(start, applied, halfwidth)
        for column, played in zip(applied.T.tolist(), got.T):
            want = accumulate(column, lambda x, a: play_update(x, a, halfwidth), initial=start)
            assert played.tobytes() == np.array(list(want)[1:]).tobytes()

    def test_steady_state_after_long_dwell(self):
        profile = builtin_profile("datasheet")
        dyn = DynamicsConfig()
        state = SensorState.settled(Pressure(200_000.0), profile)
        applied = Pressure(600_000.0)
        state, resistance = step(state, applied, 100.0, profile, dyn)
        target = static_resistance(
            profile, Pressure(applied.pascals - dyn.hysteresis_halfwidth)
        )
        assert resistance.ohms == pytest.approx(target.ohms, rel=1e-12)

    def test_first_touch_snaps_from_open(self):
        # from rest the lag has no finite starting point; the first in-range
        # sample adopts the static value immediately
        profile = builtin_profile("measured")
        dyn = DynamicsConfig()
        state = SensorState.at_rest(0.0)
        state, resistance = step(state, Pressure(436_000.0), 0.001, profile, dyn)
        expected = static_resistance(profile, Pressure(436_000.0 - dyn.hysteresis_halfwidth))
        assert resistance.ohms == pytest.approx(expected.ohms, rel=1e-12)

    def test_release_below_onset_snaps_open(self):
        profile = builtin_profile("datasheet")
        dyn = DynamicsConfig(hysteresis_halfwidth=1e-9)
        state = SensorState.settled(Pressure(600_000.0), profile)
        state, resistance = step(state, Pressure(0.0), 0.01, profile, dyn)
        assert resistance.is_open

    def test_first_order_decay_matches_closed_form(self):
        # each update shrinks the log-space gap to target by exactly exp(-dt/tau)
        profile = builtin_profile("datasheet")
        dyn = DynamicsConfig(hysteresis_halfwidth=1e-9)
        state = SensorState.settled(Pressure(250_000.0), profile)
        applied = Pressure(700_000.0)
        target = static_resistance(profile, Pressure(applied.pascals - dyn.hysteresis_halfwidth))
        log_target = math.log(target.ohms)
        t = 0.0
        for _ in range(200):
            prev_gap = math.log(state.lagged_resistance.ohms) - log_target
            t += 0.003
            state, resistance = step(state, applied, t, profile, dyn)
            expected_gap = prev_gap * math.exp(-0.003 / dyn.tau_load)
            assert math.log(resistance.ohms) - log_target == pytest.approx(
                expected_gap, rel=1e-12, abs=1e-12
            )

    def test_recovery_uses_its_own_time_constant(self):
        profile = builtin_profile("datasheet")
        dyn = DynamicsConfig(hysteresis_halfwidth=1e-9)
        state = SensorState.settled(Pressure(700_000.0), profile)
        applied = Pressure(250_000.0)
        target = static_resistance(profile, Pressure(applied.pascals + dyn.hysteresis_halfwidth))
        start_gap = math.log(state.lagged_resistance.ohms) - math.log(target.ohms)
        state, resistance = step(state, applied, 0.05, profile, dyn)
        expected = math.log(target.ohms) + start_gap * math.exp(-0.05 / dyn.tau_recover)
        assert math.log(resistance.ohms) == pytest.approx(expected, rel=1e-12)

    def test_time_backwards_rejected(self):
        profile = builtin_profile("datasheet")
        state = SensorState.settled(Pressure(300_000.0), profile, timestamp=5.0)
        with pytest.raises(ValueError, match="backwards"):
            step(state, Pressure(300_000.0), 4.0, profile, DynamicsConfig())

    def test_determinism(self):
        profile = builtin_profile("measured")
        dyn = DynamicsConfig()

        def run():
            state = SensorState.at_rest(0.0)
            out = []
            for k in range(50):
                state, r = step(state, Pressure(400_000.0 + 1000.0 * k), 0.01 * (k + 1), profile, dyn)
                out.append(r.ohms)
            return out

        assert run() == run()

    def test_hysteresis_is_rate_independent(self):
        # the same pressure path sampled at 100 Hz and 10 kHz leaves the play
        # state identical at shared path points (the path's turning points lie
        # on the shared grid, so every inter-sample segment is monotone)
        profile = builtin_profile("datasheet")
        dyn = DynamicsConfig()

        def path(t):  # triangle wave, vertices at multiples of 0.5 s
            u = t % 1.0
            return 200_000.0 + 500_000.0 * (u if u <= 0.5 else 1.0 - u)

        def effectives(rate_hz):
            state = SensorState.settled(Pressure(path(0.0)), profile)
            out = {}
            for k in range(1, int(2.0 * rate_hz) + 1):
                t = k / rate_hz
                state, _ = step(state, Pressure(path(t)), t, profile, dyn)
                if (k * 100) % rate_hz == 0:  # on the shared 10 ms grid
                    out[round(t * 1000)] = state.effective_pressure.pascals
            return out

        slow = effectives(100)
        fast = effectives(10_000)
        assert set(slow) == set(fast) and len(slow) == 200
        for key in slow:
            assert slow[key] == pytest.approx(fast[key], rel=1e-9)


class TestCharacterize:
    def test_datasheet_figures(self):
        figures = characterize(builtin_profile("datasheet"))
        assert figures.resistance_at_min_ohm == pytest.approx(150_000.0, rel=1e-9)
        assert figures.resistance_at_max_ohm == pytest.approx(200.0, rel=1e-9)
        assert figures.pressure_min_pa == 200_000.0
        assert figures.pressure_max_pa == 750_000.0
        # end-point arithmetic: 550000 / 149800
        assert figures.sensitivity_pa_per_ohm == pytest.approx(3.6715620827770363, rel=1e-9)
        assert figures.sensitivity_ohm_per_pa == pytest.approx(149_800.0 / 550_000.0, rel=1e-9)
        assert not figures.matches_nominal_sensitivity
        assert abs(figures.response_time_s - 0.120) <= 0.005
        assert abs(figures.recovery_time_s - 0.100) <= 0.005
        assert figures.hysteresis_fraction <= 0.06 + 1e-9
        assert not hasattr(figures, "threshold_band_fraction")  # calibrate reads the analyzer's band

    def test_flat_profile_zero_sensitivity(self):
        profile = fit_profile("flat", _points([(1e5, 500.0), (2e5, 500.0)]), Pressure(0.0))
        figures = characterize(profile)
        assert figures.sensitivity_ohm_per_pa == 0.0
        assert math.isinf(figures.sensitivity_pa_per_ohm)


class TestFsrReference:
    def test_levels(self):
        profile = builtin_profile("fsr")
        assert static_resistance(profile, Pressure(428589.8)).ohms == pytest.approx(3_342_900.0, rel=1e-9)
        assert static_resistance(profile, Pressure(469052.1)).ohms == pytest.approx(123_811.11, rel=1e-9)
        assert static_resistance(profile, Pressure(450000.0)).ohms == pytest.approx(2_051_325.0, rel=1e-9)
        # no onset: an unloaded FSR still reads its idle resistance
        assert static_resistance(profile, Pressure(0.0)).ohms == pytest.approx(3_342_900.0, rel=1e-9)


class TestCalibrationCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cal.csv"
        points = _points(MEASURED_CALIBRATION)
        write_calibration_csv(path, points)
        assert read_calibration_csv(path) == points

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(CalibrationError, match="expected header"):
            read_calibration_csv(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pressure_pa,resistance_ohm\n100000,oops\n")
        with pytest.raises(CalibrationError, match=":2"):
            read_calibration_csv(path)


class TestWorkingRange:
    """A profile's working range runs from max(onset, first point) to the last
    point; fit_profile refuses a profile whose range is empty."""

    @pytest.mark.parametrize(
        "rows, onset, last",
        [
            ([(200_000.0, 150_000.0), (750_000.0, 200.0)], 750_000.0, 750_000.0),
            ([(200_000.0, 150_000.0), (750_000.0, 200.0)], 900_000.0, 750_000.0),
            ([(100_000.0, 150_000.0), (150_000.0, 20_000.0), (150_000.0, 10_000.0)], 200_000.0, 150_000.0),
        ],
        ids=["onset at the last point", "onset above it", "above the last merged point"],
    )
    def test_an_onset_at_or_above_the_last_pressure_is_rejected(self, rows, onset, last):
        message = f"onset {onset!r} Pa is not below the last calibration pressure, {last!r} Pa"
        with pytest.raises(CalibrationError, match=message):
            fit_profile("empty", _points(rows), Pressure(onset))

    def test_an_onset_below_the_last_pressure_fits(self):
        last = builtin_profile("datasheet").max_pressure_pa
        profile = fit_profile("narrow", _points(DATASHEET_RANGE), Pressure(last * (1 - 1e-8)))
        assert profile.onset_pressure.pascals < profile.max_pressure_pa
        figures = characterize(profile)
        assert round(figures.response_time_s * 1e3, 1) == 120.0 and round(figures.hysteresis_fraction, 4) == 0.06

    @pytest.mark.parametrize(
        "rows, onset, low",
        [
            (DATASHEET_RANGE, math.nextafter(750_000.0, 0.0), math.nextafter(750_000.0, 0.0)),
            (DATASHEET_RANGE, 750_000.0 - 1e-4, 750_000.0 - 1e-4),
            ([(750_000.0 - 1e-6, 300.0), (750_000.0, 200.0)], 0.0, 750_000.0 - 1e-6),
        ],
        ids=["onset one float step below the last point", "onset 0.1 mPa below it", "points 1 uPa apart"],
    )
    def test_a_working_range_of_a_few_float_steps_is_rejected(self, rows, onset, low):
        # characterize() on such a range printed 0.0 ms response and recovery and 0.00 % hysteresis
        message = f"working range {low!r} Pa to 750000.0 Pa is too narrow"
        with pytest.raises(CalibrationError, match=re.escape(message)):
            fit_profile("narrow", _points(rows), Pressure(onset))

    def test_the_datasheet_play_is_the_default_bit_for_bit(self):
        assert DynamicsConfig.for_profile(builtin_profile("datasheet")) == DynamicsConfig()

    @pytest.mark.parametrize(
        "onset, low",
        [(0.0, 200_000.0), (200_000.0, 200_000.0), (400_000.0, 400_000.0)],
        ids=["onset below the first point", "onset at it", "onset above it"],
    )
    def test_the_play_scales_with_the_working_range(self, onset, low):
        profile = fit_profile("p", _points(DATASHEET_RANGE), Pressure(onset))
        assert DynamicsConfig.for_profile(profile).hysteresis_halfwidth == 0.03 * (750_000.0 - low)
        figures = characterize(profile)
        assert figures.pressure_min_pa == onset and figures.pressure_max_pa == 750_000.0
        assert math.isfinite(figures.sensitivity_ohm_per_pa) and figures.sensitivity_ohm_per_pa > 0


class TestTimestamps:
    """A timestamp that is not finite is refused by step and run_channel alike."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("loaded", [False, True], ids=["at rest", "loaded"])
    def test_step_refuses_a_timestamp_that_is_not_finite(self, bad, loaded):
        profile = builtin_profile("measured")
        state = SensorState.settled(Pressure(500_000.0), profile) if loaded else SensorState.at_rest(0.0)
        applied = Pressure(520_000.0 if loaded else 0.0)
        with pytest.raises(ValueError, match=f"^timestamp must be finite, got {bad!r}$"):
            step(state, applied, bad, profile, DynamicsConfig())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_run_channel_refuses_a_timestamp_that_is_not_finite(self, bad, where):
        profile = builtin_profile("measured")
        times = [0.01, 0.02, 0.03]
        times[where] = bad
        for state in (SensorState.at_rest(0.0), SensorState.settled(Pressure(500_000.0), profile)):
            with pytest.raises(ValueError, match=f"^timestamp must be finite, got {bad!r}$"):
                run_channel(state, [0.0, 5e5, 6e5], times, profile, DynamicsConfig())
            with pytest.raises(ValueError, match=f"^timestamp must be finite, got {bad!r}$"):
                run_channel(state, np.full((3, 5), 5e5), times, profile, DynamicsConfig())

    def test_a_refused_timestamp_leaves_time_ordered(self):
        profile = builtin_profile("measured")
        state = SensorState.at_rest(0.0)
        with pytest.raises(ValueError):
            state, _ = step(state, Pressure(0.0), math.nan, profile, DynamicsConfig())
        with pytest.raises(ValueError, match="backwards"):
            step(state, Pressure(0.0), -5.0, profile, DynamicsConfig())


class TestStepBuilds:
    """One step builds exactly the objects it returns: one Pressure, one
    Resistance and one SensorState, whatever the sensor is doing."""

    def test_one_step_builds_one_of_each(self, monkeypatch):
        profile = builtin_profile("measured")
        dynamics = DynamicsConfig()
        states = [
            SensorState.at_rest(0.0),
            SensorState.settled(Pressure(500_000.0), profile),
            SensorState.settled(Pressure(700_000.0), profile),
        ]
        applied = [Pressure(0.0), Pressure(520_000.0), Pressure(450_000.0), Pressure(5e6)]
        built = {cls: [] for cls in (Pressure, Resistance, SensorState)}
        for cls, calls in built.items():
            init = cls.__init__
            monkeypatch.setattr(cls, "__init__", lambda self, *args, _init=init, _calls=calls: _calls.append(1) or _init(self, *args))
        for state in states:
            for pressure in applied:
                for calls in built.values():
                    calls.clear()
                after, resistance = step(state, pressure, 0.01, profile, dynamics)
                assert after.lagged_resistance is resistance
                assert {cls.__name__: len(calls) for cls, calls in built.items()} == {
                    "Pressure": 1, "Resistance": 1, "SensorState": 1
                }
