import math
import random

import numpy as np
import pytest
from helpers import counts_to_samples

from solesense.acquisition import (
    AdcCount,
    DividerConfig,
    count_to_pressure,
    counts_from_pascals,
    counts_to_sample,
    decode_table,
    dequantize,
    divider_current,
    divider_out,
    divider_out_ohms,
    invert_divider,
    pressure_to_count,
    quantize,
    quantize_volts,
)
from solesense.sensor import (
    CalibrationPoint,
    builtin_profile,
    builtin_profile_names,
    fit_profile,
    invert_static_ohms,
    static_resistance,
)
from solesense.units import Pressure, PressureSample, Resistance, Voltage

CFG = DividerConfig()
FULL_SCALE = (1 << CFG.adc_bits) - 1  # the top code


class TestDivider:
    def test_equal_resistances_halve_the_rail(self):
        assert divider_out(Resistance(150_000.0), CFG).volts == pytest.approx(1.65, rel=1e-12)

    def test_full_load(self):
        expected = 3.3 * 200.0 / 150_200.0
        assert divider_out(Resistance(200.0), CFG).volts == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.004394, abs=5e-7)

    def test_open_circuit_reads_rail(self):
        assert divider_out(Resistance.open_circuit(), CFG).volts == 3.3

    def test_output_strictly_increasing_and_bounded(self):
        rng = random.Random(7)
        previous = 0.0
        for ohms in sorted(rng.uniform(1.0, 1e7) for _ in range(200)):
            v = divider_out(Resistance(ohms), CFG).volts
            assert 0.0 < v < CFG.v_in.volts
            assert v > previous
            previous = v

    def test_invert_named_cases(self):
        assert invert_divider(Voltage(1.65), CFG).ohms == pytest.approx(150_000.0, rel=1e-12)
        assert invert_divider(Voltage(3.3), CFG).is_open
        for ohms in (200.0, 29_162.12, 3_342_900.0):
            back = invert_divider(divider_out(Resistance(ohms), CFG), CFG)
            assert back.ohms == pytest.approx(ohms, rel=1e-9)

    def test_invert_errors(self):
        with pytest.raises(ValueError, match="outside"):
            invert_divider(Voltage(3.31), CFG)
        with pytest.raises(ValueError, match="saturated"):
            invert_divider(Voltage(0.0), CFG)

    def test_roundtrip_random(self):
        rng = random.Random(123)
        for _ in range(2000):
            ohms = math.exp(rng.uniform(math.log(200.0), math.log(3.4e6)))
            back = invert_divider(divider_out(Resistance(ohms), CFG), CFG)
            assert back.ohms == pytest.approx(ohms, rel=1e-9)

    def test_current_budget(self):
        # worst case is a dead-short sensor: v_in / r1 = 22 uA
        assert divider_current(Resistance(1e-9), CFG) <= 3.3 / 150_000.0 + 1e-18
        assert divider_current(Resistance(200.0), CFG) < 1e-3
        assert divider_current(Resistance.open_circuit(), CFG) == 0.0


class TestAdc:
    def test_quantize_points(self):
        assert quantize(Voltage(0.0), CFG).value == 0
        assert quantize(Voltage(1.65), CFG).value == 2048
        assert quantize(Voltage(3.3), CFG).value == 4095  # clamped full scale

    def test_dequantize_points(self):
        assert dequantize(AdcCount(0), CFG).volts == pytest.approx(0.000402832, abs=1e-9)
        assert dequantize(AdcCount(4095), CFG).volts == pytest.approx(3.299597, abs=1e-6)

    def test_roundtrip_every_code(self):
        for code in range(4096):
            assert quantize(dequantize(AdcCount(code), CFG), CFG).value == code

    def test_quantization_error_bound(self):
        lsb = 3.3 / 4096
        rng = random.Random(5)
        for _ in range(500):
            v = rng.uniform(0.0, 3.3)
            back = dequantize(quantize(Voltage(v), CFG), CFG).volts
            assert abs(back - v) <= lsb  # half-LSB plus the full-scale clamp

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DividerConfig(adc_bits=0)
        with pytest.raises(ValueError):
            DividerConfig(adc_bits=32)
        for bits in (12.5, 12.0, True):  # a float shifts no bits; True would read as a 1-bit ADC
            with pytest.raises(ValueError, match="adc_bits must be an integer"):
                DividerConfig(adc_bits=bits)
        with pytest.raises(ValueError):
            DividerConfig(r1=Resistance.open_circuit())
        with pytest.raises(ValueError, match="v_ref must be > 0"):  # the ADC divides by its reference
            DividerConfig(v_ref=Voltage(0.0))


class TestPressureChain:
    def test_counts_monotone_in_pressure(self):
        profile = builtin_profile("datasheet")
        pressures = [200_000.0 + k * 5_000.0 for k in range(111)]
        counts = [pressure_to_count(Pressure(p), profile, CFG).value for p in pressures]
        # resistance falls with pressure, so on this topology counts fall too
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_datasheet_full_load_code(self):
        assert pressure_to_count(Pressure(750_000.0), builtin_profile("datasheet"), CFG).value == 5

    def test_no_touch_reads_full_scale(self):
        profile = builtin_profile("datasheet")
        count = pressure_to_count(Pressure(0.0), profile, CFG)
        assert count.value == FULL_SCALE
        assert count_to_pressure(count, profile, CFG).pascals == 0.0

    def test_roundtrip_within_one_step_equivalent(self):
        profile = builtin_profile("measured")
        rng = random.Random(99)
        for _ in range(1000):
            p = rng.uniform(profile.onset_pressure.pascals, profile.max_pressure_pa)
            code = pressure_to_count(Pressure(p), profile, CFG)
            back = count_to_pressure(code, profile, CFG).pascals
            lo = count_to_pressure(AdcCount(max(code.value - 1, 0)), profile, CFG).pascals
            hi = count_to_pressure(
                AdcCount(min(code.value + 1, FULL_SCALE)), profile, CFG
            ).pascals
            bound = max(abs(hi - lo), abs(hi - back), abs(lo - back), 1e-6)
            assert abs(back - p) <= bound

    def test_sample_helpers_roundtrip(self):
        profile = builtin_profile("measured")
        sample = PressureSample.from_row(1.25, [0.0, 450_000.0, 500_000.0, 600_000.0, 700_000.0])
        counts = tuple(counts_from_pascals([sample.as_row()], profile, CFG)[0].tolist())
        assert len(counts) == 5
        decoded = counts_to_sample(1.25, counts, profile, CFG)
        # decode(encode(decode(encode(x)))) is a fixed point of the chain
        counts2 = tuple(counts_from_pascals([decoded.as_row()], profile, CFG)[0].tolist())
        assert counts == counts2
        assert counts_to_sample(1.25, counts2, profile, CFG).as_row() == decoded.as_row()


def _bisect_pressure(profile, ohms):
    """Reference inverse of the static curve: bisect static_resistance."""
    if ohms >= profile.idle_resistance_ohm:
        return profile.min_pressure_pa
    if ohms <= profile.points[-1].resistance_ohm:
        return profile.max_pressure_pa
    lo, hi = profile.min_pressure_pa, profile.max_pressure_pa
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if static_resistance(profile, Pressure(mid)).ohms > ohms:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _reference_decode(code, profile):
    ohms = invert_divider(dequantize(AdcCount(code), CFG), CFG).ohms
    return 0.0 if ohms >= profile.idle_resistance_ohm else _bisect_pressure(profile, ohms)


# exp(ln 25 kOhm) is exactly 25 kOhm, so the forward curve reads this value
# exactly along the flat stretch
FLAT_OHMS = 25_000.0


def _flat_profile():
    rows = [(100e3, 80e3), (200e3, FLAT_OHMS), (300e3, FLAT_OHMS), (400e3, 4e3)]
    return fit_profile("flat", [CalibrationPoint(p, r) for p, r in rows], Pressure(50e3))


class TestDecodeTable:
    @pytest.mark.parametrize("name", [*builtin_profile_names(), "flat"])
    def test_matches_bisection_on_every_code(self, name):
        profile = _flat_profile() if name == "flat" else builtin_profile(name)
        got = decode_table(profile, CFG)
        want = [_reference_decode(code, profile) for code in range(1 << CFG.adc_bits)]
        assert len(got) == len(want)
        far = [k for k, (g, w) in enumerate(zip(got, want)) if not math.isclose(g, w, rel_tol=1e-12)]
        assert far == []
        top = profile.max_pressure_pa
        for end in (0.0, top):
            assert [g == end for g in got] == [w == end for w in want]

    def test_flat_stretch_reads_its_lower_pressure(self):
        profile = _flat_profile()
        assert static_resistance(profile, Pressure(250e3)).ohms == FLAT_OHMS
        assert float(invert_static_ohms(profile, FLAT_OHMS)) == 200e3
        assert _bisect_pressure(profile, FLAT_OHMS) == pytest.approx(200e3, rel=1e-12)

    def test_invert_static_end_clamps(self):
        profile = builtin_profile("measured")
        idle = profile.idle_resistance_ohm
        last = profile.points[-1].resistance_ohm
        for ohms in (math.inf, 2.0 * idle, idle):
            assert float(invert_static_ohms(profile, ohms)) == profile.min_pressure_pa
        for ohms in (last, 0.5 * last):
            assert float(invert_static_ohms(profile, ohms)) == profile.max_pressure_pa
        # a flat last stretch still clamps to the last pressure
        rows = [(100e3, 80e3), (200e3, FLAT_OHMS), (300e3, FLAT_OHMS)]
        flat_end = fit_profile("flat-end", [CalibrationPoint(p, r) for p, r in rows], Pressure(50e3))
        assert float(invert_static_ohms(flat_end, FLAT_OHMS)) == 300e3

    def test_built_once_per_divider_and_shared(self):
        profile = builtin_profile("measured")
        table = decode_table(profile, CFG)
        assert decode_table(profile, DividerConfig()) is table
        assert decode_table(profile, DividerConfig(adc_bits=10)) is not table
        assert table[FULL_SCALE] == table[FULL_SCALE - 1] == 0.0  # both idle
        assert all(type(p) is float for p in table)  # bare pascals; no Pressure is built
        assert count_to_pressure(AdcCount(1234), profile, CFG) == Pressure(table[1234])

    def test_builtin_profiles_are_shared(self):
        for name in builtin_profile_names():
            profile = builtin_profile(name)
            assert builtin_profile(name) is profile

    def test_equal_dividers_hash_alike_and_share_one_table(self):
        profile = builtin_profile("measured")
        a = DividerConfig(v_in=Voltage(3.3), r1=Resistance(150_000.0), adc_bits=12)
        b = DividerConfig(v_ref=Voltage(3.3))
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(CFG)
        assert decode_table(profile, a) is decode_table(profile, b)
        other = DividerConfig(r1=Resistance(100_000.0))
        assert other != a
        assert decode_table(profile, other) is not decode_table(profile, a)

    def test_codes_the_divider_cannot_read_raise_value_error(self):
        profile = builtin_profile("measured")
        with pytest.raises(ValueError):
            count_to_pressure(AdcCount(1 << CFG.adc_bits), profile, CFG)
        for bad in (1 << CFG.adc_bits, 0xFFFF, -1):
            with pytest.raises(ValueError):
                counts_to_sample(0.0, (4095, 4095, bad, 4095, 4095), profile, CFG)
        # a reference above the rail: codes past v_in have no resistance
        high_ref = DividerConfig(v_ref=Voltage(3.6))
        readable = len(decode_table(profile, high_ref))
        assert dequantize(AdcCount(readable - 1), high_ref).volts <= 3.3
        assert dequantize(AdcCount(readable), high_ref).volts > 3.3
        with pytest.raises(ValueError):
            count_to_pressure(AdcCount(readable), profile, high_ref)


class TestColumns:
    """The array forms equal the per-sample functions exactly."""

    @pytest.mark.parametrize(
        "cfg", [CFG, DividerConfig(adc_bits=8), DividerConfig(v_ref=Voltage(3.0))], ids=str
    )
    def test_divider_and_quantizer_match_scalar(self, cfg):
        rng = np.random.default_rng(3)
        ohms = np.concatenate([10.0 ** rng.uniform(0.0, 8.0, (400, 5)), np.full((2, 5), math.inf)])
        volts = divider_out_ohms(ohms, cfg)
        codes = quantize_volts(volts, cfg)
        for r, v, code in zip(ohms.ravel().tolist(), volts.ravel().tolist(), codes.ravel().tolist()):
            assert divider_out(Resistance(r), cfg).volts == v
            assert quantize(Voltage(v), cfg).value == code

    def test_counts_to_samples_matches_counts_to_sample(self):
        profile = builtin_profile("measured")
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 1 << CFG.adc_bits, (300, 5))
        times = np.arange(300) / 100.0
        got = counts_to_samples(times, counts, profile, CFG)
        want = [counts_to_sample(t, tuple(row), profile, CFG) for t, row in zip(times.tolist(), counts.tolist())]
        assert got == want

    def test_counts_to_samples_names_the_first_bad_code(self):
        profile = builtin_profile("measured")
        counts = np.full((6, 5), 4095)
        counts[3, 4] = 5000
        counts[5, 0] = -1
        with pytest.raises(ValueError, match="count 5000 is outside"):
            counts_to_samples(np.arange(6.0), counts, profile, CFG)
        counts[3, 4] = 4095
        with pytest.raises(ValueError, match="count -1 is outside"):
            counts_to_samples(np.arange(6.0), counts, profile, CFG)
        with pytest.raises(ValueError, match="block"):
            counts_to_samples(np.arange(6.0), counts[:, :4], profile, CFG)

    @pytest.mark.parametrize("name", builtin_profile_names())
    def test_counts_from_pascals_matches_pressure_to_count(self, name):
        profile = builtin_profile(name)
        onset, last = profile.onset_pressure.pascals, profile.max_pressure_pa
        rng = np.random.default_rng(5)
        pascals = rng.uniform(0.0, 1.2 * last, (10_000, 5))
        pascals[0] = [0.0, onset, np.nextafter(onset, 0.0), last, 1.2 * last]
        codes = counts_from_pascals(pascals, profile, CFG)
        assert codes.shape == pascals.shape
        want = [pressure_to_count(Pressure(p), profile, CFG).value for p in pascals.ravel().tolist()]
        assert codes.ravel().tolist() == want


class TestRefusedInputs:
    def test_a_supply_of_no_volts_is_refused(self):
        # Voltage itself refuses a negative value
        with pytest.raises(ValueError, match="v_in must be > 0, got 0.0"):
            DividerConfig(v_in=Voltage(0.0))

    def test_a_negative_count_is_refused(self):
        with pytest.raises(ValueError, match="ADC count must be >= 0, got -1"):
            AdcCount(-1)

    def test_a_count_past_the_top_code_does_not_dequantize(self):
        with pytest.raises(ValueError, match="count 4096 out of range for 12-bit ADC"):
            dequantize(AdcCount(FULL_SCALE + 1), CFG)

    def test_four_counts_make_no_sample(self):
        with pytest.raises(ValueError, match="expected 5 counts, got 4"):
            counts_to_sample(0.0, (0, 0, 0, 0), builtin_profile("measured"), CFG)
