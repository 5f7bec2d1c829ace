import copy
import dataclasses
import importlib
import math
import pickle
import pkgutil
import tracemalloc
from dataclasses import FrozenInstanceError
from types import MappingProxyType

import numpy as np
import pytest
from helpers import counts_to_samples, receive

import solesense
from solesense.acquisition import (
    AdcCount,
    DividerConfig,
    _decode_tables,
    _decoded_samples,
    counts_to_sample,
    decode_table,
)
from solesense.analysis import ComparisonTable, ContactState, GaitEvent, GaitReport, analyze, compare_sensors
from solesense.sensor import (
    CalibrationPoint,
    CalibrationProfile,
    DynamicsConfig,
    SensorCharacterization,
    SensorState,
    builtin_profile,
    characterize,
)
from solesense.store import DEFAULT_EPOCH, LegacyRecord
from solesense.synth import GaitParams, PhaseRecord, ground_truth, synthesize
from solesense.telemetry import Collector, SessionHeader, TelemetryFrame, encode
from solesense.units import (
    CHANNEL_ORDER,
    REGION_CHANNELS,
    SENSOR_AREA_M2,
    SENSOR_SIDE_M,
    FootRegion,
    Force,
    Pressure,
    PressureSample,
    Resistance,
    SoleChannel,
    Voltage,
    force_from_mass,
    mass_table,
    pressure_from_force,
)

# Frozen conversion table: (mass kg, force N, pressure Pa) over the default
# 15x15 mm sensor face.
CONVERSION_TABLE = [
    (1, 9.81, 43_600.0),
    (2, 19.62, 87_200.0),
    (3, 29.43, 130_800.0),
    (4, 39.24, 174_400.0),
    (5, 49.05, 218_000.0),
    (6, 58.86, 261_600.0),
    (7, 68.67, 305_200.0),
    (8, 78.48, 348_800.0),
    (9, 88.29, 392_400.0),
    (10, 98.10, 436_000.0),
]


class TestConversions:
    def test_force_from_mass(self):
        assert force_from_mass(1.0).newtons == pytest.approx(9.81, abs=1e-12)
        assert force_from_mass(0.0).newtons == 0.0
        assert force_from_mass(10.0).newtons == pytest.approx(98.10, abs=1e-12)

    def test_pressure_from_force(self):
        assert pressure_from_force(Force(9.81)).pascals == pytest.approx(43_600.0, abs=1e-6)
        assert pressure_from_force(Force(98.10)).pascals == pytest.approx(436_000.0, abs=1e-6)
        assert pressure_from_force(Force(0.0)).pascals == 0.0

    @pytest.mark.parametrize("mass,force,pressure", CONVERSION_TABLE)
    def test_conversion_table_rows(self, mass, force, pressure):
        rows = mass_table([mass])
        assert rows[0][0].newtons == pytest.approx(force, abs=1e-9)
        # the reference table is rounded to 0.1 kPa
        assert abs(rows[0][1].pascals - pressure) <= 50.0

    def test_mass_table_order_and_empty(self):
        rows = mass_table(range(1, 11))
        assert [round(f.newtons, 2) for f, _ in rows] == [r[1] for r in CONVERSION_TABLE]
        assert mass_table([]) == []

    def test_fractional_mass(self):
        # 2.5 kg: 2.5 * 9.81 = 24.525 N; / 2.25e-4 m^2 = 109 kPa (hand arithmetic)
        ((force, pressure),) = mass_table([2.5])
        assert force.newtons == pytest.approx(24.525, abs=1e-12)
        assert pressure.pascals == pytest.approx(109_000.0, rel=1e-12)

    def test_linearity(self):
        base = pressure_from_force(Force(9.81)).pascals
        for a in (0.0, 0.5, 2.0, 7.25, 1e3):
            scaled = pressure_from_force(Force(a * 9.81)).pascals
            assert scaled == pytest.approx(a * base, rel=1e-12, abs=1e-12)

    def test_area_derivation(self):
        # the conversion table implies the default sensor face
        assert 9.81 / 43_600.0 == pytest.approx(SENSOR_AREA_M2, rel=1e-12)
        assert SENSOR_AREA_M2 == pytest.approx(2.25e-4, rel=1e-15)

    def test_errors(self):
        with pytest.raises(ValueError):
            force_from_mass(-1.0)
        with pytest.raises(ValueError):
            force_from_mass(math.nan)
        with pytest.raises(ValueError, match="index 2"):
            mass_table([1.0, 2.0, -3.0])


class TestDomainTypes:
    def test_pressure_invariants(self):
        with pytest.raises(ValueError):
            Pressure(-1.0)
        with pytest.raises(ValueError):
            Pressure(math.inf)
        assert Pressure(0.0) < Pressure(1.0)

    def test_resistance_invariants(self):
        with pytest.raises(ValueError):
            Resistance(0.0)
        with pytest.raises(ValueError):
            Resistance(-5.0)
        with pytest.raises(ValueError):
            Resistance(math.nan)
        open_r = Resistance.open_circuit()
        assert open_r.is_open
        assert not Resistance(150_000.0).is_open
        assert Resistance(1.0) < open_r

    def test_voltage_invariants(self):
        with pytest.raises(ValueError):
            Voltage(-0.1)
        assert Voltage(3.3).volts == 3.3

    def test_types_do_not_mix(self):
        with pytest.raises(TypeError):
            Pressure(1.0) + Resistance(1.0)
        with pytest.raises(TypeError):
            Pressure(1.0) < Force(1.0)

    def test_channel_layout(self):
        assert len(SoleChannel) == 5
        assert CHANNEL_ORDER == (
            SoleChannel.FOREFOOT,
            SoleChannel.MIDFOOT_MEDIAL,
            SoleChannel.MIDFOOT_CENTRAL,
            SoleChannel.MIDFOOT_LATERAL,
            SoleChannel.HEEL,
        )
        assert len(REGION_CHANNELS[FootRegion.MIDFOOT]) == 3
        assert REGION_CHANNELS[FootRegion.HEEL] == (SoleChannel.HEEL,)
        assert REGION_CHANNELS[FootRegion.FOREFOOT] == (SoleChannel.FOREFOOT,)

    def test_geometry(self):
        assert SENSOR_SIDE_M == 0.015
        assert SENSOR_AREA_M2 == SENSOR_SIDE_M**2

    def test_pressure_sample(self):
        sample = PressureSample.from_row(0.5, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert sample.as_row() == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert sample.value(SoleChannel.HEEL) == 5.0
        with pytest.raises(ValueError, match="missing"):
            PressureSample(0.0, {SoleChannel.HEEL: Pressure(1.0)})
        four = {c: Pressure(1.0) for c in CHANNEL_ORDER if c is not SoleChannel.MIDFOOT_LATERAL}
        with pytest.raises(ValueError, match=r"missing \['midfoot_lateral'\]"):
            PressureSample(0.0, four)
        with pytest.raises(ValueError):
            PressureSample.from_row(0.0, [1.0, 2.0])

    def test_pressure_sample_keeps_a_read_only_copy(self):
        channels = {c: Pressure(1.0) for c in CHANNEL_ORDER}
        sample = PressureSample(0.0, channels)
        channels[SoleChannel.HEEL] = Pressure(9.0)
        assert sample.value(SoleChannel.HEEL) == 1.0
        with pytest.raises(TypeError):
            sample.channels[SoleChannel.HEEL] = Pressure(2.0)
        extra = dict(sample.channels, heel=Pressure(1.0))  # a str key is no channel
        with pytest.raises(ValueError, match=r"missing \[\]"):
            PressureSample(0.0, extra)

    def test_decoded_samples_equal_the_public_constructors(self, monkeypatch):
        profile, divider = builtin_profile("measured"), DividerConfig()
        table = decode_table(profile, divider)
        counts = np.array([[4095, 3000, 3500, 3950, 100], [0, 1, 2, 3, 4], [3920, 3093, 3094, 3500, 2000]])
        times = np.array([0.0, 0.01, 0.02])
        inits = []
        init = PressureSample.__init__
        monkeypatch.setattr(PressureSample, "__init__", lambda self, *args: inits.append(1) or init(self, *args))
        decoded = counts_to_samples(times, counts, profile, divider)
        stamps, rows = times.tolist(), counts.tolist()
        decoded += [counts_to_sample(t, tuple(row), profile, divider) for t, row in zip(stamps, rows)]
        assert inits == []  # decoding builds each sample once, unchecked
        for sample, t, row in zip(decoded, stamps * 2, rows * 2):
            pascals = tuple(table[code] for code in row)
            # the public constructor, handed the channels in reverse order, and from_row
            public = PressureSample(t, {c: Pressure(p) for c, p in reversed(list(zip(CHANNEL_ORDER, pascals)))})
            for route in (sample, public, PressureSample.from_row(t, pascals)):
                assert route == sample and route == public
                assert route != PressureSample.from_row(t, (*pascals[:4], pascals[4] + 1.0))
                assert route != PressureSample.from_row(t + 1.0, pascals)
                assert route.as_row() == pascals
                assert [route.value(c) for c in CHANNEL_ORDER] == list(pascals)
                channels = route.channels
                assert isinstance(channels, MappingProxyType)
                assert list(channels) == list(CHANNEL_ORDER)
                assert [channels[c] for c in CHANNEL_ORDER] == [Pressure(p) for p in pascals]
                assert route.channels is channels  # built once, then kept
                with pytest.raises(TypeError):
                    channels[SoleChannel.HEEL] = Pressure(2.0)
                for name in ("timestamp", "channels", "_row"):
                    with pytest.raises(FrozenInstanceError):
                        setattr(route, name, None)
                with pytest.raises(TypeError):
                    hash(route)
                assert pickle.loads(pickle.dumps(route)) == route
                assert route.as_row() == pascals and route.timestamp == t
        assert len(inits) == len(decoded)  # the public constructor still checks each one

    def test_block_built_samples_equal_one_at_a_time(self):
        rows = [(0.0, 1.5, 2.0, 3.0, 4.0), (-0.0, 0.0, 0.0, 0.0, -0.0), (5e5, 0.0, 7.25, 0.0, 1e-300)]
        times = [0.0, 0.01, 1e9]
        built = PressureSample._of_rows(times, iter(rows))
        assert [type(s) for s in built] == [PressureSample] * 3
        for sample, t, row in zip(built, times, rows):
            one = PressureSample._of(t, row)
            assert sample == one and sample.timestamp == t and sample.as_row() is row
            # a -0.0 pressure is held as given, sign and all
            assert [math.copysign(1.0, p) for p in sample.as_row()] == [math.copysign(1.0, p) for p in row]
            assert repr(sample) == repr(one)
            for name in ("timestamp", "_row"):
                with pytest.raises(FrozenInstanceError):
                    setattr(sample, name, None)
            assert pickle.loads(pickle.dumps(sample)) == sample
        assert PressureSample._of_rows([], iter(())) == []
        objects = _decode_tables(builtin_profile("measured"), DividerConfig())[1]
        assert _decoded_samples(objects, [], np.empty((0, 5), np.uint16)) == []

    def test_held_decoded_samples_are_small(self):
        profile, divider = builtin_profile("measured"), DividerConfig()
        codes = np.random.default_rng(7).integers(0, len(decode_table(profile, divider)), size=(10_000, 5))
        times = np.arange(len(codes)) / 100.0
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            held = counts_to_samples(times, codes, profile, divider)
            per_sample = (tracemalloc.get_traced_memory()[0] - before) / len(held)
        finally:
            tracemalloc.stop()
        assert per_sample < 250  # a float row; the Pressure mapping took 385 B

    def test_held_samples_from_the_collector_share_the_table_and_are_small(self):
        profile, divider = builtin_profile("measured"), DividerConfig()
        table = decode_table(profile, divider)
        codes = np.random.default_rng(8).integers(0, len(table), size=(10_000, 5)).tolist()
        wire = b"".join(encode(TelemetryFrame(1, i, 10 * i, tuple(row))) for i, row in enumerate(codes))
        chunks = [wire[i : i + 4096] for i in range(0, len(wire), 4096)]  # full recv's: the array route
        held = []
        collector = Collector(lambda device_id, sample: held.append(sample), profile, divider)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            receive(collector, chunks)
            per_sample = (tracemalloc.get_traced_memory()[0] - before) / len(held)
        finally:
            tracemalloc.stop()
        assert len(held) == len(codes)
        # each row holds the table's own floats: decoding allocated none
        assert all(x is table[k] for sample, row in zip(held, codes) for x, k in zip(sample.as_row(), row))
        assert per_sample < 250  # building fresh floats would add 120 B

    def test_channel_keyed_dicts_and_sets(self):
        by_channel = {c: c.value for c in CHANNEL_ORDER}
        for channel in SoleChannel:
            # lookups by a member found again by value or by name
            assert by_channel[SoleChannel(channel.value)] == channel.value
            assert by_channel[SoleChannel[channel.name]] == channel.value
            assert hash(channel) == hash(SoleChannel(channel.value))
            assert copy.deepcopy(channel) is channel
            assert pickle.loads(pickle.dumps(channel)) is channel
        assert "heel" not in by_channel  # members are not their values
        assert pickle.loads(pickle.dumps(by_channel)) == by_channel
        assert list(by_channel) == list(CHANNEL_ORDER)  # dicts keep insertion order
        midfoot = set(REGION_CHANNELS[FootRegion.MIDFOOT])
        assert set(SoleChannel) - midfoot == {SoleChannel.FOREFOOT, SoleChannel.HEEL}
        assert frozenset(CHANNEL_ORDER) == set(SoleChannel)
        assert len({c: 0 for c in list(SoleChannel) * 2}) == 5


def _value_instances() -> dict[type, object]:
    """One instance of each frozen dataclass in solesense, GaitEvent aside."""
    profile = builtin_profile("measured")
    params = GaitParams(70.0, cycles=1)
    _, report = analyze(synthesize(params))
    return {
        Pressure: Pressure(1.0),
        Force: Force(2.0),
        Resistance: Resistance(3.0),
        Voltage: Voltage(1.5),
        DividerConfig: DividerConfig(),
        AdcCount: AdcCount(7),
        CalibrationPoint: profile.points[0],
        CalibrationProfile: profile,
        DynamicsConfig: DynamicsConfig(),
        SensorState: SensorState.at_rest(),
        SensorCharacterization: characterize(profile),
        GaitParams: params,
        PhaseRecord: ground_truth(params)[0],
        ContactState: ContactState(heel_on=True),
        GaitReport: report,
        ComparisonTable: compare_sensors([0.0, 1.0], [[0.0, 5e5], [5e5, 0.0]], [profile, profile]),
        TelemetryFrame: TelemetryFrame(1, 2, 3, (4, 5, 6, 7, 8)),
        SessionHeader: SessionHeader(1, DEFAULT_EPOCH, "measured", 100.0),
        LegacyRecord: LegacyRecord(0.0, 1.0, 2.0),
    }


class TestValueTypeSlots:
    def test_every_frozen_dataclass_but_gait_event_is_slotted(self):
        frozen = set()
        for module in pkgutil.iter_modules(solesense.__path__):
            for cls in vars(importlib.import_module(f"solesense.{module.name}")).values():
                if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen:
                    frozen.add(cls)
        instances = _value_instances()
        assert frozen == {*instances, GaitEvent}
        for cls, value in instances.items():
            assert "__slots__" in vars(cls), cls
            assert not hasattr(value, "__dict__"), cls
        assert "__slots__" not in vars(GaitEvent)  # its one-dict __init__ builds faster

    def test_values_round_trip_through_pickle_deepcopy_and_replace(self):
        for cls, value in _value_instances().items():
            for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), dataclasses.replace(value)):
                assert type(copied) is cls and copied == value, cls
                assert repr(copied) == repr(value), cls

    def test_the_divider_hashes_and_compares_on_its_four_fields(self):
        cfg = DividerConfig()
        assert hash(cfg) == hash((Voltage(3.3), Resistance(150_000.0), 12, Voltage(3.3)))
        assert cfg == DividerConfig(v_ref=Voltage(3.3)) and cfg != DividerConfig(adc_bits=10)
        assert repr(cfg) == (
            "DividerConfig(v_in=Voltage(volts=3.3), r1=Resistance(ohms=150000.0), adc_bits=12,"
            " v_ref=Voltage(volts=3.3))"
        )
        ten_bit = dataclasses.replace(cfg, adc_bits=10)
        assert ten_bit == DividerConfig(adc_bits=10)
        assert hash(ten_bit) == hash((Voltage(3.3), Resistance(150_000.0), 10, Voltage(3.3)))
        assert hash(ten_bit) != hash(cfg)
        with pytest.raises(FrozenInstanceError):
            cfg._hash = 0
