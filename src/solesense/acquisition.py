"""Electrical acquisition chain: voltage divider, ADC, and exact inversion.

The sensor is the variable element R2 of a divider fed from the supply rail,
with the output measured across the sensor:

    v_out = v_in * r2 / (r1 + r2)

so an unloaded (open-circuit) sensor reads full scale and a hard press reads
near zero. The downstream analyzer treats full scale as "no contact". The ADC
reference defaults to the 3.3 V logic rail of the acquisition board; the
wearable itself runs from a 3.7 V lithium cell, which powers the board but
does not set the ADC reference.

Each step has a per-sample form and an array form (``divider_out_ohms``,
``quantize_volts``, ``counts_from_pascals``, ``counts_to_pascals``). The
divider and the floor quantizer use only exactly-rounded operations, and the
static curve is ``sensor.static_ohms``, so both forms agree bit for bit.
Decoding indexes ``decode_table``, a tuple of bare pascals per (profile,
divider). Next to it the profile keeps two arrays of the same values. An
object-dtype array holds the same float objects: a block decoder
(``_decoded_samples``, which the collector uses on each received chunk)
indexes it once for a whole (n, 5) block of codes and gets the rows as
tuples of the table's own floats, so decoding allocates no float and a held
sample stays one small tuple. A float64 view of the table gives
``counts_to_pascals`` its (n, 5) pascals in one index, with no Python float
in between. ``count_to_pressure`` wraps a table entry in a Pressure at the
API boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sensor import CalibrationProfile, invert_static_ohms, static_ohms, static_resistance
from .units import CHANNEL_ORDER, Pressure, PressureSample, Resistance, Voltage


@dataclass(frozen=True, slots=True)
class DividerConfig:
    v_in: Voltage = Voltage(3.3)
    r1: Resistance = Resistance(150_000.0)
    adc_bits: int = 12
    v_ref: Voltage | None = None  # defaults to v_in
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.v_in.volts <= 0:
            raise ValueError(f"v_in must be > 0, got {self.v_in.volts!r}")
        if self.r1.is_open:
            raise ValueError("r1 must be finite")
        if not (type(self.adc_bits) is int and 1 <= self.adc_bits <= 24):
            raise ValueError(f"adc_bits must be an integer in [1, 24], got {self.adc_bits!r}")
        if self.v_ref is None:
            object.__setattr__(self, "v_ref", self.v_in)
        elif self.v_ref.volts <= 0:  # the ADC divides by its reference
            raise ValueError(f"v_ref must be > 0, got {self.v_ref.volts!r}")
        # hashed once: decode_table looks the divider up on every decoded sample
        object.__setattr__(self, "_hash", hash((self.v_in, self.r1, self.adc_bits, self.v_ref)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, order=True, slots=True)
class AdcCount:
    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"ADC count must be >= 0, got {self.value!r}")


def divider_out(r2: Resistance, cfg: DividerConfig = DividerConfig()) -> Voltage:
    """Divider output across the sensor; open circuit reads the full rail."""
    if r2.is_open:
        return Voltage(cfg.v_in.volts)
    return Voltage(cfg.v_in.volts * r2.ohms / (cfg.r1.ohms + r2.ohms))


def divider_out_ohms(ohms: np.ndarray, cfg: DividerConfig = DividerConfig()) -> np.ndarray:
    """divider_out on an array of bare ohms, inf (open circuit) reading the rail.

    The same exactly-rounded operations in the same order, so every element
    equals the scalar result bit for bit.
    """
    v_in = cfg.v_in.volts
    volts = np.empty(ohms.shape)
    volts.fill(v_in)  # an open sensor: inf / inf is never computed
    return np.divide(v_in * ohms, cfg.r1.ohms + ohms, out=volts, where=~np.isinf(ohms))


def invert_divider(v_out: Voltage, cfg: DividerConfig = DividerConfig()) -> Resistance:
    """Exact algebraic inverse of divider_out.

    v_out equal to the rail means open circuit; v_out of exactly zero is
    below any representable resistance and signals saturation.
    """
    v = v_out.volts
    if not 0.0 <= v <= cfg.v_in.volts:
        raise ValueError(f"v_out {v!r} outside [0, {cfg.v_in.volts}]")
    if v == cfg.v_in.volts:
        return Resistance.open_circuit()
    if v == 0.0:
        raise ValueError("v_out of 0 V is below the representable resistance range (saturated)")
    return Resistance(cfg.r1.ohms * v / (cfg.v_in.volts - v))


def divider_current(r2: Resistance, cfg: DividerConfig = DividerConfig()) -> float:
    """Supply current in amperes through one divider leg."""
    if r2.is_open:
        return 0.0
    return cfg.v_in.volts / (cfg.r1.ohms + r2.ohms)


def quantize(v: Voltage, cfg: DividerConfig = DividerConfig()) -> AdcCount:
    """Ideal ADC: floor quantizer clamped to the code range."""
    codes = 1 << cfg.adc_bits
    raw = math.floor(v.volts / cfg.v_ref.volts * codes)
    return AdcCount(min(max(raw, 0), codes - 1))


def quantize_volts(volts: np.ndarray, cfg: DividerConfig = DividerConfig()) -> np.ndarray:
    """quantize on an array of bare volts: integer codes, equal to the scalar ones."""
    codes = 1 << cfg.adc_bits
    return np.minimum(np.maximum(np.floor(volts / cfg.v_ref.volts * codes), 0), codes - 1).astype(np.int64)


def dequantize(count: AdcCount, cfg: DividerConfig = DividerConfig()) -> Voltage:
    """Mid-rise reconstruction: code center, halving worst-case bias."""
    codes = 1 << cfg.adc_bits
    if count.value >= codes:
        raise ValueError(f"count {count.value} out of range for {cfg.adc_bits}-bit ADC")
    return Voltage((count.value + 0.5) * cfg.v_ref.volts / codes)


def pressure_to_count(
    pressure: Pressure, profile: CalibrationProfile, cfg: DividerConfig = DividerConfig()
) -> AdcCount:
    """Forward chain pressure -> resistance -> voltage -> code."""
    return quantize(divider_out(static_resistance(profile, pressure), cfg), cfg)


def decode_table(profile: CalibrationProfile, cfg: DividerConfig = DividerConfig()) -> tuple[float, ...]:
    """Pascals of every code the divider reads, as bare floats: dequantize,
    invert_divider and invert_static_ohms on all codes at once, 0 Pa at or
    above idle resistance.

    Built once per divider and kept on the profile. Codes above the rail (only
    when v_ref > v_in) end the table.
    """
    return _decode_tables(profile, cfg)[0]


def _decode_tables(
    profile: CalibrationProfile, cfg: DividerConfig
) -> tuple[tuple[float, ...], np.ndarray, np.ndarray]:
    """decode_table, an object-dtype array holding the same float objects, and
    a float64 array of the same values."""
    tables = profile._decode_tables.get(cfg)
    if tables is None:
        codes = 1 << cfg.adc_bits
        volts = (np.arange(codes) + 0.5) * cfg.v_ref.volts / codes
        volts = volts[volts <= cfg.v_in.volts]
        with np.errstate(divide="ignore"):  # the rail itself is an open circuit
            ohms = cfg.r1.ohms * volts / (cfg.v_in.volts - volts)
        idle = ohms >= profile.idle_resistance_ohm
        table = tuple(np.where(idle, 0.0, invert_static_ohms(profile, ohms)).tolist())
        tables = profile._decode_tables[cfg] = (table, np.array(table, dtype=object), np.array(table))
    return tables


def _decoded(table: tuple[float, ...], code: int) -> float:
    if 0 <= code < len(table):
        return table[code]
    raise ValueError(f"count {code} is outside the {len(table)} codes this divider reads")


def count_to_pressure(
    count: AdcCount, profile: CalibrationProfile, cfg: DividerConfig = DividerConfig()
) -> Pressure:
    """Inverse chain code -> voltage -> resistance -> pressure, read from decode_table.

    Codes at or above the profile's idle resistance read 0 Pa (no contact).
    """
    return Pressure(_decoded(decode_table(profile, cfg), count.value))


def _decoded_samples(objects: np.ndarray, timestamps: list[float], codes: np.ndarray) -> list[PressureSample]:
    """counts_to_sample of each row of an (n, 5) block of codes, as a list
    built whole: ``objects`` (from _decode_tables) is indexed once, each row
    is a tuple of the table's own floats, and PressureSample._of_rows makes
    the samples with no Python call per row. A code outside the table is
    clipped to its ends, for a caller that drops that row's sample."""
    return PressureSample._of_rows(timestamps, zip(*objects.take(codes, mode="clip").T.tolist()))


def counts_from_pascals(
    pascals: np.ndarray, profile: CalibrationProfile, cfg: DividerConfig = DividerConfig()
) -> np.ndarray:
    """pressure_to_count on an (n, 5) block of bare pascals, channels in
    canonical order: (n, 5) integer codes.

    static_ohms, divider_out_ohms, then quantize_volts: every code equals
    pressure_to_count's.
    """
    return quantize_volts(divider_out_ohms(static_ohms(profile, pascals), cfg), cfg)


def counts_to_sample(
    timestamp: float,
    counts: tuple[int, ...],
    profile: CalibrationProfile,
    cfg: DividerConfig = DividerConfig(),
) -> PressureSample:
    """Decode five raw codes back into a pressure sample."""
    if len(counts) != len(CHANNEL_ORDER):
        raise ValueError(f"expected {len(CHANNEL_ORDER)} counts, got {len(counts)}")
    table = decode_table(profile, cfg)
    if not 0 <= min(counts) <= max(counts) < len(table):
        for raw in counts:
            _decoded(table, raw)  # raises for the first code outside the table
    return PressureSample._of(timestamp, tuple(map(table.__getitem__, counts)))  # a float row, no Pressure built


def _checked_tables(
    counts: np.ndarray, profile: CalibrationProfile, cfg: DividerConfig
) -> tuple[tuple[float, ...], np.ndarray, np.ndarray]:
    """_decode_tables, after counts_to_sample's range check on an (n, 5) block."""
    if counts.ndim != 2 or counts.shape[1] != len(CHANNEL_ORDER):
        raise ValueError(f"expected an (n, {len(CHANNEL_ORDER)}) block of counts, got shape {counts.shape}")
    tables = _decode_tables(profile, cfg)
    table = tables[0]
    outside = (counts < 0) | (counts >= len(table))
    if outside.any():
        _decoded(table, int(counts[outside][0]))
    return tables


def counts_to_pascals(
    counts: np.ndarray, profile: CalibrationProfile, cfg: DividerConfig = DividerConfig()
) -> np.ndarray:
    """counts_to_sample on an (n, 5) block of codes, as an (n, 5) float
    array of pascals with no sample built: the float64 decode table indexed
    once. A code outside the table raises its ValueError for the first in
    sample order."""
    return _checked_tables(counts, profile, cfg)[2][counts]
