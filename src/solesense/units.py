"""Semantic value types, the fixed sole layout, and force/pressure mechanics.

Every quantity the rest of the package passes around is wrapped in a small
frozen dataclass so that pascals, newtons, ohms and volts cannot be mixed by
accident. Arithmetic across quantities only happens through named operations.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

GRAVITY_M_S2 = 9.81


def _require_finite_nonnegative(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True, order=True)
class Pressure:
    """Pressure in pascals; non-negative and finite."""

    pascals: float

    def __post_init__(self) -> None:
        _require_finite_nonnegative("pressure", self.pascals)


@dataclass(frozen=True, order=True)
class Force:
    """Force in newtons; non-negative and finite."""

    newtons: float

    def __post_init__(self) -> None:
        _require_finite_nonnegative("force", self.newtons)


@dataclass(frozen=True, order=True)
class Resistance:
    """Electrical resistance in ohms.

    A finite value must be strictly positive. The unloaded sensor is an open
    circuit, a distinguished state represented here as infinite ohms; it is
    never serialized as a giant finite value downstream.
    """

    ohms: float

    def __post_init__(self) -> None:
        if math.isnan(self.ohms) or self.ohms <= 0:
            raise ValueError(f"resistance must be positive or open, got {self.ohms!r}")

    @classmethod
    def open_circuit(cls) -> "Resistance":
        return cls(math.inf)

    @property
    def is_open(self) -> bool:
        return math.isinf(self.ohms)


@dataclass(frozen=True, order=True)
class Voltage:
    """Voltage in volts, >= 0. Upper bounds are enforced by the owning circuit."""

    volts: float

    def __post_init__(self) -> None:
        _require_finite_nonnegative("voltage", self.volts)


class SoleChannel(Enum):
    """The five sensor positions, in canonical wire/report order."""

    FOREFOOT = "forefoot"
    MIDFOOT_MEDIAL = "midfoot_medial"
    MIDFOOT_CENTRAL = "midfoot_central"
    MIDFOOT_LATERAL = "midfoot_lateral"
    HEEL = "heel"

    # Members are singletons compared by identity, so identity hashing is
    # consistent with equality; Enum's own __hash__ is Python code that would
    # run on every channel-keyed dict lookup.
    __hash__ = object.__hash__


CHANNEL_ORDER: tuple[SoleChannel, ...] = tuple(SoleChannel)
_CHANNEL_SET = frozenset(SoleChannel)
_IN_CHANNEL_ORDER = operator.itemgetter(*CHANNEL_ORDER)
_PASCALS = operator.attrgetter("pascals")


class FootRegion(Enum):
    FOREFOOT = "forefoot"
    MIDFOOT = "midfoot"
    HEEL = "heel"

    __hash__ = object.__hash__  # identity hashing, as in SoleChannel


REGION_CHANNELS: Mapping[FootRegion, tuple[SoleChannel, ...]] = MappingProxyType(
    {
        FootRegion.FOREFOOT: (SoleChannel.FOREFOOT,),
        FootRegion.MIDFOOT: (
            SoleChannel.MIDFOOT_MEDIAL,
            SoleChannel.MIDFOOT_CENTRAL,
            SoleChannel.MIDFOOT_LATERAL,
        ),
        FootRegion.HEEL: (SoleChannel.HEEL,),
    }
)


class GaitPhase(Enum):
    """The six phases of one gait cycle, in cyclic order."""

    INITIAL_CONTACT = "initial_contact"
    LOADING_RESPONSE = "loading_response"
    MID_STANCE = "mid_stance"
    TERMINAL_STANCE = "terminal_stance"
    PRE_SWING = "pre_swing"
    SWING = "swing"

    __hash__ = object.__hash__  # identity hashing, as in SoleChannel


@dataclass(frozen=True)
class SensorGeometry:
    """Active sensing face of one sensor. Defaults match the fabricated device."""

    side_length_m: float = 0.015
    thickness_m: float = 0.00125

    def __post_init__(self) -> None:
        if not (math.isfinite(self.side_length_m) and self.side_length_m > 0):
            raise ValueError(f"side length must be > 0, got {self.side_length_m!r}")
        if not (math.isfinite(self.thickness_m) and self.thickness_m > 0):
            raise ValueError(f"thickness must be > 0, got {self.thickness_m!r}")

    @property
    def area_m2(self) -> float:
        return self.side_length_m * self.side_length_m


DEFAULT_GEOMETRY = SensorGeometry()


@dataclass(frozen=True)
class PressureSample:
    """One timestamped reading of all five channels, in pascals."""

    timestamp: float
    channels: Mapping[SoleChannel, Pressure]

    def __post_init__(self) -> None:
        channels = dict(self.channels)
        if channels.keys() != _CHANNEL_SET:
            missing = sorted(c.value for c in _CHANNEL_SET - channels.keys())
            raise ValueError(f"sample must carry all five channels, missing {missing}")
        object.__setattr__(self, "channels", MappingProxyType(channels))

    @classmethod
    def _of(cls, timestamp: float, channels: dict[SoleChannel, Pressure]) -> "PressureSample":
        """A sample wrapping ``channels`` unchecked and uncopied, for decoders: the
        caller hands over a fresh dict that nothing else holds, keyed by every
        channel in CHANNEL_ORDER order, of Pressures (validated when built)."""
        sample = object.__new__(cls)
        object.__setattr__(sample, "timestamp", timestamp)
        object.__setattr__(sample, "channels", MappingProxyType(channels))
        return sample

    def value(self, channel: SoleChannel) -> float:
        return self.channels[channel].pascals

    def as_row(self) -> tuple[float, ...]:
        """Channel pressures in canonical order."""
        return tuple(map(_PASCALS, _IN_CHANNEL_ORDER(self.channels)))

    @classmethod
    def from_row(cls, timestamp: float, values: Iterable[float]) -> "PressureSample":
        vals = tuple(float(v) for v in values)
        if len(vals) != len(CHANNEL_ORDER):
            raise ValueError(f"expected {len(CHANNEL_ORDER)} channel values, got {len(vals)}")
        return cls(float(timestamp), {c: Pressure(v) for c, v in zip(CHANNEL_ORDER, vals)})


def samples_to_columns(samples: Iterable[PressureSample]) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and (n, 5) canonical-order pressures in pascals."""
    samples = list(samples)
    n, width = len(samples), len(CHANNEL_ORDER)
    times = np.fromiter((s.timestamp for s in samples), dtype=float, count=n)
    values = (v for s in samples for v in s.as_row())
    return times, np.fromiter(values, dtype=float, count=n * width).reshape(n, width)


def force_from_mass(mass_kg: float) -> Force:
    """Weight of a mass under standard gravity (fixed at 9.81 m/s^2)."""
    if not math.isfinite(mass_kg) or mass_kg < 0:
        raise ValueError(f"mass must be finite and >= 0, got {mass_kg!r}")
    return Force(mass_kg * GRAVITY_M_S2)


def pressure_from_force(force: Force, geometry: SensorGeometry = DEFAULT_GEOMETRY) -> Pressure:
    """Pressure exerted by a force applied evenly over the sensor face."""
    area = geometry.area_m2
    if area <= 0:
        raise ValueError("geometry area must be > 0")
    return Pressure(force.newtons / area)


def mass_table(
    masses_kg: Iterable[float], geometry: SensorGeometry = DEFAULT_GEOMETRY
) -> list[tuple[Force, Pressure]]:
    """Element-wise mass -> (force, pressure) conversion, preserving order."""
    rows = []
    for index, mass in enumerate(masses_kg):
        try:
            force = force_from_mass(mass)
            rows.append((force, pressure_from_force(force, geometry)))
        except ValueError as exc:
            raise ValueError(f"mass at index {index}: {exc}") from exc
    return rows
