"""Semantic value types, the fixed sole layout, and force/pressure mechanics.

Every quantity the rest of the package passes around is wrapped in a small
frozen, slotted dataclass so that pascals, newtons, ohms and volts cannot be
mixed by accident; a value holds its one float in a slot, with no instance
dict. Arithmetic across quantities only happens through named operations.
A PressureSample is the exception inside: it holds a float row (a timestamp
and five pascals in canonical channel order), and a decoded one builds its
typed Pressures only when a caller reads ``channels``. A decoder builds a
whole block of samples at once (``PressureSample._of_rows``), with no Python
call per sample.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from dataclasses import FrozenInstanceError, dataclass
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


@dataclass(frozen=True, order=True, slots=True)
class Pressure:
    """Pressure in pascals; non-negative and finite."""

    pascals: float

    def __post_init__(self) -> None:
        _require_finite_nonnegative("pressure", self.pascals)


@dataclass(frozen=True, order=True, slots=True)
class Force:
    """Force in newtons; non-negative and finite."""

    newtons: float

    def __post_init__(self) -> None:
        _require_finite_nonnegative("force", self.newtons)


@dataclass(frozen=True, order=True, slots=True)
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


@dataclass(frozen=True, order=True, slots=True)
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
_CHANNEL_INDEX = {c: i for i, c in enumerate(CHANNEL_ORDER)}
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


# The active sensing face of each sensor of the fabricated device: 15 x 15 mm.
SENSOR_SIDE_M = 0.015
SENSOR_AREA_M2 = SENSOR_SIDE_M * SENSOR_SIDE_M


_new = object.__new__
_set = object.__setattr__  # PressureSample's own __setattr__ refuses


class PressureSample:
    """One timestamped reading of all five channels, in pascals.

    A sample is a float row: it holds its timestamp and the five pressures in
    canonical channel order. ``channels``, the read-only mapping of Pressures
    in canonical order, is kept from the public constructor, or else built on
    its first access and kept. Like the frozen dataclass it replaces, a sample
    is immutable, compares by value and cannot be hashed.
    """

    # no __getattr__ for the lazy mapping: defining one keeps CPython from
    # specializing every attribute read of a sample, made per received frame
    __slots__ = ("timestamp", "_row", "_channels")

    def __init__(self, timestamp: float, channels: Mapping[SoleChannel, Pressure]) -> None:
        try:
            pressures = _IN_CHANNEL_ORDER(channels)
        except KeyError:
            pressures = None
        if pressures is None or len(channels) != len(CHANNEL_ORDER):
            missing = sorted(c.value for c in _CHANNEL_SET.difference(channels))
            raise ValueError(f"sample must carry all five channels, missing {missing}")
        _set(self, "timestamp", timestamp)
        _set(self, "_row", tuple(map(_PASCALS, pressures)))
        _set(self, "_channels", MappingProxyType(dict(zip(CHANNEL_ORDER, pressures))))

    @classmethod
    def _of(cls, timestamp: float, row: tuple[float, ...]) -> "PressureSample":
        """A sample holding ``row`` unchecked and uncopied, for decoders: five
        finite, non-negative floats in canonical order."""
        sample = _new(cls)
        _set(sample, "timestamp", timestamp)
        _set(sample, "_row", row)
        return sample

    @classmethod
    def _of_rows(cls, timestamps: list[float], rows: Iterable[tuple[float, ...]]) -> list["PressureSample"]:
        """_of of each timestamp and row, in order, for block decoders: one
        pass makes the samples and one fills each slot, each a map drained in
        C, so no Python call is made per sample."""
        samples = list(map(_new, itertools.repeat(cls, len(timestamps))))
        deque(map(_SET_TIMESTAMP, samples, timestamps), maxlen=0)
        deque(map(_SET_ROW, samples, rows), maxlen=0)
        return samples

    @property
    def channels(self) -> Mapping[SoleChannel, Pressure]:
        try:
            return self._channels
        except AttributeError:  # a decoded or from_row sample, read for the first time
            channels = MappingProxyType(dict(zip(CHANNEL_ORDER, map(Pressure, self._row))))
            _set(self, "_channels", channels)
            return channels

    def value(self, channel: SoleChannel) -> float:
        return self._row[_CHANNEL_INDEX[channel]]

    def as_row(self) -> tuple[float, ...]:
        """Channel pressures in canonical order."""
        return self._row

    @classmethod
    def from_row(cls, timestamp: float, values: Iterable[float]) -> "PressureSample":
        row = tuple(float(v) for v in values)
        if len(row) != len(CHANNEL_ORDER):
            raise ValueError(f"expected {len(CHANNEL_ORDER)} channel values, got {len(row)}")
        for value in row:
            _require_finite_nonnegative("pressure", value)
        return cls._of(float(timestamp), row)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.timestamp, self._row) == (other.timestamp, other._row)

    __hash__ = None

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self._of, (self.timestamp, self._row)

    def __repr__(self) -> str:
        return f"PressureSample(timestamp={self.timestamp!r}, channels={self.channels!r})"


# the slots' own setters, which PressureSample's __setattr__ does not reach
_SET_TIMESTAMP = PressureSample.timestamp.__set__
_SET_ROW = PressureSample._row.__set__
_TIMESTAMP = operator.attrgetter("timestamp")
_ROW = operator.attrgetter("_row")


def samples_to_columns(samples: Iterable[PressureSample]) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps and (n, 5) canonical-order pressures in pascals."""
    samples = list(samples)
    n, width = len(samples), len(CHANNEL_ORDER)
    times = np.fromiter(map(_TIMESTAMP, samples), dtype=float, count=n)
    values = itertools.chain.from_iterable(map(_ROW, samples))
    return times, np.fromiter(values, dtype=float, count=n * width).reshape(n, width)


def force_from_mass(mass_kg: float) -> Force:
    """Weight of a mass under standard gravity (fixed at 9.81 m/s^2)."""
    if not math.isfinite(mass_kg) or mass_kg < 0:
        raise ValueError(f"mass must be finite and >= 0, got {mass_kg!r}")
    return Force(mass_kg * GRAVITY_M_S2)


def pressure_from_force(force: Force) -> Pressure:
    """Pressure exerted by a force applied evenly over the sensor face."""
    return Pressure(force.newtons / SENSOR_AREA_M2)


def mass_table(masses_kg: Iterable[float]) -> list[tuple[Force, Pressure]]:
    """Element-wise mass -> (force, pressure) conversion, preserving order."""
    rows = []
    for index, mass in enumerate(masses_kg):
        try:
            force = force_from_mass(mass)
            rows.append((force, pressure_from_force(force)))
        except ValueError as exc:
            raise ValueError(f"mass at index {index}: {exc}") from exc
    return rows
