"""Synthetic five-channel plantar pressure over parameterized gait cycles.

This is a test-signal generator, not a validated biomechanical model: it
reproduces the qualitative regional loading pattern of a normal gait cycle
(heel strike, roll over the midfoot, forefoot push-off, swing) with smooth
raised-cosine lobes so downstream sensor dynamics see a C1 signal.

One cycle is one stride of one foot (two steps), so at a cadence of
``c`` steps per minute the cycle lasts ``120 / c`` seconds.

The signal is built on columns: ``synthesize_columns`` returns the whole
stream as arrays, and ``synthesize`` reads from the same envelope kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .units import (
    CHANNEL_ORDER,
    GRAVITY_M_S2,
    SENSOR_AREA_M2,
    GaitPhase,
    Pressure,
    PressureSample,
)

# Stance sub-phase boundaries as fractions of the cycle at the default 60%
# stance; standard clinical splits. They stretch with stance_fraction.
_BASE_BOUNDS = (0.0, 0.02, 0.12, 0.31, 0.50)
_BASE_STANCE = 0.6

# Envelope geometry at the default 60% stance, also stretched with stance:
# heel peaks mid loading-response and is gone by terminal stance; the midfoot
# hump is centered in mid stance; the forefoot rises through terminal stance
# and peaks in pre-swing, reaching zero exactly at swing onset.
_HEEL_PEAK = 0.07
_HEEL_END = 0.31
_MID_START = 0.08
_MID_END = 0.53
_FORE_START = 0.31
_FORE_PEAK = 0.55

# Fraction of body weight one sensor face sees at the load peaks. Keeps the
# synthetic peaks inside the sensor's 750 kPa range for masses up to ~95 kg.
DEFAULT_LOAD_SCALE = 0.18

# Regional weight shares at the two vertical-load peaks (heel strike and
# push-off) of a double-hump gait load curve; the midfoot total is split
# evenly across its three channels.
HEEL_SHARE = 1.0
FOREFOOT_SHARE = 1.1
MIDFOOT_SHARE = 0.35

_BLOCK_SAMPLES = 256  # samples per block of synthesize()
_NO_LOAD = Pressure(0.0)  # shared: swing and clipped noise make many zeros


@dataclass(frozen=True, slots=True)
class GaitParams:
    body_mass_kg: float
    cadence_spm: float = 120.0
    stance_fraction: float = 0.6
    sample_rate_hz: float = 100.0
    cycles: int = 10
    noise_sigma_pa: float = 0.0
    seed: int = 0
    load_scale: float = DEFAULT_LOAD_SCALE

    def __post_init__(self) -> None:
        if not (math.isfinite(self.body_mass_kg) and self.body_mass_kg >= 0):
            raise ValueError(f"body mass must be >= 0, got {self.body_mass_kg!r}")
        if not 0.0 < self.stance_fraction < 1.0:
            raise ValueError(f"stance_fraction must be in (0, 1), got {self.stance_fraction!r}")
        if not (math.isfinite(self.cadence_spm) and self.cadence_spm > 0):
            raise ValueError(f"cadence must be finite and > 0, got {self.cadence_spm!r}")
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz >= 20.0):
            raise ValueError(f"sample rate must be finite and >= 20 Hz, got {self.sample_rate_hz!r}")
        if self.cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {self.cycles!r}")
        try:
            count = self.cycles * self.cycle_duration_s * self.sample_rate_hz
        except OverflowError:  # cycles past the float range
            count = math.inf
        if not count <= np.iinfo(np.intp).max:
            raise ValueError(
                f"{self.cycles!r} cycles at cadence {self.cadence_spm!r} and rate {self.sample_rate_hz!r} Hz "
                f"give {count:.3g} samples, not a count numpy can index (at most {np.iinfo(np.intp).max})"
            )
        if not (math.isfinite(self.noise_sigma_pa) and self.noise_sigma_pa >= 0):
            raise ValueError(f"noise sigma must be finite and >= 0, got {self.noise_sigma_pa!r}")
        if not (math.isfinite(self.load_scale) and self.load_scale >= 0):
            raise ValueError(f"load scale must be finite and >= 0, got {self.load_scale!r}")
        if not math.isfinite(self.base_pressure_pa * max(HEEL_SHARE, FOREFOOT_SHARE, MIDFOOT_SHARE)):
            raise ValueError(
                f"body mass {self.body_mass_kg!r} kg at load scale {self.load_scale!r} "
                "gives a base pressure that is not finite at its peak share"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")

    @property
    def cycle_duration_s(self) -> float:
        return 120.0 / self.cadence_spm

    @property
    def base_pressure_pa(self) -> float:
        """Body weight over one sensor face, scaled by the per-sensor share."""
        return self.body_mass_kg * GRAVITY_M_S2 / SENSOR_AREA_M2 * self.load_scale

    @property
    def sample_count(self) -> int:
        return round(self.cycles * self.cycle_duration_s * self.sample_rate_hz)


def _cos(x: np.ndarray) -> np.ndarray:
    # libm's cos, as in scalar code: numpy's SIMD loops may differ from it in
    # the last ulp on some hosts (np.exp does on AVX-512)
    return np.fromiter(map(math.cos, x.tolist()), dtype=float, count=len(x))


def _half_cos_rise(u: np.ndarray, a: float, b: float) -> np.ndarray:
    return 0.5 * (1.0 - _cos(math.pi * (u - a) / (b - a)))


def _half_cos_fall(u: np.ndarray, a: float, b: float) -> np.ndarray:
    return 0.5 * (1.0 + _cos(math.pi * (u - a) / (b - a)))


def _raised_cos(u: np.ndarray, a: float, b: float) -> np.ndarray:
    return 0.5 * (1.0 - _cos(2.0 * math.pi * (u - a) / (b - a)))


def _envelopes(u: np.ndarray, stance_fraction: float) -> np.ndarray:
    """Per-channel envelope shares at cycle fractions ``u``: shape (len(u), 5)
    in canonical channel order, all zero throughout swing."""
    scale = stance_fraction / _BASE_STANCE
    heel_peak, heel_end = _HEEL_PEAK * scale, _HEEL_END * scale
    mid_a, mid_b = _MID_START * scale, _MID_END * scale
    fore_a, fore_peak = _FORE_START * scale, _FORE_PEAK * scale

    shares = np.zeros((len(u), len(CHANNEL_ORDER)))
    fore, mid, heel = shares[:, 0], shares[:, 1], shares[:, 4]
    for out, share, lobe, a, b in (
        (heel, HEEL_SHARE, _half_cos_rise, 0.0, heel_peak),
        (heel, HEEL_SHARE, _half_cos_fall, heel_peak, heel_end),
        (mid, MIDFOOT_SHARE / 3.0, _raised_cos, mid_a, mid_b),
        (fore, FOREFOOT_SHARE, _half_cos_rise, fore_a, fore_peak),
        (fore, FOREFOOT_SHARE, _half_cos_fall, fore_peak, stance_fraction),
    ):
        inside = (a <= u) & (u < b)
        out[inside] = share * lobe(u[inside], a, b)
    shares[:, 2] = mid
    shares[:, 3] = mid
    return shares


def synthesize_columns(params: GaitParams) -> tuple[np.ndarray, np.ndarray]:
    """The sample stream as columns: timestamps (n,) and pascals (n, 5) in
    canonical channel order; deterministic for a given params (incl. seed).

    Noise, when enabled, is additive Gaussian per channel, truncated at zero,
    applied after envelope construction. It is drawn as one (n, 5) block,
    which is the same stream as n draws of five.
    """
    return _columns(params, 0, params.sample_count, np.random.default_rng(params.seed))


def _columns(params: GaitParams, start: int, stop: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Samples start..stop-1 of the stream, drawing their noise from ``rng``."""
    period = params.cycle_duration_s
    times = np.arange(start, stop) / params.sample_rate_hz
    pascals = _envelopes((times % period) / period, params.stance_fraction)
    pascals *= params.base_pressure_pa
    if params.noise_sigma_pa > 0:
        noisy = rng.normal(0.0, params.noise_sigma_pa, size=pascals.shape)
        noisy += pascals
        if not np.isfinite(noisy).all():
            raise ValueError(f"noise sigma {params.noise_sigma_pa!r} Pa overflows a noisy pressure to infinity")
        pascals = np.maximum(0.0, noisy, out=noisy)
    return times, pascals


def synthesize(params: GaitParams) -> Iterator[PressureSample]:
    """The stream of synthesize_columns, one typed sample at a time.

    Runs the same kernel on consecutive blocks of samples, with one generator
    for the noise, so memory stays bounded however long the stream is.
    """
    rng = np.random.default_rng(params.seed)
    for start in range(0, params.sample_count, _BLOCK_SAMPLES):
        times, pascals = _columns(params, start, min(start + _BLOCK_SAMPLES, params.sample_count), rng)
        for t, row in zip(times.tolist(), pascals.tolist()):
            yield PressureSample(t, {c: Pressure(v) if v else _NO_LOAD for c, v in zip(CHANNEL_ORDER, row)})


@dataclass(frozen=True, slots=True)
class PhaseRecord:
    cycle_index: int
    phase: GaitPhase
    start_s: float
    end_s: float


def ground_truth(params: GaitParams) -> list[PhaseRecord]:
    """Exact phase intervals of every cycle, in phase order; the analyzer's oracle.

    The stance sub-phases take their clinical splits stretched to the stance
    fraction, and swing spans the rest of the cycle, so the intervals of one
    cycle cover it without gaps.
    """
    scale = params.stance_fraction / _BASE_STANCE
    bounds = [b * scale for b in _BASE_BOUNDS] + [params.stance_fraction, 1.0]
    period = params.cycle_duration_s
    return [
        PhaseRecord(k, phase, (k + start) * period, (k + end) * period)
        for k in range(params.cycles)
        for phase, start, end in zip(GaitPhase, bounds, bounds[1:])
    ]
