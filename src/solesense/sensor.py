"""Digital twin of one piezoresistive pressure sensor.

The model has three layers:

1. a static calibration curve fitted to measured (pressure, resistance)
   points -- piecewise-linear in (pressure, ln resistance), which guarantees
   positive, monotone non-increasing resistance over the calibrated range;
2. rate-independent hysteresis, realized as a symmetric play (backlash)
   operator acting on pressure with a fixed half-width;
3. first-order load/recovery dynamics acting on ln(resistance), with separate
   time constants for loading (resistance falling) and recovery (rising).

The dynamics run in log-resistance space because the device spans four
decades of ohms; a linear-space lag would make the relative settling error
after one second larger than the replication tolerance of the bench
comparison data, and log space is the natural companion of the log-linear
static curve.

``step`` advances one sample and is the reference; ``run_channel`` advances
a whole column of samples, or a block of columns sampled at the same times
(the insole's five sensors), and gives the same values bit for bit. Its play
operator is a prefix scan down the block, its static curve is
``static_ohms`` on the whole block, and its lag is ``step``'s own
``_lagged_ohms``, called only on the samples whose target is a closed
circuit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate, repeat

import numpy as np

from . import datasets
from .units import Pressure, Resistance

# Net transition times of the device, read as 10-90% times of a first-order
# system, which fixes tau = t / ln 9.
RESPONSE_TIME_S = 0.120
RECOVERY_TIME_S = 0.100
_LN9 = math.log(9.0)

# Half-width of the pressure play operator: 3% of the working range (by
# default the datasheet's), so a full loading/unloading loop is 6% of it wide.
_PLAY_SHARE = 0.03
# The narrowest working range fit_profile takes, as a share of its top
# pressure: a range a few float steps wide makes a play half-width and step
# responses below float resolution, and characterize() then reports 0 ms and
# 0 %. From about 1e6 steps (1.2e-4 Pa at 750 kPa) up, its figures are those
# of a wide range; 1e-9 of the top is 4.5e6 to 9e6 steps.
_MIN_RANGE_SHARE = 1e-9
DEFAULT_HYSTERESIS_HALFWIDTH_PA = _PLAY_SHARE * (datasets.DATASHEET_MAX_PA - datasets.DATASHEET_ONSET_PA)

# Nominal sensitivity printed on the sensor's datasheet. It does not follow
# from the calibrated end points (which give ~3.67 Pa/ohm); characterize()
# reports the computed figures and flags the mismatch.
NOMINAL_SENSITIVITY_PA_PER_OHM = 0.02


class CalibrationError(ValueError):
    """Raised when calibration data cannot produce a valid profile."""


@dataclass(frozen=True, order=True, slots=True)
class CalibrationPoint:
    pressure_pa: float
    resistance_ohm: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.pressure_pa) and self.pressure_pa > 0):
            raise ValueError(f"calibration pressure must be > 0, got {self.pressure_pa!r}")
        if not (math.isfinite(self.resistance_ohm) and self.resistance_ohm > 0):
            raise ValueError(f"calibration resistance must be finite positive, got {self.resistance_ohm!r}")


@dataclass(frozen=True, slots=True)
class CalibrationProfile:
    """Fitted monotone pressure -> resistance map for one sensor.

    ``points`` are strictly increasing in pressure with non-increasing
    resistance (duplicates already averaged). Below ``onset_pressure`` the
    sensor reads as an open circuit; beyond the last point the curve clamps.
    """

    name: str
    points: tuple[CalibrationPoint, ...]
    onset_pressure: Pressure
    _pressures: np.ndarray = field(init=False, repr=False, compare=False)
    _log_resistances: np.ndarray = field(init=False, repr=False, compare=False)
    # code -> pressure tables by divider; see acquisition.decode_table
    _decode_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_pressures", np.array([p.pressure_pa for p in self.points]))
        object.__setattr__(
            self, "_log_resistances", np.log([p.resistance_ohm for p in self.points])
        )

    @property
    def min_pressure_pa(self) -> float:
        return self.points[0].pressure_pa

    @property
    def max_pressure_pa(self) -> float:
        return self.points[-1].pressure_pa

    @property
    def idle_resistance_ohm(self) -> float:
        """Largest finite resistance the curve can produce."""
        return self.points[0].resistance_ohm

    @property
    def _working_range(self) -> tuple[float, float]:  # the flat clamp below the first point carries no hysteresis
        return max(self.onset_pressure.pascals, self.min_pressure_pa), self.max_pressure_pa


def fit_profile(
    name: str, points: list[CalibrationPoint], onset_pressure: Pressure
) -> CalibrationProfile:
    """Fit a profile to measured points.

    Sorts by pressure, averages the resistances of duplicate pressures, and
    interpolates ln(resistance) piecewise-linearly in pressure. Rejected: a
    resistance that rises with pressure (the device is negative-piezoresistive),
    an onset at or above the last pressure (an empty working range), and a
    working range narrower than _MIN_RANGE_SHARE of its top pressure.
    """
    by_pressure: dict[float, list[float]] = {}
    for point in points:
        by_pressure.setdefault(point.pressure_pa, []).append(point.resistance_ohm)
    if len(by_pressure) < 2:
        raise CalibrationError(f"need >= 2 distinct calibration pressures, got {len(by_pressure)}")

    merged = [
        CalibrationPoint(p, sum(rs) / len(rs)) for p, rs in sorted(by_pressure.items())
    ]
    for a, b in zip(merged, merged[1:]):
        if b.resistance_ohm > a.resistance_ohm:
            raise CalibrationError(
                "resistance must not increase with pressure: "
                f"{a.resistance_ohm} ohm @ {a.pressure_pa} Pa -> "
                f"{b.resistance_ohm} ohm @ {b.pressure_pa} Pa"
            )
    onset, last = onset_pressure.pascals, merged[-1].pressure_pa
    if onset >= last:
        raise CalibrationError(f"onset {onset} Pa is not below the last calibration pressure, {last} Pa")
    profile = CalibrationProfile(name=name, points=tuple(merged), onset_pressure=onset_pressure)
    low, high = profile._working_range
    if high - low < _MIN_RANGE_SHARE * high:
        raise CalibrationError(
            f"working range {low!r} Pa to {high!r} Pa is too narrow: under {_MIN_RANGE_SHARE:g} of its top pressure"
        )
    return profile


def static_resistance(profile: CalibrationProfile, pressure: Pressure) -> Resistance:
    """Steady-state resistance at a given pressure.

    Below the onset pressure the sensor is an open circuit; outside the
    calibrated pressure range the curve clamps to its end values.
    """
    return Resistance(_static_ohms(profile, pressure.pascals))


def _static_ohms(profile: CalibrationProfile, pascals: float) -> float:
    if pascals < profile.onset_pressure.pascals:
        return math.inf
    return math.exp(float(np.interp(pascals, profile._pressures, profile._log_resistances)))


def static_ohms(profile: CalibrationProfile, pascals) -> np.ndarray:
    """_static_ohms on an array of bare pascals, of any shape.

    inf below onset; elsewhere one np.interp into ln R, which evaluates each
    point as the scalar call does, then math.exp per element (np.exp may
    differ from it in the last ulp): every element equals _static_ohms bit for
    bit.
    """
    pascals = np.asarray(pascals, dtype=float)
    ohms = np.empty(pascals.shape)
    ohms.fill(math.inf)
    closed = ~(pascals < profile.onset_pressure.pascals)
    log_ohms = np.interp(pascals[closed], profile._pressures, profile._log_resistances).tolist()
    ohms[closed] = np.fromiter(map(math.exp, log_ohms), float, len(log_ohms))
    return ohms


def invert_static_ohms(profile: CalibrationProfile, ohms):
    """Closed-form inverse of the static curve on bare ohms, a float or an array.

    The curve is piecewise-linear in (pressure, ln R), so its inverse swaps the
    axes. Ohms at or above the idle value (inf included) map to the first
    pressure, at or below the last point's to the last pressure, and a flat
    stretch (equal resistances) to its lower pressure.
    """
    pascals = np.interp(np.log(ohms), profile._log_resistances[::-1], profile._pressures[::-1])
    # explicit, so that a flat last stretch clamps to the last pressure too
    return np.where(ohms <= profile.points[-1].resistance_ohm, profile.max_pressure_pa, pascals)


@dataclass(frozen=True, slots=True)
class DynamicsConfig:
    """Time constants and hysteresis width of the dynamic sensor model."""

    tau_load: float = RESPONSE_TIME_S / _LN9
    tau_recover: float = RECOVERY_TIME_S / _LN9
    hysteresis_halfwidth: float = DEFAULT_HYSTERESIS_HALFWIDTH_PA
    sample_period: float = 0.001

    def __post_init__(self) -> None:
        for name in ("tau_load", "tau_recover", "hysteresis_halfwidth", "sample_period"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    @classmethod
    def for_profile(cls, profile: CalibrationProfile) -> "DynamicsConfig":
        """Defaults with the play half-width _PLAY_SHARE of the profile's working range."""
        low, high = profile._working_range
        return cls(hysteresis_halfwidth=_PLAY_SHARE * (high - low))


@dataclass(frozen=True, slots=True)
class SensorState:
    """Dynamic state of one simulated sensor, updated functionally by step()."""

    effective_pressure: Pressure
    lagged_resistance: Resistance
    last_timestamp: float

    @classmethod
    def at_rest(cls, timestamp: float = 0.0) -> "SensorState":
        return cls(Pressure(0.0), Resistance.open_circuit(), timestamp)

    @classmethod
    def settled(
        cls, pressure: Pressure, profile: CalibrationProfile, timestamp: float = 0.0
    ) -> "SensorState":
        return cls(pressure, static_resistance(profile, pressure), timestamp)


def play_update(effective_pa: float, applied_pa: float, halfwidth_pa: float) -> float:
    """Symmetric play (backlash) operator: the state follows the input only
    once the input leaves the +/- halfwidth dead band around it."""
    return min(max(effective_pa, applied_pa - halfwidth_pa), applied_pa + halfwidth_pa)


def _lagged_ohms(previous: float, target: float, dt: float, dynamics: DynamicsConfig) -> float:
    """First-order approach of ln R from ``previous`` to ``target`` over ``dt``.

    Open-circuit targets snap immediately (full release below onset), and the
    first transition out of an open state likewise adopts the target with no
    lag: a first-order approach from infinite ohms is undefined.
    """
    if target == math.inf or previous == math.inf:
        return target
    tau = dynamics.tau_load if target < previous else dynamics.tau_recover
    decay = math.exp(-dt / tau)
    log_target = math.log(target)
    return math.exp(log_target + (math.log(previous) - log_target) * decay)


def step(
    state: SensorState,
    applied_pressure: Pressure,
    timestamp: float,
    profile: CalibrationProfile,
    dynamics: DynamicsConfig,
) -> tuple[SensorState, Resistance]:
    """Advance the sensor one sample: play operator, static curve, then lag."""
    if timestamp < state.last_timestamp:
        raise ValueError(
            f"time went backwards: {timestamp} < {state.last_timestamp}"
        )
    effective = play_update(
        state.effective_pressure.pascals, applied_pressure.pascals, dynamics.hysteresis_halfwidth
    )
    lagged = Resistance(
        _lagged_ohms(
            state.lagged_resistance.ohms,
            _static_ohms(profile, effective),
            timestamp - state.last_timestamp,
            dynamics,
        )
    )
    return SensorState(Pressure(effective), lagged, timestamp), lagged


def run_channel(
    state: SensorState,
    applied_pa: np.ndarray,
    timestamps: np.ndarray,
    profile: CalibrationProfile,
    dynamics: DynamicsConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """step() over a whole column of samples, or a block of columns, from ``state``.

    ``applied_pa`` is one column (n,) or a block of k columns (n, k), one row
    per timestamp; every column starts from ``state``. Returns the effective
    pascals and the lagged ohms after each sample, in the shape of
    ``applied_pa``, each column equal bit for bit to what step() gives sample
    by sample. The checks, the play scan and the static curve run once on the
    whole block; only the lag runs column by column.

    The play operator is _play_scan. It is exact because min and max only
    choose among floats that already exist: every bound is some a +/- h, and
    none of those is -0.0 (a >= 0, h > 0), so numpy's min and max only tie on
    equal bits. The start state may be -0.0, so its final clamp compares
    explicitly, as play_update's builtins do.

    The static curve is static_ohms over the block. An open-circuit target is
    its own lagged value, and the first closed sample after one adopts its
    target; so step()'s own _lagged_ohms runs only on the closed samples,
    from inf after each open stretch.
    """
    applied = np.asarray(applied_pa, dtype=float)
    times = np.asarray(timestamps, dtype=float)
    if times.ndim != 1 or applied.ndim not in (1, 2) or len(applied) != len(times):
        raise ValueError(f"need one applied pressure per timestamp, got {applied.shape} and {times.shape}")
    if not np.all(np.isfinite(applied) & (applied >= 0.0)):
        raise ValueError("applied pressures must be finite and >= 0")
    steps = np.diff(times, prepend=state.last_timestamp)
    if np.any(steps < 0):
        raise ValueError(f"time went backwards in the column starting at {state.last_timestamp}")

    block = applied if applied.ndim == 2 else applied[:, np.newaxis]
    effective = _play_scan(state.effective_pressure.pascals, block, dynamics.hysteresis_halfwidth)
    targets = static_ohms(profile, effective)

    lagged = targets.copy()
    for column_targets, column_lagged in zip(targets.T, lagged.T):
        closed = np.flatnonzero(column_targets < math.inf)
        if not len(closed):
            continue
        values = []
        ohms, after = state.lagged_resistance.ohms, -1
        for k, target, dt in zip(closed.tolist(), column_targets[closed].tolist(), steps[closed].tolist()):
            ohms = _lagged_ohms(ohms if k == after + 1 else math.inf, target, dt, dynamics)
            values.append(ohms)
            after = k
        column_lagged[closed] = values
    return effective.reshape(applied.shape), lagged.reshape(applied.shape)


def _play_scan(start_pa: float, applied: np.ndarray, halfwidth_pa: float) -> np.ndarray:
    """play_update down each column of ``applied`` from ``start_pa``, as a prefix scan.

    Each step clamps the state to [a - h, a + h], and a chain of clamps is a
    clamp: [L1, U1] then [L2, U2] is [clamp(L1, L2, U2), clamp(U1, L2, U2)].
    A Hillis-Steele scan builds every prefix's bounds in ceil(log2 n) rounds,
    and the state after sample k is the start clamped to prefix k's bounds.
    """
    lower = applied - halfwidth_pa
    upper = applied + halfwidth_pa
    stride = 1
    while stride < len(applied):
        first_lower, first_upper = lower[:-stride], upper[:-stride]
        then_lower, then_upper = lower[stride:], upper[stride:]
        lower[stride:], upper[stride:] = (
            np.minimum(np.maximum(first_lower, then_lower), then_upper),
            np.minimum(np.maximum(first_upper, then_lower), then_upper),
        )
        stride *= 2
    # max(x, L) and min(x, U) as play_update's builtins pick them: x unless
    # the bound is strictly beyond it, so a -0.0 start stays -0.0
    clamped = np.where(lower > start_pa, lower, start_pa)
    return np.where(upper < clamped, upper, clamped)


@dataclass(frozen=True, slots=True)
class SensorCharacterization:
    """Figures of merit measured from the fitted model, datasheet-style."""

    pressure_min_pa: float
    pressure_max_pa: float
    resistance_at_min_ohm: float
    resistance_at_max_ohm: float
    sensitivity_ohm_per_pa: float
    sensitivity_pa_per_ohm: float
    response_time_s: float
    recovery_time_s: float
    hysteresis_fraction: float

    @property
    def matches_nominal_sensitivity(self) -> bool:
        """Whether the computed Pa/ohm figure agrees with the nominal one.

        It does not for the shipped calibration data; the computed value is
        the one to trust.
        """
        nominal = NOMINAL_SENSITIVITY_PA_PER_OHM
        return math.isfinite(self.sensitivity_pa_per_ohm) and (
            abs(self.sensitivity_pa_per_ohm - nominal) <= 0.5 * nominal
        )


def _log_crossing_time(times: np.ndarray, log_r: np.ndarray, threshold: float, rising: bool) -> float:
    """First time ln(R) crosses a threshold, linearly interpolated."""
    crossed = log_r >= threshold if rising else log_r <= threshold
    idx = int(np.argmax(crossed))
    if not crossed[idx]:
        raise ValueError("trajectory never crossed threshold")
    if idx == 0:
        return float(times[0])
    t0, t1 = times[idx - 1], times[idx]
    y0, y1 = log_r[idx - 1], log_r[idx]
    return float(t0 + (threshold - y0) / (y1 - y0) * (t1 - t0))


def _transition_time(
    profile: CalibrationProfile,
    dynamics: DynamicsConfig,
    start_pa: float,
    end_pa: float,
) -> float:
    """10-90% transition time of a simulated pressure step, in ln(R)."""
    state = SensorState.settled(Pressure(start_pa), profile, timestamp=0.0)
    log_start = math.log(state.lagged_resistance.ohms)
    dt = dynamics.sample_period
    horizon = 10.0 * max(dynamics.tau_load, dynamics.tau_recover)
    n = max(int(math.ceil(horizon / dt)), 8)

    times = np.arange(1, n + 1) * dt
    _, ohms = run_channel(state, np.full(n, end_pa), times, profile, dynamics)
    log_r = np.array([math.log(r) for r in ohms.tolist()])

    log_end = log_r[-1]
    if abs(log_end - log_start) < 1e-12:
        return 0.0
    rising = log_end > log_start
    t10 = _log_crossing_time(times, log_r, log_start + 0.1 * (log_end - log_start), rising)
    t90 = _log_crossing_time(times, log_r, log_start + 0.9 * (log_end - log_start), rising)
    return t90 - t10


def _sweep_hysteresis_fraction(profile: CalibrationProfile, dynamics: DynamicsConfig) -> float:
    """Loop width of a triangular sweep as a fraction of the pressure span.

    Hysteresis is rate-independent, so the sweep runs at the quasi-static
    limit (time constants collapsed); any lag contribution is a separate,
    rate-dependent effect and not part of the loop width.
    """
    quasi_static = replace(dynamics, tau_load=1e-12, tau_recover=1e-12)
    p_lo, p_hi = profile._working_range
    h = dynamics.hysteresis_halfwidth
    n = 2000

    up = np.linspace(p_lo, p_hi, n)
    down = np.linspace(p_hi, p_lo, n)
    state = SensorState.settled(Pressure(p_lo), profile, timestamp=0.0)
    times = np.fromiter(accumulate(repeat(quasi_static.sample_period, 2 * n)), float, 2 * n)
    effective, _ = run_channel(state, np.concatenate([up, down]), times, profile, quasi_static)
    eff_up, eff_down = effective[:n], effective[n:]

    # Same effective pressure <=> same resistance; compare branch pressures
    # at matched effective levels over the fully engaged interior.
    margin = 2.0 * (p_hi - p_lo) / n
    grid = np.linspace(p_lo + h + margin, p_hi - h - margin, 256)
    p_up_at = np.interp(grid, eff_up, up)
    p_down_at = np.interp(grid, eff_down[::-1], down[::-1])
    width = float(np.max(p_up_at - p_down_at))
    return width / (p_hi - p_lo)


def characterize(profile: CalibrationProfile) -> SensorCharacterization:
    """Measure datasheet figures from the model itself, under the profile's
    dynamics (DynamicsConfig.for_profile).

    Sensitivity is reported in both conventions (ohm/Pa and Pa/ohm) over
    [onset, last point], which fit_profile keeps non-empty; response and
    recovery are 10-90% step times; hysteresis is a triangular sweep's loop width.
    """
    dynamics = DynamicsConfig.for_profile(profile)
    p_min, p_max = profile.onset_pressure.pascals, profile.max_pressure_pa
    r_min, r_max = _static_ohms(profile, p_min), _static_ohms(profile, p_max)

    delta_p = p_max - p_min
    delta_r = r_min - r_max
    ohm_per_pa = delta_r / delta_p
    pa_per_ohm = delta_p / delta_r if delta_r > 0 else math.inf

    response = _transition_time(profile, dynamics, p_min, p_max)
    recovery = _transition_time(profile, dynamics, p_max, p_min)
    hysteresis = _sweep_hysteresis_fraction(profile, dynamics)

    return SensorCharacterization(
        pressure_min_pa=p_min,
        pressure_max_pa=p_max,
        resistance_at_min_ohm=r_min,
        resistance_at_max_ohm=r_max,
        sensitivity_ohm_per_pa=ohm_per_pa,
        sensitivity_pa_per_ohm=pa_per_ohm,
        response_time_s=response,
        recovery_time_s=recovery,
        hysteresis_fraction=hysteresis,
    )


# --- built-in profiles -----------------------------------------------------
#
# name -> (calibration rows, onset pressure in Pa), each fitted by fit_profile:
#   measured  -- the lab calibration sweep of the fabricated sensor;
#   datasheet -- the two-point datasheet resistance range;
#   bench     -- the fabricated sensor as measured on the comparison bench;
#   fsr       -- the commercial force-sensing resistor used as its baseline.
# "measured" and "datasheet" describe the same physical device but are
# mutually inconsistent (the lab sweep starts near 3.3 Mohm at 429 kPa, the
# datasheet says 150 kohm at 200 kPa); both ship, unmerged, under separate
# names. "bench" and "fsr" reproduce the side-by-side comparison rig and use
# onset 0 so an unloaded stimulus reads the idle resistance the rig logged.

_BUILTIN_PROFILES = {
    "measured": (datasets.MEASURED_CALIBRATION, datasets.DATASHEET_ONSET_PA),
    "datasheet": (datasets.DATASHEET_RANGE, datasets.DATASHEET_ONSET_PA),
    "bench": (datasets.COMPARISON_SENSOR_POINTS, 0.0),
    "fsr": (datasets.FSR_POINTS, 0.0),
}


@functools.cache
def builtin_profile(name: str) -> CalibrationProfile:
    """The built-in profile ``name``: one shared instance per name, so its
    decode tables are built once per process."""
    try:
        rows, onset_pa = _BUILTIN_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTIN_PROFILES))
        raise CalibrationError(f"unknown profile {name!r} (built-ins: {known})") from None
    return fit_profile(name, [CalibrationPoint(p, r) for p, r in rows], Pressure(onset_pa))


def builtin_profile_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN_PROFILES))
