"""Gait-phase detection and gait-quality metrics from 5-channel pressure.

Contact decisions use a Schmitt trigger per foot region at fixed thresholds,
on at 22 kPa and off at 18 kPa (+/-10% around a 20 kPa contact pressure), so
threshold dithering never toggles state. Phases follow from
regional contact combinations through a small state machine honoring the
cyclic phase order; illegal transitions are counted, never raised. A
heel-only initial contact turns into loading response after a fixed 30 ms
dwell.

Classification uses contact logic only -- never pressure magnitudes -- so no
assumed load levels become load-bearing.

The online Analyzer folds each gait cycle into running figures when the next
heel strike closes it and keeps no events (update() returns them), so its
state and its report are O(1) in session length.

Analyzer.update folds one PressureSample in one flat kernel on its float
row: one chained compare admits the timestamp, the row unpacks into five
floats whose region maxima update the peaks, and each region's Schmitt
decision is inlined. Analyzer.update_block folds a block of numpy columns
(timestamps and (n, 5) pascals) and returns exactly the events, and leaves
exactly the state, that update() would row by row. The block reduces regions,
takes peaks and runs the Schmitt trigger on whole columns. Both folds step the
one scalar phase machine on the same rows: those off the rest set, the
(contact, phase) pairs at which classify_phase keeps the phase, outside
initial contact, whose heel-only dwell runs on the clock. At rest, the block
jumps to its next contact change. The phase machine is stepped from a table,
the next phase by phase and contact code, built at import from classify_phase
(as the rest set is), so a step calls no classifier and compares phases by
identity; classify_phase and ContactState remain its specification. analyze()
folds its samples as one block.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .sensor import CalibrationProfile, DynamicsConfig, SensorState, run_channel
from .units import (
    CHANNEL_ORDER,
    REGION_CHANNELS,
    FootRegion,
    GaitPhase,
    Pressure,
    PressureSample,
    samples_to_columns,
)

# module globals for the phases Analyzer._step compares with: an Enum
# attribute read goes through the metaclass, about ten times slower
_SWING, _INITIAL_CONTACT, _LOADING_RESPONSE, _PRE_SWING = (
    GaitPhase.SWING, GaitPhase.INITIAL_CONTACT, GaitPhase.LOADING_RESPONSE, GaitPhase.PRE_SWING
)
# GaitPhase declares the phases in cyclic order
_NEXT_PHASE = dict(zip(GaitPhase, (*tuple(GaitPhase)[1:], GaitPhase.INITIAL_CONTACT)))


# Schmitt thresholds on a region's pressure, the max of its channels: +/-10%
# around a 20 kPa contact pressure
_ON_PA = 22_000.0
_OFF_PA = 18_000.0
# how long a heel-only initial contact lasts before it is loading response
_LOADING_DWELL_S = 0.030
# Analyzer.update's bound on a timestamp: a global read, not math's attribute
_INFINITY = math.inf


@dataclass(frozen=True)
class ContactState:
    heel_on: bool = False
    midfoot_on: bool = False
    forefoot_on: bool = False


_REGIONS = tuple(FootRegion)
# each region's channels as a slice of a canonical-order row (the sole layout keeps them contiguous)
_REGION_SLICES = tuple(
    slice(CHANNEL_ORDER.index(REGION_CHANNELS[r][0]), CHANNEL_ORDER.index(REGION_CHANNELS[r][-1]) + 1)
    for r in _REGIONS
)

_FOREFOOT, _MIDFOOT, _HEEL = _REGIONS
# Analyzer.update unpacks a row as the forefoot, the three midfoot channels and the heel
if _REGION_SLICES != (slice(0, 1), slice(1, 4), slice(4, 5)):
    raise ImportError(f"Analyzer.update cannot unpack rows of region slices {_REGION_SLICES}")


# contact states by code 4 * heel + 2 * midfoot + forefoot; bit weights follow FootRegion
_CONTACTS = tuple(ContactState(bool(c & 4), bool(c & 2), bool(c & 1)) for c in range(8))
_WEIGHTS = (1, 2, 4)


def _schmitt_column(pressure: np.ndarray, was_on: bool) -> np.ndarray:
    """One region's Schmitt trigger on a column: a row at or above the
    on-threshold is on, one at or below the off-threshold is off, and a row
    inside the band takes the decision of the last row at or before it outside
    the band, or ``was_on`` if there is none."""
    on = pressure >= _ON_PA
    decisive = np.where(on | (pressure <= _OFF_PA), np.arange(1, len(on) + 1), 0)
    np.maximum.accumulate(decisive, out=decisive)
    return np.concatenate(([was_on], on))[decisive]


def classify_phase(state: ContactState, previous: GaitPhase) -> GaitPhase:
    """Memoryless contact-combination -> phase map.

    The time-based initial-contact/loading-response split lives in the
    analyzer (see Analyzer._step); here heel-only keeps whichever of the two
    the stream is already in.
    """
    h, m, f = state.heel_on, state.midfoot_on, state.forefoot_on
    if not (h or m or f):
        return GaitPhase.SWING
    if h and not m and not f:
        if previous in (GaitPhase.INITIAL_CONTACT, GaitPhase.LOADING_RESPONSE):
            return previous
        return GaitPhase.INITIAL_CONTACT
    if h and m:
        # midfoot joining promotes initial contact to loading response once,
        # then the flat foot is mid stance
        if previous == GaitPhase.INITIAL_CONTACT:
            return GaitPhase.LOADING_RESPONSE
        return GaitPhase.MID_STANCE
    if h and f:  # heel and forefoot without midfoot: treat as flat foot
        return GaitPhase.MID_STANCE
    if m and f:
        return GaitPhase.TERMINAL_STANCE
    if m:  # midfoot only: heel has left, forefoot not yet loaded
        return GaitPhase.TERMINAL_STANCE if previous in (
            GaitPhase.MID_STANCE,
            GaitPhase.TERMINAL_STANCE,
        ) else GaitPhase.MID_STANCE
    return GaitPhase.PRE_SWING  # forefoot only


# by phase, classify_phase's next phase for each contact code: the phase
# machine's table, which Analyzer._step reads
_MOVES = {phase: tuple(classify_phase(contact, phase) for contact in _CONTACTS) for phase in GaitPhase}
# by phase, the contact codes at which the phase machine cannot move. Initial
# contact has none: its heel-only contact matures on the clock (Analyzer._step).
_REST_CODES = {
    phase: frozenset(code for code, move in enumerate(moves) if move is phase and phase is not _INITIAL_CONTACT)
    for phase, moves in _MOVES.items()
}


class GaitEventKind(Enum):
    HEEL_STRIKE = "heel_strike"
    TOE_OFF = "toe_off"
    PHASE_TRANSITION = "phase_transition"


@dataclass(frozen=True, init=False)
class GaitEvent:
    """A frozen dataclass whose __init__ stores its four fields with one
    instance-dict assignment: the generated frozen __init__ makes one
    object.__setattr__ call per field, and the analyzer builds an event per
    phase change."""

    kind: GaitEventKind
    timestamp: float
    cycle_index: int
    phase: GaitPhase | None = None

    def __init__(self, kind: GaitEventKind, timestamp: float, cycle_index: int, phase: GaitPhase | None = None):
        fields = {"kind": kind, "timestamp": timestamp, "cycle_index": cycle_index, "phase": phase}
        object.__setattr__(self, "__dict__", fields)


@dataclass(frozen=True)
class GaitReport:
    cycles: int
    cadence_spm: float
    stance_fraction_mean: float
    stance_fraction_std: float
    peak_pressure_pa: dict[FootRegion, float]
    phase_mean_durations_s: dict[GaitPhase, float]
    sequence_violations: int

    def to_json_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "cadence_spm": self.cadence_spm,
            "stance_fraction_mean": self.stance_fraction_mean,
            "stance_fraction_std": self.stance_fraction_std,
            "peak_pressure_pa": {r.value: p for r, p in self.peak_pressure_pa.items()},
            "phase_mean_durations_s": {
                ph.value: d for ph, d in self.phase_mean_durations_s.items()
            },
            "sequence_violations": self.sequence_violations,
        }


@dataclass
class Analyzer:
    """Online single-pass gait analyzer; one instance per stream.

    State and report() are O(1) in session length, and events come only from
    update() and update_block(); feeding a stream in chunks, by row or by
    block, is equivalent to feeding the concatenation. Contact thresholds and
    the loading dwell are fixed (see the module docstring).
    """

    _contact: int = 0  # contact code of the last row, as _CONTACTS indexes it
    _phase: GaitPhase = GaitPhase.SWING
    _phase_since: float | None = None
    _last_timestamp: float | None = None
    _sample_index: int = 0
    _violations: int = 0
    _cycle_index: int = -1  # heel strikes so far, minus one
    _first_strike: float = 0.0
    _last_strike: float | None = None
    _toe_off: float | None = None  # the first toe-off since the last strike
    # closed cycles' stance fractions: count, sum, Welford sum of squared deviations
    _stances: int = 0
    _stance_sum: float = 0.0
    _stance_m2: float = 0.0
    _peaks: dict[FootRegion, float] = field(
        default_factory=lambda: {r: 0.0 for r in FootRegion}
    )
    _phase_totals: dict[GaitPhase, float] = field(default_factory=lambda: dict.fromkeys(GaitPhase, 0.0))
    _phase_counts: dict[GaitPhase, int] = field(default_factory=lambda: dict.fromkeys(GaitPhase, 0))

    def update(self, sample: PressureSample) -> list[GaitEvent]:
        """Fold in one sample; returns any events it produced."""
        t = sample.timestamp
        last = self._last_timestamp
        if last is not None and last < t < _INFINITY:
            self._last_timestamp = t
            self._sample_index += 1
        else:  # the first sample, or a bad timestamp: raises before any state changes
            self._accept(t)
        fore, medial, central, lateral, heel = sample._row
        mid = medial if medial > central else central
        if lateral > mid:
            mid = lateral
        peaks = self._peaks
        if fore > peaks[_FOREFOOT]:
            peaks[_FOREFOOT] = fore
        if mid > peaks[_MIDFOOT]:
            peaks[_MIDFOOT] = mid
        if heel > peaks[_HEEL]:
            peaks[_HEEL] = heel
        # each region's Schmitt trigger: on at or above the on-threshold, off
        # at or below the off-threshold, else as it was; bit weights as _CONTACTS
        was = self._contact
        code = 0
        if fore >= _ON_PA or (fore > _OFF_PA and was & 1):
            code = 1
        if mid >= _ON_PA or (mid > _OFF_PA and was & 2):
            code += 2
        if heel >= _ON_PA or (heel > _OFF_PA and was & 4):
            code += 4
        self._contact = code
        if code in _REST_CODES[self._phase]:
            return []
        event = self._step(t, code)
        return [] if event is None else [event]

    def update_block(self, times, pascals) -> list[GaitEvent]:
        """Fold in a block of rows: timestamps and (n, 5) pressures in pascals,
        channels in canonical order, each finite and >= 0 as a PressureSample
        holds them.

        Returns exactly the events, and leaves exactly the state, of calling
        update() on each row. A bad timestamp raises update()'s error for its
        row after the rows before it are folded (their events are dropped).
        """
        times = np.asarray(times, dtype=float)
        pascals = np.asarray(pascals, dtype=float)
        n = len(times)
        if pascals.shape != (n, len(CHANNEL_ORDER)):
            raise ValueError(f"expected ({n}, {len(CHANNEL_ORDER)}) pascals, got {pascals.shape}")
        if n == 0:
            return []
        ok = np.isfinite(times)
        ok[1:] &= np.diff(times) > 0
        if self._last_timestamp is not None:
            ok[0] &= times[0] > self._last_timestamp
        if not ok.all():
            bad = int(np.argmin(ok))
            self.update_block(times[:bad], pascals[:bad])
            self._accept(float(times[bad]))  # raises update()'s error for that row
        self._last_timestamp = times.item(-1)
        self._sample_index += n

        previous = self._contact
        codes = np.zeros(n, dtype=int)  # 4 * heel + 2 * midfoot + forefoot, as _CONTACTS
        for weight, region, columns in zip(_WEIGHTS, _REGIONS, _REGION_SLICES):
            # a one-channel region takes its column as it is, with no numpy call
            pressure = reduce(np.maximum, pascals[:, columns].T)
            self._peaks[region] = max(self._peaks[region], float(pressure.max()))
            codes += weight * _schmitt_column(pressure, bool(previous & weight))

        # step the phase machine as update() does, off _REST_CODES; at rest it
        # cannot move before the contact changes
        changes = np.flatnonzero(np.diff(codes, prepend=previous)).tolist()
        codes = codes.tolist()
        events: list[GaitEvent] = []
        i = k = 0
        while i < n:
            if codes[i] in _REST_CODES[self._phase]:
                k = bisect_right(changes, i, k)
                i = changes[k] if k < len(changes) else n
                continue
            event = self._step(times.item(i), codes[i])  # a float of the rows stepped only, not of every row
            if event is not None:
                events.append(event)
            i += 1
        self._contact = codes[-1]
        return events

    def _accept(self, t: float) -> None:
        """Admit the next timestamp, or raise naming the sample."""
        if not math.isfinite(t):
            raise ValueError(f"sample {self._sample_index} has a non-finite timestamp: {t}")
        if self._last_timestamp is not None and t <= self._last_timestamp:
            raise ValueError(
                f"sample {self._sample_index} out of order: {t} <= {self._last_timestamp}"
            )
        self._last_timestamp = t
        self._sample_index += 1

    def _step(self, t: float, code: int) -> GaitEvent | None:
        """Run the phase machine on one row of known contact code; returns
        the event of its transition, if the phase moved."""
        phase, since = self._phase, self._phase_since
        new_phase = _MOVES[phase][code]
        if new_phase is phase:
            # dwell: a heel-only initial contact matures into loading response
            # even if the midfoot never distinctly activates
            if phase is not _INITIAL_CONTACT or since is None or t - since < _LOADING_DWELL_S:
                return None
            new_phase = _LOADING_RESPONSE

        if new_phase is not _NEXT_PHASE[phase]:
            self._violations += 1
        if since is not None:
            self._phase_totals[phase] += t - since
            self._phase_counts[phase] += 1
        if phase is _SWING and code & 4:  # the heel is on
            if self._last_strike is None:
                self._first_strike = t
            elif self._toe_off is not None:  # fold in the cycle this strike closes
                x = (self._toe_off - self._last_strike) / (t - self._last_strike)
                mean = self._stance_sum / max(self._stances, 1)  # the first fold adds 0
                self._stances += 1
                self._stance_sum += x
                self._stance_m2 += (x - mean) * (x - self._stance_sum / self._stances)
            self._cycle_index += 1
            self._last_strike, self._toe_off = t, None
            event = GaitEvent(GaitEventKind.HEEL_STRIKE, t, self._cycle_index)
        elif phase is _PRE_SWING and new_phase is _SWING:
            if self._toe_off is None:
                self._toe_off = t
            event = GaitEvent(GaitEventKind.TOE_OFF, t, max(self._cycle_index, 0))
        else:
            event = GaitEvent(
                GaitEventKind.PHASE_TRANSITION, t, max(self._cycle_index, 0), phase=new_phase
            )
        self._phase = new_phase
        self._phase_since = t
        return event

    def report(self) -> GaitReport:
        cycles = max(self._cycle_index, 0)

        # timestamps strictly increase, so two strikes span a positive time
        cadence = 2.0 * cycles / ((self._last_strike - self._first_strike) / 60.0) if cycles else 0.0
        n = max(self._stances, 1)  # without stance figures both read 0.0
        mean, std = self._stance_sum / n, math.sqrt(self._stance_m2 / n)

        durations = {
            phase: total / max(self._phase_counts[phase], 1)
            for phase, total in self._phase_totals.items()
        }
        return GaitReport(
            cycles=cycles,
            cadence_spm=cadence,
            stance_fraction_mean=mean,
            stance_fraction_std=std,
            peak_pressure_pa=dict(self._peaks),
            phase_mean_durations_s=durations,
            sequence_violations=self._violations,
        )


def analyze(samples: Iterable[PressureSample]) -> tuple[list[GaitEvent], GaitReport]:
    """Fold a whole stream as one block; identical to feeding an Analyzer
    sample by sample."""
    analyzer = Analyzer()
    events = analyzer.update_block(*samples_to_columns(samples))
    return events, analyzer.report()


# --- side-by-side sensor comparison -----------------------------------------


@dataclass(frozen=True)
class ComparisonTable:
    """Time-aligned resistance responses: one column of ohms per profile."""

    times_s: tuple[float, ...]
    resistances_ohm: tuple[tuple[float, ...], ...]  # one column per profile


# a comparison bench's dynamics: the defaults without play
_BENCH_DYNAMICS = DynamicsConfig(hysteresis_halfwidth=1e-9)


def compare_sensors(
    times_s: Sequence[float],
    stimuli_pa: Sequence[Sequence[float]],
    profiles: Sequence[CalibrationProfile],
) -> ComparisonTable:
    """Run pressure stimuli through the dynamic sensor model per profile.

    ``stimuli_pa`` holds one series per profile, lists or arrays alike (each
    device pressed on its own schedule). The dynamics are the defaults with
    the play operator disabled: a comparison bench presses the bare device,
    and the logged levels are settled values.
    """
    times = np.asarray(times_s, dtype=float).tolist()
    if not times:
        raise ValueError("empty time base: a comparison needs at least one stimulus row")
    if len(stimuli_pa) != len(profiles):
        raise ValueError(f"{len(profiles)} profiles but {len(stimuli_pa)} stimulus series")
    if any(len(series) != len(times) for series in stimuli_pa):
        raise ValueError("stimulus length does not match time base")

    columns = []
    for profile, series in zip(profiles, stimuli_pa):
        state = SensorState.settled(Pressure(float(series[0])), profile, timestamp=times[0])
        _, ohms = run_channel(state, series[1:], times[1:], profile, _BENCH_DYNAMICS)
        columns.append((state.lagged_resistance.ohms, *ohms.tolist()))
    return ComparisonTable(times_s=tuple(times), resistances_ohm=tuple(columns))
