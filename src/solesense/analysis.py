"""Gait-phase detection and gait-quality metrics from 5-channel pressure.

Contact decisions use a Schmitt trigger per foot region (on-threshold above
off-threshold) so threshold dithering never toggles state. Phases follow from
regional contact combinations through a small state machine honoring the
cyclic phase order; illegal transitions are counted, never raised.

Classification uses contact logic only -- never pressure magnitudes -- so no
assumed load levels become load-bearing.

The online Analyzer folds each gait cycle into running figures when the next
heel strike closes it and keeps no events (update() returns them), so its
state and its report are O(1) in session length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .sensor import CalibrationProfile, DynamicsConfig, SensorState, run_channel
from .units import (
    REGION_CHANNELS,
    FootRegion,
    GaitPhase,
    Pressure,
    PressureSample,
)

_NEXT_PHASE = {
    GaitPhase.SWING: GaitPhase.INITIAL_CONTACT,
    GaitPhase.INITIAL_CONTACT: GaitPhase.LOADING_RESPONSE,
    GaitPhase.LOADING_RESPONSE: GaitPhase.MID_STANCE,
    GaitPhase.MID_STANCE: GaitPhase.TERMINAL_STANCE,
    GaitPhase.TERMINAL_STANCE: GaitPhase.PRE_SWING,
    GaitPhase.PRE_SWING: GaitPhase.SWING,
}


@dataclass(frozen=True)
class AnalyzerConfig:
    """Contact thresholds and timing knobs.

    The Schmitt band is +/- ``threshold_band`` around ``contact_pressure_pa``
    (on at 110% of base, off at 90% with the defaults). The base contact
    pressure is a rig choice, not a device figure.
    """

    contact_pressure_pa: float = 20_000.0
    threshold_band: float = 0.10
    reduction: str = "max"  # or "mean" over a region's channels
    loading_dwell_s: float = 0.030

    def __post_init__(self) -> None:
        if self.contact_pressure_pa <= 0:
            raise ValueError("contact pressure must be > 0")
        if not 0.0 < self.threshold_band < 1.0:
            raise ValueError("threshold band must be in (0, 1)")
        if self.reduction not in ("max", "mean"):
            raise ValueError(f"reduction must be 'max' or 'mean', got {self.reduction!r}")

    @property
    def on_threshold_pa(self) -> float:
        return self.contact_pressure_pa * (1.0 + self.threshold_band)

    @property
    def off_threshold_pa(self) -> float:
        return self.contact_pressure_pa * (1.0 - self.threshold_band)


@dataclass(frozen=True)
class ContactState:
    heel_on: bool = False
    midfoot_on: bool = False
    forefoot_on: bool = False

    @property
    def any_on(self) -> bool:
        return self.heel_on or self.midfoot_on or self.forefoot_on


def region_pressure(sample: PressureSample, region: FootRegion, config: AnalyzerConfig) -> float:
    values = [sample.value(c) for c in REGION_CHANNELS[region]]
    return max(values) if config.reduction == "max" else sum(values) / len(values)


def contact_state(
    sample: PressureSample,
    config: AnalyzerConfig = AnalyzerConfig(),
    previous: ContactState = ContactState(),
) -> ContactState:
    """Schmitt-triggered regional contact; between thresholds the previous
    state holds."""

    def decide(pressure: float, was_on: bool) -> bool:
        if pressure >= config.on_threshold_pa:
            return True
        if pressure <= config.off_threshold_pa:
            return False
        return was_on

    return ContactState(
        heel_on=decide(region_pressure(sample, FootRegion.HEEL, config), previous.heel_on),
        midfoot_on=decide(region_pressure(sample, FootRegion.MIDFOOT, config), previous.midfoot_on),
        forefoot_on=decide(region_pressure(sample, FootRegion.FOREFOOT, config), previous.forefoot_on),
    )


def classify_phase(state: ContactState, previous: GaitPhase) -> GaitPhase:
    """Memoryless contact-combination -> phase map.

    The time-based initial-contact/loading-response split lives in the
    analyzer (see Analyzer._dwell); here heel-only keeps whichever of the two
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


class GaitEventKind(Enum):
    HEEL_STRIKE = "heel_strike"
    TOE_OFF = "toe_off"
    PHASE_TRANSITION = "phase_transition"


@dataclass(frozen=True)
class GaitEvent:
    kind: GaitEventKind
    timestamp: float
    cycle_index: int
    phase: GaitPhase | None = None


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

    @classmethod
    def from_json_dict(cls, data: dict) -> "GaitReport":
        return cls(
            cycles=data["cycles"],
            cadence_spm=data["cadence_spm"],
            stance_fraction_mean=data["stance_fraction_mean"],
            stance_fraction_std=data["stance_fraction_std"],
            peak_pressure_pa={FootRegion(k): v for k, v in data["peak_pressure_pa"].items()},
            phase_mean_durations_s={
                GaitPhase(k): v for k, v in data["phase_mean_durations_s"].items()
            },
            sequence_violations=data["sequence_violations"],
        )


@dataclass
class Analyzer:
    """Online single-pass gait analyzer; one instance per stream.

    State and report() are O(1) in session length, and events come only from
    update(); feeding a stream in chunks is equivalent to feeding the concatenation.
    """

    config: AnalyzerConfig = field(default_factory=AnalyzerConfig)
    _contact: ContactState = field(default_factory=ContactState)
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
        if self._last_timestamp is not None and t <= self._last_timestamp:
            raise ValueError(
                f"sample {self._sample_index} out of order: {t} <= {self._last_timestamp}"
            )
        self._last_timestamp = t
        self._sample_index += 1

        for region in FootRegion:
            self._peaks[region] = max(
                self._peaks[region], region_pressure(sample, region, self.config)
            )

        self._contact = contact_state(sample, self.config, self._contact)
        new_phase = classify_phase(self._contact, self._phase)

        # dwell: a heel-only initial contact matures into loading response
        # even if the midfoot never distinctly activates
        if (
            new_phase == GaitPhase.INITIAL_CONTACT
            and self._phase == GaitPhase.INITIAL_CONTACT
            and self._phase_since is not None
            and t - self._phase_since >= self.config.loading_dwell_s
        ):
            new_phase = GaitPhase.LOADING_RESPONSE

        produced: list[GaitEvent] = []
        if new_phase != self._phase:
            if new_phase != _NEXT_PHASE[self._phase]:
                self._violations += 1
            if self._phase_since is not None:
                self._phase_totals[self._phase] += t - self._phase_since
                self._phase_counts[self._phase] += 1
            if self._phase == GaitPhase.SWING and self._contact.heel_on:
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
                produced.append(GaitEvent(GaitEventKind.HEEL_STRIKE, t, self._cycle_index))
            elif self._phase == GaitPhase.PRE_SWING and new_phase == GaitPhase.SWING:
                if self._toe_off is None:
                    self._toe_off = t
                produced.append(GaitEvent(GaitEventKind.TOE_OFF, t, max(self._cycle_index, 0)))
            else:
                produced.append(
                    GaitEvent(
                        GaitEventKind.PHASE_TRANSITION,
                        t,
                        max(self._cycle_index, 0),
                        phase=new_phase,
                    )
                )
            self._phase = new_phase
            self._phase_since = t

        return produced

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


def analyze(
    samples: Iterable[PressureSample], config: AnalyzerConfig = AnalyzerConfig()
) -> tuple[list[GaitEvent], GaitReport]:
    """Fold a whole stream; identical to feeding an Analyzer sample by sample."""
    analyzer = Analyzer(config=config)
    events = [event for sample in samples for event in analyzer.update(sample)]
    return events, analyzer.report()


# --- side-by-side sensor comparison -----------------------------------------


@dataclass(frozen=True)
class ComparisonTable:
    """Time-aligned resistance responses of several sensor models."""

    times_s: tuple[float, ...]
    names: tuple[str, ...]
    resistances_ohm: tuple[tuple[float, ...], ...]  # one row per time step

    def column(self, name: str) -> list[float]:
        idx = self.names.index(name)
        return [row[idx] for row in self.resistances_ohm]


def compare_sensors(
    times_s: Sequence[float],
    stimuli_pa: Sequence[Sequence[float]] | Sequence[float],
    profiles: Sequence[CalibrationProfile],
    dynamics: DynamicsConfig | None = None,
) -> ComparisonTable:
    """Run pressure stimuli through the dynamic sensor model per profile.

    ``stimuli_pa`` is either one series (driven into every profile) or one
    series per profile (each device pressed on its own schedule). The default
    dynamics disable the play operator: a comparison bench presses the bare
    device, and the logged levels are settled values.
    """
    if dynamics is None:
        dynamics = DynamicsConfig(hysteresis_halfwidth=1e-9)
    if stimuli_pa and isinstance(stimuli_pa[0], (list, tuple)):
        stimuli = [list(s) for s in stimuli_pa]
    else:
        stimuli = [list(stimuli_pa)] * len(profiles)
    if len(stimuli) != len(profiles):
        raise ValueError(f"{len(profiles)} profiles but {len(stimuli)} stimulus series")
    for series in stimuli:
        if len(series) != len(times_s):
            raise ValueError("stimulus length does not match time base")

    columns: list[list[float]] = []
    for profile, series in zip(profiles, stimuli):
        state = SensorState.settled(Pressure(series[0]), profile, timestamp=times_s[0])
        _, ohms = run_channel(state, series[1:], times_s[1:], profile, dynamics)
        columns.append([state.lagged_resistance.ohms] + ohms.tolist())

    rows = tuple(tuple(col[i] for col in columns) for i in range(len(times_s)))
    return ComparisonTable(
        times_s=tuple(times_s),
        names=tuple(p.name for p in profiles),
        resistances_ohm=rows,
    )
