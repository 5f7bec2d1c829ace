import math

import numpy as np
import pytest

from solesense.synth import (
    GaitParams,
    channel_shares,
    default_timeline,
    ground_truth,
    peak_fractions,
    synthesize,
    synthesize_columns,
)
from solesense.units import CHANNEL_ORDER, GaitPhase, SoleChannel


class TestTimeline:
    def test_default_boundaries(self):
        timeline = default_timeline(0.6)
        by_phase = {iv.phase: (iv.start_fraction, iv.end_fraction) for iv in timeline.intervals}
        assert by_phase[GaitPhase.SWING] == (0.6, 1.0)
        assert by_phase[GaitPhase.MID_STANCE] == pytest.approx((0.12, 0.31))
        assert by_phase[GaitPhase.INITIAL_CONTACT][0] == 0.0

    def test_boundaries_scale_with_stance(self):
        timeline = default_timeline(0.5)
        ic = timeline.intervals[0]
        assert ic.phase == GaitPhase.INITIAL_CONTACT
        assert ic.end_fraction == pytest.approx(0.02 * 0.5 / 0.6, rel=1e-12)
        assert timeline.intervals[-1].start_fraction == 0.5

    def test_contiguous_cover(self):
        timeline = default_timeline(0.55)
        assert timeline.intervals[0].start_fraction == 0.0
        assert timeline.intervals[-1].end_fraction == 1.0
        for a, b in zip(timeline.intervals, timeline.intervals[1:]):
            assert a.end_fraction == b.start_fraction

    def test_invalid_stance(self):
        with pytest.raises(ValueError):
            default_timeline(0.0)
        with pytest.raises(ValueError):
            default_timeline(1.2)


class TestSynthesize:
    def test_sample_count(self):
        # cadence 120 -> 1 s cycles; 10 cycles at 100 Hz -> exactly 1000 samples
        params = GaitParams(body_mass_kg=70, cadence_spm=120, cycles=10, sample_rate_hz=100)
        assert params.sample_count == 1000
        assert len(list(synthesize(params))) == 1000

    def test_swing_is_silent_without_noise(self):
        params = GaitParams(body_mass_kg=70, cadence_spm=120, cycles=3)
        period = params.cycle_duration_s
        for sample in synthesize(params):
            u = (sample.timestamp % period) / period
            if u >= params.stance_fraction:
                assert all(v == 0.0 for v in sample.as_row())

    def test_peak_pressure_stays_in_sensor_range(self):
        # 70 kg over 2.25e-4 m^2 would be ~3.05 MPa; the 0.18 per-sensor load
        # share brings the heel peak to ~549 kPa, inside the 750 kPa range
        params = GaitParams(body_mass_kg=70)
        assert params.base_pressure_pa == pytest.approx(549_360.0, rel=1e-9)
        peak = max(s.value(SoleChannel.HEEL) for s in synthesize(params))
        assert peak <= 750_000.0

    def test_share_sums_at_load_peaks(self):
        heel_peak_u, fore_peak_u = peak_fractions(0.6)
        at_heel = channel_shares(heel_peak_u, 0.6)
        at_fore = channel_shares(fore_peak_u, 0.6)
        assert sum(at_heel.values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(at_fore.values()) == pytest.approx(1.1, abs=1e-9)

    def test_phase_exclusivity(self):
        params = GaitParams(body_mass_kg=70, cycles=2)
        samples = list(synthesize(params))
        fore_peak = max(samples, key=lambda s: s.value(SoleChannel.FOREFOOT))
        heel_peak = max(samples, key=lambda s: s.value(SoleChannel.HEEL))
        assert fore_peak.value(SoleChannel.HEEL) == 0.0
        assert heel_peak.value(SoleChannel.FOREFOOT) == 0.0

    def test_midfoot_channels_share_equally(self):
        params = GaitParams(body_mass_kg=70, cycles=1)
        for sample in synthesize(params):
            assert sample.value(SoleChannel.MIDFOOT_MEDIAL) == sample.value(
                SoleChannel.MIDFOOT_CENTRAL
            )
            assert sample.value(SoleChannel.MIDFOOT_MEDIAL) == sample.value(
                SoleChannel.MIDFOOT_LATERAL
            )

    def test_deterministic_with_noise(self):
        params = GaitParams(body_mass_kg=70, cycles=2, noise_sigma_pa=5000.0, seed=42)
        a = [s.as_row() for s in synthesize(params)]
        b = [s.as_row() for s in synthesize(params)]
        assert a == b

    def test_noise_never_negative(self):
        params = GaitParams(body_mass_kg=70, cycles=2, noise_sigma_pa=50_000.0, seed=1)
        for sample in synthesize(params):
            assert all(v >= 0.0 for v in sample.as_row())

    @pytest.mark.parametrize("stance", [0.5, 0.6, 0.7])
    @pytest.mark.parametrize("noise", [0.0, 2000.0])
    def test_columns_equal_a_per_sample_scalar_reference(self, stance, noise):
        params = GaitParams(
            body_mass_kg=70, stance_fraction=stance, sample_rate_hz=1000.0, cycles=2,
            noise_sigma_pa=noise, seed=9,
        )
        times, pascals = synthesize_columns(params)
        want_t, want_p = _scalar_synthesis(params)
        assert times.tolist() == want_t
        assert pascals.tolist() == want_p
        assert [(s.timestamp, list(s.as_row())) for s in synthesize(params)] == list(zip(want_t, want_p))
        for u in np.linspace(0.0, 1.0, 41).tolist():
            assert channel_shares(u, stance) == dict(zip(CHANNEL_ORDER, _scalar_shares(u, stance)))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GaitParams(body_mass_kg=-1)
        with pytest.raises(ValueError):
            GaitParams(body_mass_kg=70, stance_fraction=1.2)
        with pytest.raises(ValueError):
            GaitParams(body_mass_kg=70, sample_rate_hz=10)
        with pytest.raises(ValueError):
            GaitParams(body_mass_kg=70, cadence_spm=0)


class TestGroundTruth:
    def test_record_count(self):
        params = GaitParams(body_mass_kg=70, cycles=10)
        assert len(ground_truth(params)) == 60  # 6 phases x 10 cycles

    def test_first_cycle_swing(self):
        params = GaitParams(body_mass_kg=70, cadence_spm=120, stance_fraction=0.6, cycles=1)
        (swing,) = [r for r in ground_truth(params) if r.phase == GaitPhase.SWING]
        assert swing.start_s == pytest.approx(0.6, abs=1e-9)
        assert swing.end_s == pytest.approx(1.0, abs=1e-9)

    def test_boundaries_match_timeline(self):
        params = GaitParams(body_mass_kg=70, cadence_spm=96, stance_fraction=0.55, cycles=3)
        timeline = default_timeline(0.55)
        period = params.cycle_duration_s
        records = ground_truth(params)
        for k in range(3):
            for interval, record in zip(timeline.intervals, records[6 * k : 6 * k + 6]):
                assert record.cycle_index == k
                assert record.phase == interval.phase
                assert record.start_s == pytest.approx((k + interval.start_fraction) * period, abs=1e-9)
                assert record.end_s == pytest.approx((k + interval.end_fraction) * period, abs=1e-9)


def _scalar_shares(u, stance):
    """The envelope one point at a time with math.cos, as the kernel was first written."""
    scale = stance / 0.6
    heel_peak, heel_end = 0.07 * scale, 0.31 * scale
    mid_a, mid_b = 0.08 * scale, 0.53 * scale
    fore_a, fore_peak = 0.31 * scale, 0.55 * scale

    def rise(a, b):
        return 0.5 * (1.0 - math.cos(math.pi * (u - a) / (b - a)))

    def fall(a, b):
        return 0.5 * (1.0 + math.cos(math.pi * (u - a) / (b - a)))

    heel = 0.0
    if 0.0 <= u < heel_peak:
        heel = 1.0 * rise(0.0, heel_peak)
    elif heel_peak <= u < heel_end:
        heel = 1.0 * fall(heel_peak, heel_end)
    mid = 0.0
    if mid_a <= u < mid_b:
        mid = (0.35 / 3.0) * (0.5 * (1.0 - math.cos(2.0 * math.pi * (u - mid_a) / (mid_b - mid_a))))
    fore = 0.0
    if fore_a <= u < fore_peak:
        fore = 1.1 * rise(fore_a, fore_peak)
    elif fore_peak <= u < stance:
        fore = 1.1 * fall(fore_peak, stance)
    return [fore, mid, mid, mid, heel]


def _scalar_synthesis(params):
    rng = np.random.default_rng(params.seed)
    period = params.cycle_duration_s
    times, rows = [], []
    for i in range(params.sample_count):
        t = i / params.sample_rate_hz
        values = [v * params.base_pressure_pa for v in _scalar_shares((t % period) / period, params.stance_fraction)]
        if params.noise_sigma_pa > 0:
            noise = rng.normal(0.0, params.noise_sigma_pa, size=5)
            values = [max(0.0, float(v + n)) for v, n in zip(values, noise)]
        times.append(t)
        rows.append(values)
    return times, rows
