import math

import numpy as np
import pytest

from solesense.synth import GaitParams, _envelopes, ground_truth, synthesize, synthesize_columns
from solesense.units import GaitPhase, SoleChannel


class TestTimeline:
    """The phase boundaries of ground_truth, on one-second cycles where times
    equal cycle fractions."""

    def test_default_boundaries(self):
        records = ground_truth(GaitParams(body_mass_kg=70, cadence_spm=120, stance_fraction=0.6, cycles=1))
        by_phase = {r.phase: (r.start_s, r.end_s) for r in records}
        assert by_phase[GaitPhase.SWING] == (0.6, 1.0)
        assert by_phase[GaitPhase.MID_STANCE] == pytest.approx((0.12, 0.31))
        assert by_phase[GaitPhase.INITIAL_CONTACT][0] == 0.0

    def test_boundaries_scale_with_stance(self):
        records = ground_truth(GaitParams(body_mass_kg=70, cadence_spm=120, stance_fraction=0.5, cycles=1))
        ic = records[0]
        assert ic.phase == GaitPhase.INITIAL_CONTACT
        assert ic.end_s == pytest.approx(0.02 * 0.5 / 0.6, rel=1e-12)
        assert records[-1].start_s == 0.5

    def test_contiguous_cover(self):
        params = GaitParams(body_mass_kg=70, cadence_spm=96, stance_fraction=0.55, cycles=3)
        records = ground_truth(params)
        assert records[0].start_s == 0.0
        assert records[-1].end_s == 3 * params.cycle_duration_s
        for a, b in zip(records, records[1:]):
            assert a.end_s == b.start_s

    def test_invalid_stance(self):
        # GaitParams rejects it, so ground_truth never sees one
        for stance in (0.0, 1.2):
            with pytest.raises(ValueError, match="stance_fraction"):
                GaitParams(body_mass_kg=70, stance_fraction=stance)


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
        # at 60% stance the heel-strike load peaks at 7% of the cycle, push-off at 55%
        at_heel, at_fore = _envelopes(np.array([0.07, 0.55]), 0.6).tolist()
        assert sum(at_heel) == pytest.approx(1.0, abs=1e-9)
        assert sum(at_fore) == pytest.approx(1.1, abs=1e-9)

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
        u = np.linspace(0.0, 1.0, 41)
        assert _envelopes(u, stance).tolist() == [_scalar_shares(x, stance) for x in u.tolist()]

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GaitParams(body_mass_kg=-1)
        with pytest.raises(ValueError):
            GaitParams(body_mass_kg=70, stance_fraction=1.2)
        with pytest.raises(ValueError):
            GaitParams(body_mass_kg=70, sample_rate_hz=10)
        with pytest.raises(ValueError):
            GaitParams(body_mass_kg=70, cadence_spm=0)

    @pytest.mark.parametrize(
        "field, value, words",
        [
            ("cadence_spm", math.nan, "cadence"),
            ("cadence_spm", math.inf, "cadence"),
            ("sample_rate_hz", math.nan, "sample rate"),
            ("sample_rate_hz", math.inf, "sample rate"),
            ("noise_sigma_pa", math.nan, "noise sigma"),
            ("noise_sigma_pa", math.inf, "noise sigma"),
            ("load_scale", math.nan, "load scale"),
            ("load_scale", math.inf, "load scale"),
            ("load_scale", -1.0, "load scale"),
            ("load_scale", 1e308, "base pressure that is not finite"),
            ("body_mass_kg", 1e308, "base pressure that is not finite"),
            ("load_scale", 5.6e301, "base pressure that is not finite at its peak share"),
            ("seed", -1, "seed must be >= 0"),
            ("cadence_spm", 1e-300, "10 cycles at cadence 1e-300 and rate 100.0 Hz give 1.2e"),
            ("cadence_spm", 1e-308, "give inf samples, not a count numpy can index"),
            ("sample_rate_hz", 1e308, "give inf samples, not a count numpy can index"),
            pytest.param("cycles", 10**400, "give inf samples, not a count numpy can index", id="cycles-10**400"),
        ],
    )
    def test_non_finite_or_negative_gait_values_are_rejected(self, field, value, words):
        with pytest.raises(ValueError, match=words):
            GaitParams(**{"body_mass_kg": 70, field: value})


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
        # the clinical stance splits at 60% stance, stretched to 55%; swing to the cycle's end
        fractions = [b * 0.55 / 0.6 for b in (0.0, 0.02, 0.12, 0.31, 0.50)] + [0.55, 1.0]
        intervals = list(zip(GaitPhase, fractions, fractions[1:]))
        period = params.cycle_duration_s
        records = ground_truth(params)
        assert len(records) == 18
        for k in range(3):
            for (phase, start, end), record in zip(intervals, records[6 * k : 6 * k + 6]):
                assert record.cycle_index == k
                assert record.phase == phase
                assert record.start_s == pytest.approx((k + start) * period, abs=1e-9)
                assert record.end_s == pytest.approx((k + end) * period, abs=1e-9)


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
