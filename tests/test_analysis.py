import copy
import json
import math
import pickle
import random

import numpy as np
import pytest
from helpers import _region_pressures, _schmitt, receive, reference_update

from solesense.acquisition import DividerConfig
from solesense.analysis import (
    _CONTACTS,
    _LOADING_DWELL_S,
    Analyzer,
    ContactState,
    GaitEventKind,
    analyze,
    classify_phase,
    compare_sensors,
)
from solesense.cli import simulate_session
from solesense.datasets import comparison_stimulus
from solesense.sensor import bench_profile, fsr_reference_profile, measured_profile
from solesense.synth import GaitParams, ground_truth, synthesize
from solesense.telemetry import Collector, encode, frames_from_samples
from solesense.units import CHANNEL_ORDER, REGION_CHANNELS, GaitPhase, Pressure, PressureSample, samples_to_columns

HEEL_ON = 4  # the heel's bit in a contact code, 4 * heel + 2 * midfoot + forefoot


def _sample(t, fore=0.0, mid=0.0, heel=0.0):
    return PressureSample.from_row(t, [fore, mid, mid, mid, heel])


def _contact(sample, was=0):
    """The analyzer's Schmitt-triggered contact code of one sample after the
    code ``was``: between thresholds each region keeps its state."""
    return _schmitt(_region_pressures(sample.as_row()), was)


class TestContactState:
    def test_all_zero_is_off(self):
        assert _contact(_sample(0.0)) == 0

    def test_heel_only(self):
        state = _CONTACTS[_contact(_sample(0.0, heel=549_000.0))]
        assert state.heel_on and not state.midfoot_on and not state.forefoot_on

    def test_dither_inside_band_never_toggles(self):
        # 19-21 kPa sits inside the 18..22 kPa Schmitt band around 20 kPa
        code = 0
        for i in range(50):
            code = _contact(_sample(i, heel=19_000.0 if i % 2 else 21_000.0), code)
            assert code == 0
        code = HEEL_ON
        for i in range(50):
            code = _contact(_sample(i, heel=19_000.0 if i % 2 else 21_000.0), code)
            assert code == HEEL_ON

    def test_monotone_ramp_single_transition_each_way(self):
        code = 0
        transitions = 0
        for k in range(101):
            new = _contact(_sample(k, heel=k * 500.0), code)
            transitions += new != code
            code = new
        assert transitions == 1 and code == HEEL_ON
        for k in range(101):
            new = _contact(_sample(200 + k, heel=(100 - k) * 500.0), code)
            transitions += new != code
            code = new
        assert transitions == 2 and code == 0

    def test_midfoot_uses_max_reduction(self):
        sample = PressureSample.from_row(0.0, [0.0, 0.0, 30_000.0, 0.0, 0.0])
        assert _CONTACTS[_contact(sample)].midfoot_on


class TestClassifyPhase:
    def test_all_off_is_swing(self):
        assert classify_phase(ContactState(), GaitPhase.PRE_SWING) == GaitPhase.SWING

    def test_heel_strike(self):
        state = ContactState(heel_on=True)
        assert classify_phase(state, GaitPhase.SWING) == GaitPhase.INITIAL_CONTACT

    def test_pre_swing(self):
        state = ContactState(forefoot_on=True)
        assert classify_phase(state, GaitPhase.TERMINAL_STANCE) == GaitPhase.PRE_SWING

    def test_midfoot_join_is_loading_response(self):
        state = ContactState(heel_on=True, midfoot_on=True)
        assert classify_phase(state, GaitPhase.INITIAL_CONTACT) == GaitPhase.LOADING_RESPONSE
        assert classify_phase(state, GaitPhase.LOADING_RESPONSE) == GaitPhase.MID_STANCE

    def test_terminal_stance(self):
        state = ContactState(midfoot_on=True, forefoot_on=True)
        assert classify_phase(state, GaitPhase.MID_STANCE) == GaitPhase.TERMINAL_STANCE


class TestAnalyze:
    def test_oracle_equivalence_zero_noise(self):
        params = GaitParams(
            body_mass_kg=70, cadence_spm=120, stance_fraction=0.6, sample_rate_hz=100, cycles=20
        )
        events, report = analyze(synthesize(params))
        assert abs(report.cadence_spm - 120.0) / 120.0 <= 0.01
        assert abs(report.stance_fraction_mean - 0.6) <= 0.02
        assert report.sequence_violations == 0

        truth = ground_truth(params)
        hs_truth = [r.start_s for r in truth if r.phase == GaitPhase.INITIAL_CONTACT]
        to_truth = [r.start_s for r in truth if r.phase == GaitPhase.SWING]
        hs = [e.timestamp for e in events if e.kind == GaitEventKind.HEEL_STRIKE]
        to = [e.timestamp for e in events if e.kind == GaitEventKind.TOE_OFF]
        budget = 1.5 / params.sample_rate_hz
        assert len(hs) == 20 and len(to) == 20
        assert all(abs(a - b) <= budget for a, b in zip(hs, hs_truth))
        assert all(abs(a - b) <= budget for a, b in zip(to, to_truth))

    def test_phase_sequence_is_cyclic(self):
        params = GaitParams(body_mass_kg=70, cadence_spm=120, cycles=5)
        analyzer = Analyzer()
        phases = []
        for sample in synthesize(params):
            analyzer.update(sample)
            if not phases or phases[-1] != analyzer._phase:
                phases.append(analyzer._phase)
        order = [
            GaitPhase.INITIAL_CONTACT,
            GaitPhase.LOADING_RESPONSE,
            GaitPhase.MID_STANCE,
            GaitPhase.TERMINAL_STANCE,
            GaitPhase.PRE_SWING,
            GaitPhase.SWING,
        ]
        # drop the initial swing, then the sequence is exactly cyclic
        seen = phases[1:] if phases and phases[0] == GaitPhase.SWING else phases
        for i, phase in enumerate(seen):
            assert phase == order[i % 6]

    def test_noisy_cadence(self):
        params = GaitParams(
            body_mass_kg=70, cadence_spm=120, cycles=20, noise_sigma_pa=5_000.0, seed=7
        )
        _, report = analyze(synthesize(params))
        assert abs(report.cadence_spm - 120.0) / 120.0 <= 0.02

    def test_empty_stream(self):
        events, report = analyze([])
        assert events == []
        assert report.cycles == 0
        assert report.cadence_spm == 0.0

    def test_single_heel_burst(self):
        samples = [_sample(0.0)] + [_sample(0.01 * k, heel=500_000.0) for k in range(1, 10)]
        samples += [_sample(0.01 * k) for k in range(10, 15)]
        events, report = analyze(samples)
        strikes = [e for e in events if e.kind == GaitEventKind.HEEL_STRIKE]
        toe_offs = [e for e in events if e.kind == GaitEventKind.TOE_OFF]
        assert len(strikes) == 1
        assert len(toe_offs) == 0
        assert report.cycles == 0

    def test_unordered_timestamps_error_names_index(self):
        analyzer = Analyzer()
        analyzer.update(_sample(0.0))
        analyzer.update(_sample(0.01))
        with pytest.raises(ValueError, match="sample 2"):
            analyzer.update(_sample(0.005))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_is_rejected(self, bad):
        rows = [_sample(0.0), _sample(bad, heel=500_000.0), _sample(0.02, heel=500_000.0)]
        analyzer = Analyzer()
        analyzer.update(rows[0])
        with pytest.raises(ValueError, match="sample 1 "):
            analyzer.update(rows[1])
        with pytest.raises(ValueError, match="sample 1 "):
            Analyzer().update_block(*samples_to_columns(rows))
        with pytest.raises(ValueError, match="sample 0 "):
            Analyzer().update(rows[1])

    def test_bad_row_mid_block_raises_after_folding_the_rows_before(self):
        samples = list(synthesize(GaitParams(body_mass_kg=70, cycles=2, noise_sigma_pa=2_000.0, seed=4)))
        samples[120] = PressureSample(samples[100].timestamp, samples[120].channels)
        reference = Analyzer()
        with pytest.raises(ValueError) as row_error:
            for sample in samples:
                reference.update(sample)
        times, pascals = samples_to_columns(samples)
        analyzer = Analyzer()
        analyzer.update_block(times[:50], pascals[:50])
        with pytest.raises(ValueError) as block_error:
            analyzer.update_block(times[50:], pascals[50:])
        assert str(block_error.value) == str(row_error.value)
        assert str(row_error.value).startswith("sample 120 out of order")
        assert analyzer == reference

    def test_chunked_equals_whole(self):
        params = GaitParams(body_mass_kg=70, cycles=6, noise_sigma_pa=2_000.0, seed=3)
        samples = list(synthesize(params))
        whole_events, whole_report = analyze(samples)
        analyzer = Analyzer()
        chunked_events = []
        for chunk_start in range(0, len(samples), 97):
            for sample in samples[chunk_start : chunk_start + 97]:
                chunked_events += analyzer.update(sample)
        assert chunked_events == whole_events
        assert analyzer.report() == whole_report

    def test_state_does_not_grow_with_the_session(self):
        samples = list(synthesize(GaitParams(body_mass_kg=70, cycles=200, noise_sigma_pa=2_000.0, seed=5)))
        analyzer = Analyzer()
        sizes = []
        for k, sample in enumerate(samples, 1):
            analyzer.update(sample)
            if k == 1000:  # 10 cycles of 100 samples
                sizes.append(len(pickle.dumps(analyzer)))
        sizes.append(len(pickle.dumps(analyzer)))
        assert analyzer.report().cycles == 199
        assert abs(sizes[1] - sizes[0]) <= 64

    def test_report_matches_pairing_over_the_event_history(self):
        grid = [
            GaitParams(body_mass_kg=70, stance_fraction=stance, noise_sigma_pa=noise, seed=seed, cycles=8)
            for stance in (0.5, 0.58, 0.62, 0.7)
            for noise in (0.0, 3_000.0, 15_000.0)
            for seed in (1, 2, 3)
        ]
        sessions = [list(synthesize(params)) for params in grid]
        for seed in (1, 2):  # decoded through the sensor and ADC chain
            params = GaitParams(body_mass_kg=70, cycles=8, noise_sigma_pa=2_000.0, seed=seed)
            sessions.append(simulate_session(params, measured_profile()).samples)
        for samples in sessions:
            events, report = analyze(samples)
            cycles, cadence, mean, std = _reference_figures(events)
            assert (report.cycles, report.cadence_spm, report.stance_fraction_mean) == (cycles, cadence, mean)
            assert report.stance_fraction_std == pytest.approx(std, rel=0, abs=1e-15)

    def test_event_timestamps_strictly_increase(self):
        params = GaitParams(body_mass_kg=70, cycles=8, noise_sigma_pa=3_000.0, seed=11)
        events, _ = analyze(synthesize(params))
        stamps = [e.timestamp for e in events]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))

    def test_report_peaks(self):
        params = GaitParams(body_mass_kg=70, cycles=2)
        _, report = analyze(synthesize(params))
        from solesense.units import FootRegion

        assert report.peak_pressure_pa[FootRegion.HEEL] == pytest.approx(549_360.0, rel=0.01)
        assert report.peak_pressure_pa[FootRegion.FOREFOOT] == pytest.approx(604_296.0, rel=0.01)


class TestUpdateBlock:
    """update_block folds a block exactly as update() folds its rows."""

    @staticmethod
    def _sessions():
        for noise in (0.0, 3_000.0, 15_000.0):
            params = GaitParams(body_mass_kg=70, cycles=6, noise_sigma_pa=noise, seed=5)
            yield list(synthesize(params))
            yield simulate_session(params, measured_profile()).samples  # decoded, heel-only stances

    @pytest.mark.parametrize("size", [1, 7, 157, None])
    def test_blocks_equal_rows(self, size):
        for samples in self._sessions():
            by_row = Analyzer()
            row_events = [event for sample in samples for event in by_row.update(sample)]
            times, pascals = samples_to_columns(samples)
            by_block = Analyzer()
            block_events = []
            step = size or len(samples)
            for start in range(0, len(samples), step):
                block_events += by_block.update_block(times[start : start + step], pascals[start : start + step])
            assert row_events and block_events == row_events
            assert by_block.report() == by_row.report()
            assert by_block == by_row  # every piece of state, not only the report

    def test_dwell_and_settling_cross_block_edges(self):
        heel, flat = {"heel": 500_000.0}, {"mid": 500_000.0, "heel": 500_000.0}
        contacts = [{}, heel, heel, flat, flat, flat, {}] + [heel] * 10 + [{}]
        rows = [_sample(0.01 * k, **c) for k, c in enumerate(contacts)]
        by_row = Analyzer()
        row_events = [event for sample in rows for event in by_row.update(sample)]
        phases = [(round(e.timestamp * 100), e.phase) for e in row_events if e.phase is not None]
        # midfoot joining settles over two rows; heel-only contact matures
        # into loading response once it outlasts the 30 ms dwell
        assert (3, GaitPhase.LOADING_RESPONSE) in phases and (4, GaitPhase.MID_STANCE) in phases
        assert (10, GaitPhase.LOADING_RESPONSE) in phases
        times, pascals = samples_to_columns(rows)
        for cut in range(1, len(rows)):
            by_block = Analyzer()
            events = by_block.update_block(times[:cut], pascals[:cut])
            events += by_block.update_block(times[cut:], pascals[cut:])
            assert events == row_events and by_block == by_row

    def test_empty_block_changes_nothing(self):
        analyzer = Analyzer()
        assert analyzer.update_block(np.empty(0), np.empty((0, 5))) == []
        assert analyzer == Analyzer()

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="pascals"):
            Analyzer().update_block(np.zeros(3), np.zeros((3, 4)))


def _update_every_row(analyzer, sample):
    """update() with no at-rest skip: the phase machine (classify_phase plus
    the loading dwell, Analyzer._step) runs on every row, and the peaks and
    the contact pressures come from the sample's channels by name."""
    analyzer._accept(sample.timestamp)
    pressures = []  # forefoot, midfoot, heel, as _schmitt takes them
    for region, channels in REGION_CHANNELS.items():
        pressure = max(sample.value(c) for c in channels)
        analyzer._peaks[region] = max(analyzer._peaks[region], pressure)
        pressures.append(pressure)
    analyzer._contact = _schmitt(pressures, analyzer._contact)
    event = analyzer._step(sample.timestamp, _CONTACTS[analyzer._contact])
    return [] if event is None else [event]


class TestUpdateAtRest:
    """update() skips the phase machine where it cannot move, and nothing else."""

    def test_equals_stepping_every_row(self):
        for samples in TestUpdateBlock._sessions():
            fast, reference = Analyzer(), Analyzer()
            events = [event for sample in samples for event in fast.update(sample)]
            want = [event for sample in samples for event in _update_every_row(reference, sample)]
            assert events and events == want
            assert fast.report() == reference.report()
            assert fast == reference

    @pytest.mark.parametrize("heel_rows, matures", [(5, True), (4, False)])
    def test_heel_only_dwell_edge(self, heel_rows, matures):
        # the first heel-only row at 0 s, so the fifth, at 4 * 0.0075 == 0.03 s
        # (a power-of-two multiple rounds exactly), is exactly the 30 ms dwell after it
        contacts = [{}] + [{"heel": 500_000.0}] * heel_rows + [{}] * 3
        rows = [_sample(0.0075 * (k - 1), **c) for k, c in enumerate(contacts)]
        fast, reference = Analyzer(), Analyzer()
        events = [event for sample in rows for event in fast.update(sample)]
        want = [event for sample in rows for event in _update_every_row(reference, sample)]
        assert events == want and fast == reference
        assert ((0.03, GaitPhase.LOADING_RESPONSE) in [(e.timestamp, e.phase) for e in events]) == matures
        by_block = Analyzer()
        assert by_block.update_block(*samples_to_columns(rows)) == events and by_block == fast

    def test_interleaved_with_blocks_equals_rows(self):
        for samples in TestUpdateBlock._sessions():
            by_row = Analyzer()
            row_events = [event for sample in samples for event in by_row.update(sample)]
            times, pascals = samples_to_columns(samples)
            mixed = Analyzer()
            events = []
            for start in range(0, len(samples), 50):
                stop = start + 50
                if start // 50 % 2:
                    events += mixed.update_block(times[start:stop], pascals[start:stop])
                else:
                    events += [event for sample in samples[start:stop] for event in mixed.update(sample)]
            assert events == row_events
            assert mixed == by_row

    def test_phase_machine_runs_on_few_rows(self, monkeypatch):
        # a session like the benchmark's: 60 cycles at 100 Hz, decoded from the wire codes
        params = GaitParams(
            body_mass_kg=70, cadence_spm=120, stance_fraction=0.6, sample_rate_hz=100,
            cycles=60, noise_sigma_pa=2_000.0, seed=1,
        )
        samples = simulate_session(params, measured_profile()).samples
        stepped = []
        step = Analyzer._step
        monkeypatch.setattr(Analyzer, "_step", lambda self, t, contact: stepped.append(t) or step(self, t, contact))
        analyzer = Analyzer()
        for sample in samples:
            analyzer.update(sample)
        assert len(samples) == 6_000 and analyzer.report().cycles == 59
        assert len(stepped) < 1_000

    def test_blocks_step_the_rows_update_steps(self, monkeypatch):
        # the benchmark-like session again: update_block shares update()'s
        # rest set, so both run the phase machine on the same 438 rows
        params = GaitParams(
            body_mass_kg=70, cadence_spm=120, stance_fraction=0.6, sample_rate_hz=100,
            cycles=60, noise_sigma_pa=2_000.0, seed=1,
        )
        samples = simulate_session(params, measured_profile()).samples
        stepped = []
        step = Analyzer._step
        monkeypatch.setattr(Analyzer, "_step", lambda self, t, contact: stepped.append(t) or step(self, t, contact))
        by_row = Analyzer()
        for sample in samples:
            by_row.update(sample)
        row_steps, stepped[:] = stepped[:], []
        by_block = Analyzer()
        by_block.update_block(*samples_to_columns(samples))
        assert stepped == row_steps and len(row_steps) == 438
        assert by_block == by_row


# the Schmitt thresholds, 22 and 18 kPa, and the float on each side of each
_EDGES = tuple(math.nextafter(edge, to) for edge in (22_000.0, 18_000.0) for to in (-math.inf, edge, math.inf))
# contact codes (4 * heel + 2 * midfoot + forefoot) of one gait cycle, from heel strike to swing
_GAIT_CODES = (4, 6, 7, 3, 1, 0)


def _region_value(rng, on):
    """A region pressure for a row that should read ``on``: often a threshold
    edge or inside the band, where the contact before decides."""
    pick = rng.random()
    if pick < 0.3:
        return rng.choice(_EDGES)
    if pick < 0.45:
        return rng.uniform(18_000.0, 22_000.0)
    if on:
        return rng.choice((500_000.0, rng.uniform(22_000.0, 700_000.0)))
    return rng.choice((0.0, -0.0, rng.uniform(0.0, 18_000.0)))


def _midfoot_channels(rng, value):
    """Three midfoot channels whose max is ``value``, often tied with another
    channel, and with 0.0 and -0.0 mixed when the value is zero."""
    if value == 0.0:
        return [rng.choice((0.0, -0.0)) for _ in range(3)]
    others = [rng.choice((value, value, rng.uniform(0.0, value), 0.0, -0.0)) for _ in range(2)]
    channels = [value, *others]
    rng.shuffle(channels)
    return channels


def _dwell_edge(rng, since):
    """The last timestamp short of the loading dwell after ``since``, or the
    first at it, as Analyzer._step subtracts them."""
    t = since + _LOADING_DWELL_S
    while t - since >= _LOADING_DWELL_S:
        t = math.nextafter(t, -math.inf)
    return math.nextafter(t, math.inf) if rng.random() < 0.5 else t


def _kernel_stream(rng):
    """A seeded stream of canonical-order rows: gait-ordered contact segments
    with a random one at times, values at and around the Schmitt edges, ties
    and signed zeros, and a row at the dwell edge of every heel strike."""
    t = rng.choice((0.0, -0.0, -1.0, rng.uniform(-5.0, 5.0)))
    dt = rng.choice((0.0075, 0.01, 0.004, rng.uniform(0.001, 0.02)))
    rows, k, code = [], 0, 0
    for _ in range(rng.randint(10, 40)):
        was, k = code, k + 1
        code = rng.randrange(8) if rng.random() < 0.15 else _GAIT_CODES[k % len(_GAIT_CODES)]
        edge = None
        for i in range(rng.randint(1, 10)):
            fore, mid, heel = (_region_value(rng, bool(code & bit)) for bit in (1, 2, 4))
            if i == 0 and code == 4 and was != 4:  # a decisive heel strike: initial contact from t
                fore, mid, heel, edge = 0.0, 0.0, 500_000.0, _dwell_edge(rng, t)
            rows.append((t, [fore, *_midfoot_channels(rng, mid), heel]))
            t += dt
            if edge is not None and rows[-1][0] < edge <= t:
                t = edge
    return rows


def _decoded(rows):
    """``rows`` forward through the ADC chain, onto the wire and decoded by
    the collector, which drops rows in a millisecond already taken."""
    profile = measured_profile()
    start = rows[0][0]
    samples = [PressureSample.from_row(t - start, row) for t, row in rows]
    wire = b"".join(encode(frame) for frame in frames_from_samples(samples, profile, DividerConfig()))
    decoded = []
    collector = Collector(lambda _device, sample: decoded.append(sample), profile)
    receive(collector, [wire[i : i + 4096] for i in range(0, len(wire), 4096)])
    return decoded


class TestUpdateKernel:
    """update() gives the events, state, errors and report of reference_update."""

    def test_equals_the_reference_on_seeded_streams(self, monkeypatch):
        # both run the phase machine on the same rows: the rest set is the same
        steps = []
        step = Analyzer._step
        monkeypatch.setattr(Analyzer, "_step", lambda self, t, contact: steps.append(t) or step(self, t, contact))
        rested = stepped = matured = 0
        IC = GaitPhase.INITIAL_CONTACT
        for seed in range(240):
            rng = random.Random(seed)
            rows = _kernel_stream(rng)
            source = seed % 3
            if source == 0:
                samples = [PressureSample.from_row(t, row) for t, row in rows]
            elif source == 1:
                samples = [PressureSample(t, dict(zip(CHANNEL_ORDER, map(Pressure, row)))) for t, row in rows]
            else:
                samples = _decoded(rows)
            kernel, reference = Analyzer(), Analyzer()
            for sample in samples:
                phase = kernel._phase
                events = kernel.update(sample)
                kernel_steps = len(steps)
                assert events == reference_update(reference, sample), f"seed {seed}"
                assert kernel == reference and len(steps) == 2 * kernel_steps, f"seed {seed}"
                steps.clear()
                rested, stepped = rested + (not kernel_steps), stepped + kernel_steps
                # a heel-only initial contact that outlasted the dwell
                matured += (phase, kernel._contact, kernel._phase) == (IC, HEEL_ON, GaitPhase.LOADING_RESPONSE)
            assert kernel.report() == reference.report(), f"seed {seed}"
            assert json.dumps(kernel.report().to_json_dict()) == json.dumps(reference.report().to_json_dict())
        assert min(rested, stepped, matured) > 0

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "equal", "backward"])
    def test_bad_timestamp_raises_the_same_and_changes_nothing(self, bad):
        samples = [PressureSample.from_row(t, row) for t, row in _kernel_stream(random.Random(1))[:40]]
        for before in (0, 1, 20):  # a bad first sample, then one after one and after 20 good ones
            kernel, reference = Analyzer(), Analyzer()
            for sample in samples[:before]:
                kernel.update(sample)
                reference_update(reference, sample)
            last = samples[before - 1].timestamp if before else samples[0].timestamp - 1.0
            t = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "equal": last, "backward": last - 0.5}[bad]
            if before == 0 and bad in ("equal", "backward"):
                # nothing comes before a first sample: its finite timestamp is in order
                kernel.update_block([last], [samples[0].as_row()])
                reference.update_block([last], [samples[0].as_row()])
            unchanged = copy.deepcopy(kernel)
            sample = PressureSample.from_row(t, samples[before].as_row())
            with pytest.raises(ValueError) as got:
                kernel.update(sample)
            with pytest.raises(ValueError) as want:
                reference_update(reference, sample)
            assert str(got.value) == str(want.value)
            assert kernel == unchanged and reference == unchanged
            for sample in samples[before:]:  # the rejected sample left nothing behind
                assert kernel.update(sample) == reference_update(reference, sample)
            assert kernel == reference


def _reference_figures(events):
    """Cycles, cadence and stance mean/std, paired over the whole event list.

    Each cycle runs from one heel strike to the next and takes the first
    toe-off in (strike, next strike]. The mean sums left to right (as sum()
    does up to Python 3.11), the standard deviation takes a second pass.
    """
    strikes = [e.timestamp for e in events if e.kind == GaitEventKind.HEEL_STRIKE]
    toe_offs = [e.timestamp for e in events if e.kind == GaitEventKind.TOE_OFF]
    cycles = max(len(strikes) - 1, 0)
    cadence = 0.0
    if cycles >= 1 and strikes[-1] > strikes[0]:
        cadence = 2.0 * cycles / ((strikes[-1] - strikes[0]) / 60.0)
    fractions = []
    for start, end in zip(strikes, strikes[1:]):
        toe_off = next((t for t in toe_offs if start < t <= end), None)
        if toe_off is not None:
            fractions.append((toe_off - start) / (end - start))
    if not fractions:
        return cycles, cadence, 0.0, 0.0
    total = 0.0
    for x in fractions:
        total += x
    mean = total / len(fractions)
    return cycles, cadence, mean, math.sqrt(sum((x - mean) ** 2 for x in fractions) / len(fractions))


class TestCompareSensors:
    EXPECTED_SENSOR_KOHM = [3342.9] * 5 + [29.16212] * 5 + [3342.9] * 4
    EXPECTED_FSR_KOHM = [3342.9] * 4 + [123.81111] * 3 + [3342.9] * 4 + [2051.325] * 3

    def test_bench_replication(self):
        times, sensor_stim, fsr_stim = comparison_stimulus()
        table = compare_sensors(
            times, [sensor_stim, fsr_stim], [bench_profile(), fsr_reference_profile()]
        )
        assert table.names == ("bench", "fsr")
        sensor, fsr = zip(*table.resistances_ohm)
        for got, want in zip(sensor, self.EXPECTED_SENSOR_KOHM):
            assert got / 1000.0 == pytest.approx(want, rel=1e-6)
        for got, want in zip(fsr, self.EXPECTED_FSR_KOHM):
            assert got / 1000.0 == pytest.approx(want, rel=1e-6)

    def test_zero_stimulus_idles(self):
        times = [float(t) for t in range(10)]
        table = compare_sensors(
            times, [0.0] * 10, [bench_profile(), fsr_reference_profile()]
        )
        for row in table.resistances_ohm:
            assert row[0] == pytest.approx(3_342_900.0, rel=1e-9)
            assert row[1] == pytest.approx(3_342_900.0, rel=1e-9)

    def test_stimulus_shape_validation(self):
        with pytest.raises(ValueError, match="stimulus"):
            compare_sensors([0.0, 1.0], [[1.0, 2.0]], [bench_profile(), fsr_reference_profile()])
        with pytest.raises(ValueError, match="time base"):
            compare_sensors([0.0, 1.0], [[1.0], [2.0]], [bench_profile(), fsr_reference_profile()])
