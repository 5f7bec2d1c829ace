"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import random
import threading
import time
from contextlib import contextmanager

import pytest

from solesense import store
from solesense.acquisition import DividerConfig, divider_current, divider_out, invert_divider
from solesense.analysis import GaitEventKind, analyze
from solesense.cli import main, report_json_text
from solesense.datasets import MEASURED_CALIBRATION
from solesense.sensor import (
    CalibrationPoint,
    builtin_profile,
    characterize,
    fit_profile,
    static_resistance,
)
from solesense.synth import GaitParams, ground_truth, synthesize
from solesense.telemetry import (
    CRC_SPAN,
    BadCrc,
    BadMagic,
    BadVersion,
    Deframer,
    TelemetryFrame,
    crc16_ccitt_false,
    decode,
    encode,
)
from solesense.units import GaitPhase, Pressure, Resistance, mass_table

CONVERSION_TABLE_KPA = [43.6, 87.2, 130.8, 174.4, 218.0, 261.6, 305.2, 348.8, 392.4, 436.0]
BENCH_SENSOR_KOHM = [3342.9] * 5 + [29.16212] * 5 + [3342.9] * 4
BENCH_FSR_KOHM = [3342.9] * 4 + [123.81111] * 3 + [3342.9] * 4 + [2051.325] * 3


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    print(f"PASS criterion {number}: {title}")


def test_criterion_1_force_pressure_table():
    with criterion(1, "mass table reproduces the force/pressure conversion within 0.05 kPa"):
        start = time.perf_counter()
        rows = mass_table(range(1, 11))
        for (_, pressure), expected_kpa in zip(rows, CONVERSION_TABLE_KPA):
            assert abs(pressure.pascals / 1000.0 - expected_kpa) <= 0.05
        assert time.perf_counter() - start < 1.0


def test_criterion_2_divider_roundtrip():
    with criterion(2, "divider inversion is exact to 1e-9 over 10000 random resistances"):
        cfg = DividerConfig()
        rng = random.Random(20240)
        for _ in range(10_000):
            ohms = math.exp(rng.uniform(math.log(200.0), math.log(3.4e6)))
            back = invert_divider(divider_out(Resistance(ohms), cfg), cfg)
            assert abs(back.ohms - ohms) / ohms <= 1e-9
        for ohms in (200.0, 29_162.12, 3_342_900.0):
            back = invert_divider(divider_out(Resistance(ohms), cfg), cfg)
            assert abs(back.ohms - ohms) / ohms <= 1e-9


def test_criterion_3_calibration_fidelity():
    with criterion(3, "fitted measured profile reproduces all calibration points to 1e-9"):
        profile = builtin_profile("measured")
        for pressure, resistance in MEASURED_CALIBRATION:
            got = static_resistance(profile, Pressure(pressure)).ohms
            assert abs(got - resistance) / resistance <= 1e-9
        held_out = (509514.4, 1333783.333)
        rows = [CalibrationPoint(p, r) for p, r in MEASURED_CALIBRATION if (p, r) != held_out]
        loo = fit_profile("loo", rows, Pressure(200_000.0))
        got = static_resistance(loo, Pressure(held_out[0])).ohms
        assert abs(got - held_out[1]) / held_out[1] <= 0.15


def test_criterion_4_characterization_properties():
    with criterion(4, "step timing 120/100 +/- 5 ms, hysteresis <= 6%, current < 1 mA"):
        figures = characterize(builtin_profile("datasheet"))
        assert abs(figures.response_time_s - 0.120) <= 0.005
        assert abs(figures.recovery_time_s - 0.100) <= 0.005
        assert figures.hysteresis_fraction <= 0.06 + 1e-9
        cfg = DividerConfig()
        worst = max(
            divider_current(Resistance(ohms), cfg) for ohms in (1e-6, 200.0, 150_000.0, 3.4e6)
        )
        assert worst <= 1e-3


def test_criterion_5_comparison_replication(tmp_path):
    with criterion(5, "built-in bench stimulus reproduces both comparison columns to 1e-6"):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "-o", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 14
        for row, want_sensor, want_fsr in zip(rows, BENCH_SENSOR_KOHM, BENCH_FSR_KOHM):
            _t, got_sensor, got_fsr = map(float, row.split(","))
            assert abs(got_sensor - want_sensor) / want_sensor <= 1e-6
            assert abs(got_fsr - want_fsr) / want_fsr <= 1e-6


def test_criterion_6_gait_oracle_equivalence():
    with criterion(6, "gait metrics match the synthesis oracle (clean and noisy)"):
        params = GaitParams(
            body_mass_kg=70, cadence_spm=120, stance_fraction=0.6, sample_rate_hz=100, cycles=20
        )
        events, report = analyze(synthesize(params))
        assert abs(report.cadence_spm - 120.0) / 120.0 <= 0.01
        assert abs(report.stance_fraction_mean - 0.6) <= 0.02
        assert report.sequence_violations == 0

        truth = ground_truth(params)
        budget = 1.5 / params.sample_rate_hz
        hs_truth = [r.start_s for r in truth if r.phase == GaitPhase.INITIAL_CONTACT]
        to_truth = [r.start_s for r in truth if r.phase == GaitPhase.SWING]
        heel_strikes = [e.timestamp for e in events if e.kind == GaitEventKind.HEEL_STRIKE]
        toe_offs = [e.timestamp for e in events if e.kind == GaitEventKind.TOE_OFF]
        assert len(heel_strikes) == 20 and len(toe_offs) == 20
        assert all(abs(a - b) <= budget for a, b in zip(heel_strikes, hs_truth))
        assert all(abs(a - b) <= budget for a, b in zip(toe_offs, to_truth))

        noisy = GaitParams(
            body_mass_kg=70,
            cadence_spm=120,
            stance_fraction=0.6,
            sample_rate_hz=100,
            cycles=20,
            noise_sigma_pa=5_000.0,
            seed=7,
        )
        _, noisy_report = analyze(synthesize(noisy))
        assert abs(noisy_report.cadence_spm - 120.0) / 120.0 <= 0.02


def test_criterion_7_protocol_robustness():
    with criterion(7, "codec roundtrip, 192-bit corruption coverage, resync, CRC vector"):
        assert crc16_ccitt_false(b"123456789") == 0x29B1

        rng = random.Random(777)

        def random_frame():
            return TelemetryFrame(
                device_id=rng.randrange(256),
                sequence=rng.randrange(1 << 32),
                timestamp_ms=rng.randrange(1 << 48),
                counts=tuple(rng.randrange(1 << 16) for _ in range(5)),
            )

        for _ in range(10_000):
            frame = random_frame()
            assert decode(encode(frame)) == frame

        wire = bytearray(encode(TelemetryFrame(7, 424242, 987654321, (0, 1000, 2000, 3000, 4095))))
        for bit in range(CRC_SPAN * 8):
            corrupted = bytearray(wire)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises((BadCrc, BadMagic, BadVersion)):
                decode(bytes(corrupted))

        frames = [random_frame() for _ in range(50)]
        stream = bytearray()
        for frame in frames:
            stream += bytes(rng.randrange(256) for _ in range(rng.randint(0, 8)))
            stream += encode(frame)
        assert Deframer().feed(bytes(stream)) == frames


def test_criterion_8_end_to_end_conservation(tmp_path, capsys):
    with criterion(8, "loopback TCP stream conserves samples; online == offline report"):
        src = tmp_path / "source.csv"
        assert main(["simulate", "--mass", "70", "--cycles", "20", "--seed", "7", "-o", str(src)]) == 0
        out = tmp_path / "collected.csv"
        report_path = tmp_path / "report.json"
        results = {}

        def collect():
            results["rc"] = main(
                [
                    "collect",
                    "--addr",
                    "127.0.0.1:0",
                    "-o",
                    str(out),
                    "--analyze",
                    "--report",
                    str(report_path),
                    "--once",
                ]
            )

        thread = threading.Thread(target=collect)
        thread.start()
        addr = None
        for _ in range(300):
            time.sleep(0.02)
            text = capsys.readouterr().out
            if "listening on" in text:
                addr = text.split("listening on ")[1].split()[0]
                break
        assert addr is not None
        assert main(["stream", "-i", str(src), "--addr", addr]) == 0
        thread.join(timeout=60)
        assert results.get("rc") == 0

        source = store.read_session(src)
        collected = store.read_session(out)
        assert len(collected.samples) == len(source.samples) == 2000
        for a, b in zip(source.samples, collected.samples):
            assert a.timestamp == b.timestamp
            assert a.as_row() == b.as_row()

        from solesense.analysis import analyze as analyze_offline

        _, offline = analyze_offline(collected.samples)
        assert report_path.read_text() == report_json_text(offline)


def test_criterion_9_simulate_determinism(tmp_path):
    with criterion(9, "repeated simulate runs are byte-identical"):
        args = [
            "simulate", "--mass", "70", "--cadence", "120", "--cycles", "20",
            "--seed", "7", "--noise", "2000",
        ]
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(args + ["-o", str(first)]) == 0
        assert main(args + ["-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
