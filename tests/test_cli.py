import builtins
import dataclasses
import hashlib
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from solesense import cli, sensor, store
from solesense.acquisition import DividerConfig, counts_from_pascals
from solesense.analysis import Analyzer, analyze
from solesense.cli import main, profile_from_json_file, profile_to_json_dict, report_json_text
from solesense.datasets import MEASURED_CALIBRATION
from solesense.sensor import builtin_profile, builtin_profile_names, static_resistance
from solesense.store import LegacyRecord
from solesense.synth import GaitParams
from solesense.telemetry import Collector, Deframer, SessionHeader, TelemetryFrame, encode, frames_from_samples
from solesense.units import Pressure, PressureSample, Resistance, Voltage

from helpers import BENCH_TIME_LOG, count_series, piped, receive, simulate_session, write_legacy_csv

EXPECTED_SENSOR_KOHM = [3342.9] * 5 + [29.16212] * 5 + [3342.9] * 4
EXPECTED_FSR_KOHM = [3342.9] * 4 + [123.81111] * 3 + [3342.9] * 4 + [2051.325] * 3


def _write_measured_csv(path):
    lines = ["pressure_pa,resistance_ohm"]
    lines += [f"{p!r},{r!r}" for p, r in MEASURED_CALIBRATION]
    path.write_text("\n".join(lines) + "\n")


def _analyze_input(tmp_path, name):
    """An input analyze reads, by name: a legacy log, a calibration sweep or a
    session, CSV unless named .jsonl (s.gz is a plain CSV that numpy would
    open as gzip)."""
    path = tmp_path / name
    if name == "bench.csv":
        write_legacy_csv(path, [LegacyRecord(t, p, r) for t, p, r in BENCH_TIME_LOG])
    elif name == "cal.csv":
        _write_measured_csv(path)
    else:
        assert main(["simulate", "--cycles", "3", "--noise", "2000", "-o", str(path)]) == 0
    return path


def _start_collect(argv, capsys):
    """Run ``collect`` on an ephemeral port in a daemon thread, so a failed test cannot hang
    the run; returns the thread, its result and the address."""
    results = {}
    thread = threading.Thread(
        target=lambda: results.update(rc=main(["collect", "--addr", "127.0.0.1:0", *argv])), daemon=True
    )
    thread.start()
    for _ in range(200):
        time.sleep(0.02)
        text = capsys.readouterr().out
        if "listening on" in text:
            return thread, results, text.split("listening on ")[1].split()[0]
    raise AssertionError("collect never started listening")


# gait flags that GaitParams must refuse, with the words its error names them by
BAD_GAIT_FLAGS = [
    ("--noise", "nan", "noise sigma"),
    ("--noise", "inf", "noise sigma"),
    ("--cadence", "inf", "cadence"),
    ("--cadence", "nan", "cadence"),
    ("--load-scale", "nan", "load scale"),
    ("--load-scale", "-1", "load scale"),
    ("--rate", "inf", "sample rate"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
    ("--mass", "1e308", "body mass 1e+308 kg"),
    ("--load-scale", "1e308", "load scale 1e+308 gives a base pressure"),
    ("--load-scale", "5.6e301", "load scale 5.6e+301 gives a base pressure that is not finite at its peak share"),
    # a sample count past numpy's index limit, or past the float range
    ("--cadence", "1e-300", "cadence 1e-300 and rate 100.0 Hz give"),
    ("--cadence", "1e-308", "cadence 1e-308 and rate 100.0 Hz give inf samples"),
    ("--rate", "1e308", "cadence 120.0 and rate 1e+308 Hz give"),
    pytest.param(
        "--cycles", str(10**400), f"{10**400} cycles at cadence 120.0 and rate 100.0 Hz give inf samples",
        id="--cycles-10**400-samples",
    ),
]

# gait flags that GaitParams takes but the synthesizer cannot carry out: a
# data error, with the line that starts its message
OVERFLOWING_GAIT_FLAGS = [
    ("--noise", "1e308", "error: noise sigma 1e+308 Pa overflows"),
    # 711 PiB, beyond any 64-bit CPU's virtual address space (at most 57 bits,
    # 128 PiB): refused at once, whatever the overcommit policy
    ("--cycles", "1000000000000000", "error: Unable to allocate"),
]


class TestSimulate:
    def test_deterministic_reruns_are_byte_identical(self, tmp_path):
        args = ["simulate", "--mass", "70", "--cycles", "5", "--seed", "7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_cycles_writes_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert main(["simulate", "--cycles", "0", "-o", str(out)]) == 0
        log = store.read_session(out)
        assert log.samples == []

    def test_bad_stance_is_usage_error(self, tmp_path, capsys):
        rc = main(["simulate", "--stance", "1.2", "-o", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "stance" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, words", BAD_GAIT_FLAGS)
    def test_non_finite_or_negative_gait_flag_is_usage_error(self, tmp_path, capsys, flag, value, words):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--cycles", "1", flag, value, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("simulate: ") and words in err, err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, words", OVERFLOWING_GAIT_FLAGS)
    def test_gait_flag_the_synthesizer_cannot_carry_out_is_data_error(self, tmp_path, capsys, flag, value, words):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--cycles", "1", flag, value, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(words) and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("device_id", ["256", "300", "-1", "x"])
    def test_device_id_outside_the_frame_byte_is_usage_error(self, tmp_path, capsys, device_id):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--cycles", "1", "--device-id", device_id, "-o", str(out)]) == 1
        assert "0-255" in capsys.readouterr().err
        assert not out.exists()
        assert main(["simulate", "--cycles", "1", "--device-id", "255", "-o", str(out)]) == 0
        assert store.read_session(out).header.device_id == 255

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--bogus", "-o", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "solesense simulate: unrecognized arguments: --bogus\n"

    def test_jsonl_output(self, tmp_path):
        out = tmp_path / "s.jsonl"
        assert main(["simulate", "--cycles", "2", "-o", str(out)]) == 0
        assert len(store.read_session(out).samples) == 200

    @pytest.mark.parametrize("name", builtin_profile_names())
    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_simulate_writes_the_session_simulate_session_gives(self, tmp_path, name, ext):
        # simulate writes its chain's columns; simulate_session's samples,
        # written by write_session, must give the same bytes
        out, want = tmp_path / f"s.{ext}", tmp_path / f"want.{ext}"
        for cycles in (3, 0):
            argv = ["simulate", "--profile", name, "--cycles", str(cycles), "--seed", "5", "--noise", "2000"]
            assert main(argv + ["-o", str(out)]) == 0
            params = GaitParams(body_mass_kg=70.0, cycles=cycles, seed=5, noise_sigma_pa=2000.0)
            store.write_session(simulate_session(params, builtin_profile(name)), want)
            assert out.read_bytes() == want.read_bytes()

    def test_simulate_builds_no_sample(self, tmp_path, monkeypatch):
        built = []  # by the public constructor, or by from_row and the decoders
        init, of = PressureSample.__init__, PressureSample._of
        monkeypatch.setattr(PressureSample, "__init__", lambda self, *args: built.append(1) or init(self, *args))
        monkeypatch.setattr(PressureSample, "_of", classmethod(lambda cls, *args: built.append(1) or of(*args)))
        out = tmp_path / "s.csv"
        assert main(["simulate", "--cycles", "5", "--seed", "3", "--noise", "2000", "-o", str(out)]) == 0
        assert len(built) == 0
        assert len(store.read_session(out).samples) == 500

    def test_out_of_table_code_raises_the_decode_error(self, monkeypatch, capsys, tmp_path):
        # simulate decodes through counts_to_pascals' range check
        monkeypatch.setattr(cli, "quantize_volts", lambda volts: np.full(volts.shape, 1 << 12))
        assert main(["simulate", "--cycles", "1", "-o", str(tmp_path / "s.csv")]) == 2
        assert "count 4096 is outside the 4096 codes" in capsys.readouterr().err


class TestAnalyze:
    def test_session_report(self, tmp_path, capsys):
        # a full-chain session: hysteresis, lag and the 200 kPa onset distort
        # the waveform (the midfoot never reaches onset), but the stride
        # timing survives the chain
        src = tmp_path / "s.csv"
        main(["simulate", "--cycles", "20", "--seed", "3", "-o", str(src)])
        capsys.readouterr()
        assert main(["analyze", str(src)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["cadence_spm"] - 120.0) / 120.0 <= 0.01
        assert report["cycles"] == 19

    def test_session_analysis_builds_no_per_row_samples(self, tmp_path, monkeypatch):
        src = tmp_path / "s.csv"
        main(["simulate", "--cycles", "5", "--seed", "3", "--noise", "2000", "-o", str(src)])
        expected = report_json_text(analyze(store.read_session(src).samples)[1])
        built = []  # by the public constructor, or by from_row and the decoders
        init, of = PressureSample.__init__, PressureSample._of
        monkeypatch.setattr(PressureSample, "__init__", lambda self, *args: built.append(1) or init(self, *args))
        monkeypatch.setattr(PressureSample, "_of", classmethod(lambda cls, *args: built.append(1) or of(*args)))
        out = tmp_path / "r.json"
        assert main(["analyze", str(src), "--json", str(out)]) == 0
        assert len(built) == 0
        assert out.read_text() == expected

    def test_session_of_a_custom_profile_analyzes_without_plots(self, tmp_path, capsys):
        # the session names a profile no built-in has: the report needs none,
        # the plots read it
        cal, profile, src = tmp_path / "cal.csv", tmp_path / "p.json", tmp_path / "s.csv"
        _write_measured_csv(cal)
        assert main(["calibrate", str(cal), "--name", "custom", "-o", str(profile)]) == 0
        assert main(["simulate", "--profile", str(profile), "--cycles", "5", "-o", str(src)]) == 0
        capsys.readouterr()
        out = tmp_path / "r.json"
        assert main(["analyze", str(src), "--json", str(out)]) == 0
        assert out.read_text() == report_json_text(analyze(store.read_session(src).samples)[1])
        plots_dir = tmp_path / "plots"
        assert main(["analyze", str(src), "--json", str(out), "--plots", str(plots_dir)]) == 2
        assert "unknown profile 'custom'" in capsys.readouterr().err
        assert not plots_dir.exists()
        assert main(["analyze", str(src), "--json", str(out), "--plots", str(plots_dir), "--profile", str(profile)]) == 0
        assert (plots_dir / "pressure_response_curve.svg").exists()

    def test_legacy_plot_data_matches_rows(self, tmp_path, capsys):
        legacy = tmp_path / "bench.csv"
        write_legacy_csv(legacy, [LegacyRecord(t, p, r) for t, p, r in BENCH_TIME_LOG])
        plots_dir = tmp_path / "plots"
        assert main(["analyze", str(legacy), "--plots", str(plots_dir)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"kind": "legacy", "records": 15}

        pressure_rows = (plots_dir / "time_vs_pressure.csv").read_text().splitlines()[1:]
        resistance_rows = (plots_dir / "time_vs_resistance.csv").read_text().splitlines()[1:]
        assert len(pressure_rows) == len(resistance_rows) == 15
        for row_p, row_r, (t, p, r) in zip(pressure_rows, resistance_rows, BENCH_TIME_LOG):
            tp, vp = map(float, row_p.split(","))
            tr, vr = map(float, row_r.split(","))
            assert (tp, vp) == (t, p)
            assert (tr, vr) == (t, r)

    def test_calibration_response_curve(self, tmp_path, capsys):
        cal = tmp_path / "cal.csv"
        _write_measured_csv(cal)
        plots_dir = tmp_path / "plots"
        assert main(["analyze", str(cal), "--plots", str(plots_dir)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"kind": "calibration", "points": 9}
        rows = (plots_dir / "pressure_response_curve.csv").read_text().splitlines()[1:]
        got = [tuple(map(float, row.split(","))) for row in rows]
        assert got == [tuple(map(float, pair)) for pair in MEASURED_CALIBRATION]

    def test_plots_are_valid_svg(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        main(["simulate", "--cycles", "2", "-o", str(src)])
        plots_dir = tmp_path / "plots"
        main(["analyze", str(src), "--plots", str(plots_dir), "--json", str(tmp_path / "r.json")])
        capsys.readouterr()
        for name in ("time_vs_pressure", "time_vs_resistance", "pressure_response_curve"):
            svg = (plots_dir / f"{name}.svg").read_text()
            ET.fromstring(svg)  # well-formed XML
            assert (plots_dir / f"{name}.csv").exists()
        assert count_series((plots_dir / "time_vs_pressure.svg").read_text()) == 5

    def test_session_resistance_plot_is_the_static_curve(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        main(["simulate", "--cycles", "4", "--seed", "2", "--noise", "2000", "-o", str(src)])
        plots_dir = tmp_path / "plots"
        assert main(["analyze", str(src), "--plots", str(plots_dir), "--json", str(tmp_path / "r.json")]) == 0
        profile = builtin_profile("measured")
        want = ["t_s,forefoot,midfoot_medial,midfoot_central,midfoot_lateral,heel"]
        for sample in store.read_session(src).samples:
            cells = [repr(sample.timestamp)]
            for pascals in sample.as_row():
                r = static_resistance(profile, Pressure(pascals))
                cells.append("" if r.is_open else repr(r.ohms))  # an open sensor is a gap
            want.append(",".join(cells))
        assert (plots_dir / "time_vs_resistance.csv").read_text().splitlines() == want
        cells = [cell for row in want[1:] for cell in row.split(",")[1:]]
        assert "" in cells and any(cells)  # both open and pressed sensors are checked

    def test_session_plots_evaluate_no_scalar_static_curve(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "s.csv"
        main(["simulate", "--cycles", "60", "--seed", "1", "--noise", "2000", "-o", str(src)])
        calls = []
        scalar = sensor._static_ohms  # what static_resistance evaluates
        monkeypatch.setattr(sensor, "_static_ohms", lambda profile, pascals: calls.append(1) or scalar(profile, pascals))
        plots_dir = tmp_path / "plots"
        assert main(["analyze", str(src), "--plots", str(plots_dir), "--json", str(tmp_path / "r.json")]) == 0
        assert len((plots_dir / "time_vs_resistance.csv").read_text().splitlines()) == 6_001
        assert len(calls) == 0

    def test_session_format_is_read_from_content_not_name(self, tmp_path, capsys):
        jsonl = tmp_path / "s.jsonl"
        main(["simulate", "--cycles", "5", "--seed", "3", "--noise", "2000", "-o", str(jsonl)])
        misnamed = tmp_path / "s_as.csv"
        misnamed.write_bytes(jsonl.read_bytes())
        capsys.readouterr()
        assert main(["analyze", str(jsonl)]) == 0
        want = capsys.readouterr().out
        assert main(["analyze", str(misnamed)]) == 0
        assert capsys.readouterr().out == want

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.csv")]) == 3

    @pytest.mark.parametrize(
        "head", ["# bench 3\npressure_pa,resistance_ohm", " pressure_pa , resistance_ohm"], ids=["note", "spaces"]
    )
    def test_calibration_file_reads_as_calibrate_reads_it(self, tmp_path, capsys, head):
        cal = tmp_path / "cal.csv"
        _write_measured_csv(cal)
        cal.write_text(cal.read_text().replace("pressure_pa,resistance_ohm", head))
        assert main(["calibrate", str(cal)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(cal)]) == 0
        assert json.loads(capsys.readouterr().out) == {"kind": "calibration", "points": 9}

    def test_stimulus_file_is_data_error(self, tmp_path, capsys):
        stim = tmp_path / "stim.csv"
        stim.write_text("time_s,pressure_pa\n0.0,1.0\n")
        assert main(["analyze", str(stim)]) == 2
        assert "compare --stimulus" in capsys.readouterr().err

    def test_mistyped_profile_in_the_header_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        main(["simulate", "--cycles", "1", "-o", str(path)])
        lines = path.read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), "profile": [1]})
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 2
        assert f"{path}:1: " in capsys.readouterr().err

    def test_malformed_jsonl_session_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        main(["simulate", "--cycles", "1", "-o", str(path)])
        lines = path.read_text().splitlines()
        lines[5] = "[1, 2]"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 2
        assert f"{path}:6: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value", [("t_s", "0.0"), ("heel_pa", "0.0"), ("forefoot_pa", True)],
        ids=["string timestamp", "string pressure", "true pressure"],
    )
    def test_sample_value_that_is_no_json_number_is_data_error(self, tmp_path, capsys, field, value):
        path = tmp_path / "s.jsonl"
        main(["simulate", "--cycles", "1", "-o", str(path)])
        lines = path.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), field: value})
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 2
        assert f"{path}:2: {field} must be a JSON number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record, change, message",
        [
            ("event", {"t_s": "soon"}, "t_s must be a JSON number, got str 'soon'"),
            ("event", {"cycle_index": "x"}, "cycle_index must be a JSON integer, got str 'x'"),
            ("report", {"cycles": "many"}, "cycles must be a JSON integer, got str 'many'"),
        ],
        ids=["string event time", "string cycle index", "string cycle count"],
    )
    def test_event_or_report_field_of_the_wrong_type_is_data_error(self, tmp_path, capsys, record, change, message):
        assert main(["simulate", "--cycles", "3", "-o", str(tmp_path / "s.csv")]) == 0
        log = store.read_session(tmp_path / "s.csv")
        log.events, log.report = analyze(log.samples)
        path = tmp_path / "e.jsonl"
        store.write_session(log, path)
        lines = path.read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if json.loads(line)["type"] == record)
        lines[k] = json.dumps({**json.loads(lines[k]), **change})
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:{k + 1}: {message}\n"

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_a_plain_session_named_as_compressed_analyzes_as_csv(self, tmp_path, capsys, suffix):
        source = tmp_path / "s.csv"
        assert main(["simulate", "--cycles", "2", "-o", str(source)]) == 0
        named = tmp_path / f"s{suffix}"
        named.write_bytes(source.read_bytes())
        capsys.readouterr()
        assert main(["analyze", str(source)]) == 0
        expected = capsys.readouterr().out
        assert main(["analyze", str(named)]) == 0
        assert capsys.readouterr().out == expected

    def test_the_session_header_is_read_once(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        assert main(["simulate", "--cycles", "1", "-o", str(path)]) == 0
        passes = []
        first_line = store._first_line
        monkeypatch.setattr(store, "_first_line", lambda fh, pairs: passes.append(1) or first_line(fh, pairs))
        assert main(["analyze", str(path)]) == 0
        assert len(passes) == 1  # the pass that tells the kind is the reader's

    @pytest.mark.parametrize("name", ["s.csv", "s.jsonl", "bench.csv", "cal.csv", "s.gz"])
    def test_the_input_is_opened_once(self, tmp_path, capsys, monkeypatch, name):
        # numpy's own open of a CSV session's body goes through io.open, not this
        path = _analyze_input(tmp_path, name)
        opens, builtin_open = [], open

        def counted(file, *args, **kwargs):
            if file == str(path):
                opens.append(file)
            return builtin_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counted)
        assert main(["analyze", str(path)]) == 0
        assert len(opens) == 1

    @pytest.mark.parametrize("name", ["s.csv", "s.jsonl", "bench.csv", "cal.csv"])
    def test_piped_input_analyzes_as_the_file(self, tmp_path, capsys, name):
        path = _analyze_input(tmp_path, name)
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        want = capsys.readouterr().out
        assert piped(path, lambda pipe: main(["analyze", pipe])) == 0
        assert capsys.readouterr().out == want


class TestCalibrate:
    def test_fit_reproduces_points(self, tmp_path, capsys):
        cal = tmp_path / "cal.csv"
        _write_measured_csv(cal)
        out = tmp_path / "profile.json"
        assert main(["calibrate", str(cal), "--onset", "200000", "-o", str(out)]) == 0
        capsys.readouterr()
        profile = profile_from_json_file(out)
        for p, r in MEASURED_CALIBRATION:
            assert static_resistance(profile, Pressure(p)).ohms == pytest.approx(r, rel=1e-9)

    @pytest.mark.parametrize(
        "body",
        [{"name": "x"}, {"name": "x", "onset_pressure_pa": 1.0, "points": 5}, [1, 2]],
        ids=["no points", "points not a list", "not an object"],
    )
    def test_malformed_profile_file_is_data_error(self, tmp_path, capsys, body):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(body))
        with pytest.raises(sensor.CalibrationError, match="p.json"):
            profile_from_json_file(path)
        assert main(["simulate", "--profile", str(path), "-o", str(tmp_path / "s.csv")]) == 2
        assert "p.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"name": 5}, "name must be a JSON string, got int 5"),
            (
                {"points": [[200000.0, 150000.0, 1.0], [750000.0, 200.0]]},
                "points[0] must be a JSON array of two numbers, got [200000.0, 150000.0, 1.0]",
            ),
            ({"onset_pressure_pa": True}, "onset_pressure_pa must be a JSON number, got bool True"),
            ({"points": [[True, 150000.0], [750000.0, 200.0]]}, "points[0] must be a JSON number, got bool True"),
        ],
        ids=["name not a string", "point of three numbers", "onset true", "point pressure true"],
    )
    def test_a_field_of_the_wrong_json_type_is_a_data_error_naming_the_file(self, tmp_path, capsys, change, message):
        path, out = tmp_path / "p.json", tmp_path / "s.csv"
        path.write_text(json.dumps({**profile_to_json_dict(builtin_profile("measured")), **change}))
        want = f"{path}: not a calibration profile: TypeError: {message}"
        with pytest.raises(sensor.CalibrationError, match=re.escape(want)):
            profile_from_json_file(path)
        assert main(["simulate", "--profile", str(path), "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"points": [[-5, 1000], [700000, 100]]}, "calibration pressure must be > 0, got -5.0"),
            ({"points": [[700000, 100]]}, "need >= 2 distinct calibration pressures, got 1"),
            ({"onset_pressure_pa": -1}, "pressure must be >= 0, got -1.0"),
            (
                {"points": [[10**400, 1000], [700000, 100]]},
                "not a calibration profile: OverflowError: int too large to convert to float",
            ),
        ],
        ids=["point pressure negative", "one point", "onset negative", "point pressure past the float range"],
    )
    def test_a_value_the_fit_refuses_is_a_data_error_naming_the_file(self, tmp_path, capsys, change, message):
        path, out = tmp_path / "q.json", tmp_path / "s.csv"
        path.write_text(json.dumps({**profile_to_json_dict(builtin_profile("measured")), **change}))
        with pytest.raises(sensor.CalibrationError, match=re.escape(f"{path}: {message}")):
            profile_from_json_file(path)
        assert main(["simulate", "--profile", str(path), "-o", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
        assert not out.exists()

    def test_a_profile_file_that_is_not_json_is_a_data_error_naming_it(self, tmp_path, capsys):
        path = tmp_path / "q.json"
        path.write_text("not json\n")
        assert main(["simulate", "--profile", str(path), "-o", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: Expecting value: line 1 column 1 (char 0)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["q.json"]

    def test_a_calibration_csv_with_a_utf8_bom_fits_as_without(self, tmp_path, capsys):
        plain, marked = tmp_path / "cal.csv", tmp_path / "bom.csv"
        _write_measured_csv(plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert main(["calibrate", str(plain), "-o", str(tmp_path / "a.json")]) == 0
        assert main(["calibrate", str(marked), "-o", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "-o", "s.csv"],
            ["stream", "--simulate", "--addr", "127.0.0.1:9"],
            ["collect", "--once", "--addr", "127.0.0.1:0", "-o", "c.csv"],
        ],
        ids=["simulate", "stream --simulate", "collect"],
    )
    def test_missing_profile_file_is_io_error(self, tmp_path, capsys, monkeypatch, argv):
        # a .json path is no built-in name: a missing one is an I/O error that
        # names it, before anything is written, sent or bound
        monkeypatch.chdir(tmp_path)
        missing = str(tmp_path / "missing.json")
        assert main([*argv, "--profile", missing]) == 3
        assert missing in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_profile_file_with_fit_r2_still_loads(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**profile_to_json_dict(builtin_profile("measured")), "fit_r2": 1.0}))
        assert profile_from_json_file(path) == builtin_profile("measured")

    def test_datasheet_range_report(self, tmp_path, capsys):
        cal = tmp_path / "two.csv"
        cal.write_text("pressure_pa,resistance_ohm\n200000.0,150000.0\n750000.0,200.0\n")
        assert main(["calibrate", str(cal)]) == 0
        out = capsys.readouterr().out
        assert "range: 150000 ohm @ 200000 Pa ... 200 ohm @ 750000 Pa" in out
        assert "ohm/Pa" in out and "Pa/ohm" in out
        assert "note: computed Pa/ohm differs from the nominal 0.02 Pa/ohm figure" in out
        assert out.endswith("threshold band: +/- 10 %\n")  # the analyzer's Schmitt band

    @pytest.mark.parametrize("onset", ["nan", "inf", "-inf", "-1"])
    def test_onset_that_is_no_pressure_is_usage_error(self, tmp_path, capsys, onset):
        cal = tmp_path / "cal.csv"
        _write_measured_csv(cal)
        out = tmp_path / "p.json"
        assert main(["calibrate", str(cal), f"--onset={onset}", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("calibrate: --onset must be finite and >= 0"), err
        assert not out.exists()
        assert main(["calibrate", str(cal), "--onset", "0", "-o", str(out)]) == 0
        assert profile_from_json_file(out).onset_pressure == Pressure(0.0)

    def test_single_point_is_data_error(self, tmp_path, capsys):
        cal = tmp_path / "one.csv"
        cal.write_text("pressure_pa,resistance_ohm\n200000.0,150000.0\n")
        assert main(["calibrate", str(cal)]) == 2
        assert ">= 2" in capsys.readouterr().err

    def test_non_monotone_is_data_error(self, tmp_path, capsys):
        cal = tmp_path / "bad.csv"
        cal.write_text("pressure_pa,resistance_ohm\n100000.0,100.0\n200000.0,500.0\n")
        assert main(["calibrate", str(cal)]) == 2
        err = capsys.readouterr().err
        assert "100000" in err and "200000" in err  # names the offending pair


    def test_row_with_an_extra_field_is_data_error(self, tmp_path, capsys):
        cal = tmp_path / "cal.csv"
        cal.write_text("pressure_pa,resistance_ohm\n200000.0,150000.0,1\n750000.0,200.0\n")
        assert main(["calibrate", str(cal)]) == 2
        assert f"{cal}:2: expected 2 fields, got 3" in capsys.readouterr().err

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    def test_closed_stdout_is_io_error(self, tmp_path, unbuffered):
        cal = tmp_path / "cal.csv"
        _write_measured_csv(cal)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # stdout's reader is gone before the first write
        try:
            result = subprocess.run(
                [sys.executable, "-m", "solesense.cli", "calibrate", str(cal)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=30,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 3, result.stderr
        assert "Error" not in result.stderr


class TestCompare:
    def test_builtin_stimulus_reproduces_bench_table(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        svg = tmp_path / "cmp.svg"
        assert main(["compare", "-o", str(out), "--svg", str(svg)]) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()
        assert rows[0] == "time_s,sensor_kohm,fsr_kohm"
        assert len(rows) == 15
        for row, want_s, want_f in zip(rows[1:], EXPECTED_SENSOR_KOHM, EXPECTED_FSR_KOHM):
            _t, got_s, got_f = map(float, row.split(","))
            assert got_s == pytest.approx(want_s, rel=1e-6)
            assert got_f == pytest.approx(want_f, rel=1e-6)
        assert count_series(svg.read_text()) == 2

    def test_zero_stimulus_idles(self, tmp_path, capsys):
        stim = tmp_path / "zero.csv"
        stim.write_text("time_s,pressure_pa\n" + "".join(f"{t}.0,0.0\n" for t in range(5)))
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--stimulus", str(stim), "-o", str(out)]) == 0
        capsys.readouterr()
        for row in out.read_text().splitlines()[1:]:
            _t, s, f = map(float, row.split(","))
            assert s == pytest.approx(3342.9, rel=1e-9)
            assert f == pytest.approx(3342.9, rel=1e-9)

    def test_the_table_is_its_charts_twin_with_an_open_sensor(self, tmp_path, capsys):
        # below measured's onset the sensor is an open circuit: an empty cell in both files
        stim = tmp_path / "stim.csv"
        stim.write_text("time_s,sensor_pa,fsr_pa\n0.0,0.0,0.0\n1.0,500000.0,469052.1\n2.0,0.0,0.0\n")
        out = tmp_path / "cmp.csv"
        svg = tmp_path / "chart.svg"
        argv = ["compare", "--stimulus", str(stim), "--sensor-profile", "measured", "-o", str(out), "--svg", str(svg)]
        assert main(argv) == 0
        capsys.readouterr()
        table = out.read_text()
        assert table == (tmp_path / "chart.csv").read_text()
        rows = [row.split(",") for row in table.splitlines()[1:]]
        assert [sensor for _t, sensor, _f in rows][::2] == ["", ""]
        assert float(rows[1][1]) > 0.0

    @pytest.mark.parametrize(
        "body, message",
        [
            ("time_s,sensor_pa,fsr_pa\n0.0,1.0,2.0\n1.0,1.0\n", ":3: expected 3 fields, got 2"),
            ("time_s,pressure_pa\n0.0,1.0\n1.0,heavy\n", ":3: could not convert"),
            ("time_s,sensor_pa,fsr_pa\n", "stim.csv: empty time base"),
            ("time_s,pressure_pa\n0.0,1.0\n1.0,nan\n", "stim.csv:3: pressure must be finite, got nan"),
            ("time_s,sensor_pa,fsr_pa\n0.0,1.0,2.0\n1.0,1.0,-5\n", "stim.csv:3: pressure must be >= 0, got -5.0"),
            ("time_s,pressure_pa\n0.0,1.0\ninf,1.0\n", "stim.csv:3: time must be finite, got inf"),
            ("time_s,pressure_pa\n0.0,1.0\n2.0,1.0\n1.0,1.0\n", "stim.csv:4: time went backwards, from 2.0 to 1.0"),
        ],
        ids=["short row", "bad value", "header only", "nan pressure", "negative pressure", "infinite time",
             "time backwards"],
    )
    def test_broken_stimulus_is_data_error(self, tmp_path, capsys, body, message):
        stim = tmp_path / "stim.csv"
        stim.write_text(body)
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--stimulus", str(stim), "-o", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_profile_is_data_error(self, tmp_path, capsys):
        rc = main(["compare", "--sensor-profile", "nope", "-o", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "unknown profile" in capsys.readouterr().err


# sha256 of ``simulate --noise 2000 --seed 1 --profile P -o s.EXT``, and of
# the session and report ``collect --analyze --report --once`` writes from
# ``stream --simulate --noise 2000 --seed 4``: a faster chain or writer must
# keep these bytes
GOLDEN_SIMULATE = {
    ("bench", "csv"): "6280e17ef3f67eda7f190bb9494a12b6a033b3500c5e6f009cf0947088ec8d8d",
    ("bench", "jsonl"): "6d457679eba0700f720af35d576c74487d6ac3b480360a376181f09828c3be91",
    ("datasheet", "csv"): "acfdd818c9c260a4f76ad8511a9b48d208aa51a7211d02f2a310c0afa3c8e093",
    ("datasheet", "jsonl"): "c64cad9cfd82a83a1de623e15a0267b1efef30981f406d0a12ee1deae6895960",
    ("fsr", "csv"): "d78ff016267880773f5afac06704a47c98219a5f7beab6a74a3fbd79966cd4ec",
    ("fsr", "jsonl"): "aad0e777af37067e82f8455676113db17100e6696ef1a94447341de1aa8d1785",
    ("measured", "csv"): "5acb032c9d9e2099e9ae3d0ae50d9622f9a7dfa08a68ee7f9f68f368e45e2c85",
    ("measured", "jsonl"): "f5ace1cc0c9fe19de00b0a4e0bd35bbf15d93e89edc77cf3003514a63204ec12",
}
GOLDEN_COLLECTED_SESSION = "42d28740b0c084000228c77f27b9e74a39548d30ca7bc71c5fb4f8f5f1d9bd18"
GOLDEN_COLLECTED_REPORT = "1d9951b456dc0203d63731493ed1650f88597e79d69b110d3f400a3511973ba6"

# a one-column stimulus, and a six-row session written by hand (not by
# simulate, so that a change to the synthesizer cannot move the plots' digests)
GOLDEN_STIMULUS = "time_s,pressure_pa\n0.0,0.0\n0.5,300000.0\n1.0,500000.0\n1.5,500000.0\n2.0,0.0\n2.5,0.0\n"
GOLDEN_SESSION = (
    "# device_id: 1\n# epoch: 1970-01-01T00:00:00Z\n# profile: measured\n# sample_rate_hz: 10.0\n"
    "# v_in: 3.3\n# r1_ohm: 150000.0\n# adc_bits: 12\n# v_ref: 3.3\n"
    "t_s,forefoot_pa,midfoot_medial_pa,midfoot_central_pa,midfoot_lateral_pa,heel_pa\n"
    "0.0,0.0,0.0,0.0,0.0,0.0\n"
    "0.1,0.0,0.0,0.0,0.0,450000.0\n"
    "0.2,0.0,430000.0,440000.0,0.0,620000.0\n"
    "0.3,480000.0,500000.0,0.0,0.0,300000.0\n"
    "0.4,700000.0,0.0,0.0,0.0,0.0\n"
    "0.5,0.0,0.0,0.0,0.0,0.0\n"
)
# sha256 of each file ``compare -o cmp.csv --svg chart.svg`` writes, on the
# built-in bench and on GOLDEN_STIMULUS, and of each file ``analyze --plots``
# writes for GOLDEN_SESSION: a change to the comparison or the charts must keep
# these bytes
GOLDEN_COMPARE = {
    "bench": {
        "cmp.csv": "1df6e3af30aeaf492db95547378a1aa6d95218674cb4fbe9094e6c1f47fea6bd",
        "chart.svg": "13df83740a1e25a93345aec4450d30f28a68fa1f3326671dc683a2fa3fcaf2cb",
        "chart.csv": "1df6e3af30aeaf492db95547378a1aa6d95218674cb4fbe9094e6c1f47fea6bd",
    },
    "stimulus": {
        "cmp.csv": "ce44891600eddb4474f82b507ffd4afe50b067c3ecbd5acdea36cc13573dcb01",
        "chart.svg": "733b29df199fe76da8b1c338ceda8137eddf4bad206e96f2a81ae68aed2f4c59",
        "chart.csv": "ce44891600eddb4474f82b507ffd4afe50b067c3ecbd5acdea36cc13573dcb01",
    },
}
GOLDEN_PLOTS = {
    "time_vs_pressure.svg": "d9ae5b1bf2b16115e563e80be0fac11a0c74144dbdf2082dd90d2637ffe50db0",
    "time_vs_pressure.csv": "dc0bda5af6b3d75d5da3f02ed4f519d3a87e91f44b288e550565d0f266490708",
    "time_vs_resistance.svg": "4f0a6af5485239e198926528068ea3c888ba72afe205daa064ead4a467f1c418",
    "time_vs_resistance.csv": "3ee9c1599a28a183a0b355036571a4f8999e4e9056f6736552eaa74b7c81dba9",
    "pressure_response_curve.svg": "a84de2df536dfc3bd704407040a07a6310737e45659925380329acd60e385d35",
    "pressure_response_curve.csv": "75213421f54e1e65aab04591c2d792f1dd7c4827284d297ed176b55009d345c8",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenOutput:
    @pytest.mark.parametrize("name, ext", sorted(GOLDEN_SIMULATE))
    def test_simulate_writes_the_pinned_bytes(self, tmp_path, capsys, name, ext):
        out = tmp_path / f"s.{ext}"
        assert main(["simulate", "--noise", "2000", "--seed", "1", "--profile", name, "-o", str(out)]) == 0
        assert _sha256(out) == GOLDEN_SIMULATE[name, ext]

    def test_collect_writes_the_pinned_session_and_report(self, tmp_path, capsys):
        session, report = tmp_path / "c.jsonl", tmp_path / "r.json"
        thread, results, addr = _start_collect(
            ["-o", str(session), "--analyze", "--report", str(report), "--once"], capsys
        )
        assert main(["stream", "--simulate", "--noise", "2000", "--seed", "4", "--addr", addr]) == 0
        thread.join(timeout=30)
        assert results["rc"] == 0
        assert _sha256(session) == GOLDEN_COLLECTED_SESSION
        assert _sha256(report) == GOLDEN_COLLECTED_REPORT

    @pytest.mark.parametrize("source", sorted(GOLDEN_COMPARE))
    def test_compare_writes_the_pinned_table_and_chart(self, tmp_path, capsys, source):
        stimulus = []
        if source == "stimulus":
            (tmp_path / "stim.csv").write_text(GOLDEN_STIMULUS)
            stimulus = ["--stimulus", str(tmp_path / "stim.csv")]
        assert main(["compare", *stimulus, "-o", str(tmp_path / "cmp.csv"), "--svg", str(tmp_path / "chart.svg")]) == 0
        assert {name: _sha256(tmp_path / name) for name in GOLDEN_COMPARE[source]} == GOLDEN_COMPARE[source]

    def test_analyze_writes_the_pinned_plots(self, tmp_path, capsys):
        session = tmp_path / "s.csv"
        session.write_text(GOLDEN_SESSION)
        assert main(["analyze", str(session), "--plots", str(tmp_path / "plots")]) == 0
        assert sorted(os.listdir(tmp_path / "plots")) == sorted(GOLDEN_PLOTS)
        assert {name: _sha256(tmp_path / "plots" / name) for name in GOLDEN_PLOTS} == GOLDEN_PLOTS


class TestStreamCollect:
    def test_loopback_conservation_and_report_parity(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        main(["simulate", "--cycles", "5", "--seed", "7", "-o", str(src)])
        out = tmp_path / "c.csv"
        report_path = tmp_path / "r.json"

        thread, results, addr = _start_collect(
            ["-o", str(out), "--analyze", "--report", str(report_path), "--once"], capsys
        )
        assert main(["stream", "-i", str(src), "--addr", addr]) == 0
        thread.join(timeout=30)
        assert results["rc"] == 0

        source = store.read_session(src)
        collected = store.read_session(out)
        assert len(collected.samples) == len(source.samples)
        for a, b in zip(source.samples, collected.samples):
            assert a.timestamp == b.timestamp
            assert a.as_row() == b.as_row()

        from solesense.analysis import analyze
        from solesense.cli import report_json_text

        _, offline = analyze(collected.samples)
        assert report_path.read_text() == report_json_text(offline)

    def test_collect_once_ends_on_an_empty_stream(self, tmp_path, capsys):
        # an empty stream still opens and closes one connection, which ends --once
        out = tmp_path / "c.csv"
        thread, results, addr = _start_collect(["-o", str(out), "--once"], capsys)
        assert main(["stream", "--simulate", "--cycles", "0", "--addr", addr]) == 0
        thread.join(timeout=10)
        hung = thread.is_alive()
        if hung:  # release the waiting collect, so the failure does not leave it listening
            host, port = addr.rsplit(":", 1)
            socket.create_connection((host, int(port)), timeout=5).close()
            thread.join(timeout=30)
        assert not hung, "collect --once kept waiting after an empty stream ended"
        assert results["rc"] == 0
        assert store.read_session(out).samples == []

    @pytest.mark.parametrize("stop", ["SIGTERM", "SIGHUP"])
    def test_a_terminated_collect_writes_what_it_received(self, tmp_path, capsys, stop):
        # kill, timeout and a closed terminal stop collect as Ctrl-C does; in a
        # subprocess, the only place a signal reaches collect's main thread
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        argv = ["collect", "--addr", "127.0.0.1:0", "-o", "c.csv"]
        collect = subprocess.Popen(
            [sys.executable, "-m", "solesense.cli", *argv], cwd=tmp_path, env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            addr = collect.stdout.readline().split()[-1]
            assert main(["stream", "--simulate", "--cycles", "2", "--addr", addr]) == 0
            time.sleep(1.0)  # for the collector to read what the stream sent
            collect.send_signal(getattr(signal, stop))
            assert collect.wait(timeout=30) == 0
        finally:
            collect.kill()
            collect.stdout.close()
        assert len(store.read_columns(tmp_path / "c.csv")[1]) == 200

    def test_a_collect_that_ignores_sighup_keeps_collecting(self, tmp_path, capsys):
        # as under nohup: the ignored SIGHUP stays ignored, and SIGTERM still stops it
        child = (
            "import runpy, signal\n"
            "signal.signal(signal.SIGHUP, signal.SIG_IGN)\n"
            "runpy.run_module('solesense.cli', run_name='__main__')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        argv = ["collect", "--addr", "127.0.0.1:0", "-o", "c.csv"]
        collect = subprocess.Popen(
            [sys.executable, "-c", child, *argv], cwd=tmp_path, env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            addr = collect.stdout.readline().split()[-1]
            collect.send_signal(signal.SIGHUP)
            assert main(["stream", "--simulate", "--cycles", "2", "--addr", addr]) == 0
            time.sleep(1.0)  # for the collector to read what the stream sent
            assert collect.poll() is None
            collect.send_signal(signal.SIGTERM)
            assert collect.wait(timeout=30) == 0
        finally:
            collect.kill()
            collect.stdout.close()
        assert len(store.read_columns(tmp_path / "c.csv")[1]) == 200

    def test_collect_analyze_builds_one_analyzer_per_device(self, tmp_path, capsys, monkeypatch):
        built = []
        init = Analyzer.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Analyzer, "__init__", counted)
        out = tmp_path / "c.csv"
        thread, results, addr = _start_collect(["-o", str(out), "--analyze", "--once"], capsys)
        assert main(["stream", "--simulate", "--cycles", "3", "--seed", "5", "--addr", addr]) == 0
        thread.join(timeout=30)
        assert results["rc"] == 0
        assert len(store.read_session(out).samples) == 300
        assert len(built) == 1

    def test_two_devices_name_files_past_a_dotted_directory(self, tmp_path, capsys):
        # each device's file takes -dev<id> before its own extension, never a directory's
        run = tmp_path / "run.d"
        run.mkdir()
        thread, results, addr = _start_collect(
            ["-o", str(run / "session"), "--analyze", "--report", str(run / "r.json"), "--once"], capsys
        )
        profile = builtin_profile("measured")
        sessions = {
            d: simulate_session(GaitParams(body_mass_kg=mass, cycles=2), profile).samples
            for d, mass in ((1, 60.0), (2, 80.0))
        }
        wire = b"".join(
            encode(frame)
            for d, samples in sessions.items()
            for frame in frames_from_samples(samples, profile, device_id=d)
        )
        host, port = addr.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as conn:
            conn.sendall(wire)
        thread.join(timeout=30)
        assert results["rc"] == 0
        assert sorted(p.name for p in run.iterdir()) == ["r-dev1.json", "r-dev2.json", "session-dev1", "session-dev2"]
        for d, samples in sessions.items():
            collected = store.read_session(run / f"session-dev{d}")
            assert (collected.header.device_id, collected.header.sample_rate_hz) == (d, 100.0)
            assert [(s.timestamp, s.as_row()) for s in collected.samples] == [(s.timestamp, s.as_row()) for s in samples]
            assert (run / f"r-dev{d}.json").read_text() == report_json_text(analyze(samples)[1])

    def test_stream_live_simulation(self, tmp_path, capsys):
        out = tmp_path / "c.csv"

        # --live exercises the terminal meter rendering (display-only)
        thread, _results, addr = _start_collect(["-o", str(out), "--live", "--once"], capsys)
        rc = main(["stream", "--simulate", "--cycles", "3", "--seed", "5", "--addr", addr])
        assert rc == 0
        thread.join(timeout=30)
        assert len(store.read_session(out).samples) == 300

    def test_simulated_stream_replays_simulate_with_online_events(self, tmp_path, capsys):
        flags = ["--cycles", "3", "--seed", "3", "--noise", "2000", "--load-scale", "0.15"]
        source = tmp_path / "s.csv"
        assert main(["simulate", *flags, "-o", str(source)]) == 0
        out = tmp_path / "c.jsonl"
        thread, results, addr = _start_collect(["-o", str(out), "--analyze", "--once"], capsys)
        assert main(["stream", "--simulate", *flags, "--addr", addr]) == 0
        thread.join(timeout=30)
        assert results["rc"] == 0

        collected = store.read_session(out)
        expected = store.read_session(source).samples
        assert [(s.timestamp, s.as_row()) for s in collected.samples] == [(s.timestamp, s.as_row()) for s in expected]
        events, report = analyze(collected.samples)
        assert events and collected.events == events
        assert collected.report == report

    def test_stream_requires_exactly_one_source(self, tmp_path):
        assert main(["stream"]) == 1
        assert main(["stream", "-i", "x.csv", "--simulate"]) == 1

    @pytest.mark.parametrize("flag, value, words", BAD_GAIT_FLAGS)
    def test_stream_refuses_a_bad_gait_flag_before_simulating(self, capsys, monkeypatch, flag, value, words):
        def simulated_counts(*args):
            raise AssertionError("stream simulated a session from a bad gait flag")

        monkeypatch.setattr(cli, "_simulated_counts", simulated_counts)
        assert main(["stream", "--simulate", flag, value, "--addr", "127.0.0.1:9"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("stream: ") and words in err, err

    @pytest.mark.parametrize("flag, value, words", OVERFLOWING_GAIT_FLAGS)
    def test_stream_fails_on_a_gait_flag_the_synthesizer_cannot_carry_out_before_connecting(
        self, capsys, monkeypatch, flag, value, words
    ):
        def create_connection(*args, **kwargs):
            raise AssertionError("stream connected for a session it could not simulate")

        monkeypatch.setattr(cli.socket, "create_connection", create_connection)
        assert main(["stream", "--simulate", "--cycles", "1", flag, value, "--addr", "127.0.0.1:9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(words) and err.count("\n") == 1, err

    def test_bad_epoch_is_usage_error(self, tmp_path, capsys):
        rc = main(["simulate", "--epoch", "yesterday", "-o", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "RFC 3339" in capsys.readouterr().err

    def test_collect_nothing_writes_valid_empty_session(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        profile_path = tmp_path / "p.json"
        profile_path.write_text(json.dumps(profile_to_json_dict(sensor.builtin_profile("bench"))))

        thread, _results, addr = _start_collect(["-o", str(out), "--once", "--profile", str(profile_path)], capsys)
        host, port = addr.rsplit(":", 1)
        conn = socket.create_connection((host, int(port)), timeout=5)
        conn.close()
        thread.join(timeout=30)
        log = store.read_session(out)
        assert log.samples == []
        assert log.header.profile_name == "bench"  # the loaded profile's name, as with samples

    def test_collect_nothing_with_a_report_writes_the_empty_report(self, tmp_path, capsys):
        for name in ("empty.csv", "empty.jsonl"):
            out, report_path = tmp_path / name, tmp_path / f"{name}.report.json"
            thread, results, addr = _start_collect(
                ["-o", str(out), "--analyze", "--report", str(report_path), "--once"], capsys
            )
            host, port = addr.rsplit(":", 1)
            socket.create_connection((host, int(port)), timeout=5).close()
            thread.join(timeout=30)
            assert results["rc"] == 0
            assert report_path.read_text() == report_json_text(Analyzer().report())
            assert json.loads(report_path.read_text())["cycles"] == 0
            if out.suffix == ".csv":
                assert store.read_session(out).samples == []
            else:  # the session file carries the same report, as an analyzed session with samples does
                log = store.read_session(out)
                assert log.samples == [] and log.report == Analyzer().report()

    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_empty_and_one_sample_sessions_record_rate_zero(self, tmp_path, capsys, ext):
        # no rate can be measured from fewer than two samples, none included
        one = simulate_session(GaitParams(body_mass_kg=70.0, cycles=1), builtin_profile("measured")).samples[:1]
        headers = []
        for name, wire in (("empty", b""), ("one", encode(next(frames_from_samples(one, builtin_profile("measured")))))):
            out = tmp_path / f"{name}.{ext}"
            thread, results, addr = _start_collect(["-o", str(out), "--once"], capsys)
            host, port = addr.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=5) as conn:
                conn.sendall(wire)
            thread.join(timeout=30)
            assert results["rc"] == 0
            log = store.read_session(out)
            assert len(log.samples) == (name == "one")
            headers.append(log.header)
            if ext == "csv":
                assert "# sample_rate_hz: 0.0\n" in out.read_text()
        assert headers == [SessionHeader(1, store.DEFAULT_EPOCH, "measured", 0.0)] * 2

    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_rate_is_that_of_the_upper_median_interval(self, tmp_path, capsys, ext):
        # intervals of 10 ms and 20 ms: of an even number, the upper median
        out = tmp_path / f"s.{ext}"
        thread, results, addr = _start_collect(["-o", str(out), "--once"], capsys)
        host, port = addr.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as conn:
            conn.sendall(b"".join(encode(TelemetryFrame(1, k, ms, (0,) * 5)) for k, ms in enumerate((0, 10, 30))))
        thread.join(timeout=30)
        assert results["rc"] == 0
        log = store.read_session(out)
        assert [s.timestamp for s in log.samples] == [0.0, 0.01, 0.03]
        assert log.header.sample_rate_hz == 50.0

    def test_infer_rate_is_a_python_float(self):
        for times, want in (([0.0, 0.01, 0.03], 50.0), ([0.0, 0.01], 100.0), ([0.5], 0.0), ([], 0.0)):
            rate = cli._infer_rate(np.array(times))
            assert rate == want and type(rate) is float

    # 2001:db8::/32 is reserved for documentation, so no machine holds the address
    @pytest.mark.parametrize("host", ["127.0.0.1", "[2001:db8::1]"], ids=["port taken", "an IPv6 host not on this machine"])
    def test_an_address_collect_cannot_listen_on_is_a_network_error(self, tmp_path, capsys, host):
        out = tmp_path / "c.csv"
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            argv = ["collect", "--addr", f"{host}:{taken.getsockname()[1]}", "--once", "-o", str(out)]
            assert main(argv) == 4
        assert capsys.readouterr().err.startswith("network error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "epoch, accepted",
        [
            ("2024-05-01T10:00:00Z", True),
            ("2024-05-01T10:00:00+02:00", True),
            ("2024-13-01T10:00:00Z", False),
            ("", False),
            # ISO 8601 forms that are no RFC 3339 date-time
            ("2024-05-01", False),
            ("2024-05-01 10:00", False),
            ("20240501T100000", False),
            ("2024-W18-3", False),
            ("2024-05-01T10:00:00", False),
        ],
    )
    def test_simulate_and_collect_take_the_epochs_a_session_header_takes(
        self, tmp_path, capsys, monkeypatch, epoch, accepted
    ):
        try:
            SessionHeader(1, epoch, "measured", 0.0)
        except ValueError:
            assert not accepted
        else:
            assert accepted
        simulated, collected = tmp_path / "s.csv", tmp_path / "c.csv"
        rc = main(["simulate", "--cycles", "1", "--epoch", epoch, "-o", str(simulated)])
        if accepted:
            assert rc == 0 and store.read_session(simulated).header.epoch == epoch
            thread, results, addr = _start_collect(["--epoch", epoch, "-o", str(collected), "--once"], capsys)
            host, port = addr.rsplit(":", 1)
            socket.create_connection((host, int(port)), timeout=5).close()
            thread.join(timeout=30)
            assert results["rc"] == 0 and store.read_session(collected).header.epoch == epoch
        else:
            def collector(*args, **kwargs):
                raise AssertionError("collect listened with a bad --epoch")

            monkeypatch.setattr(cli, "Collector", collector)
            assert main(["collect", "--once", "--epoch", epoch, "-o", str(collected)]) == 1
            message = f"--epoch must be an RFC 3339 timestamp, got {epoch!r}"
            assert capsys.readouterr().err.splitlines() == [f"simulate: {message}", f"collect: {message}"]
            assert not simulated.exists() and not collected.exists()

    def test_report_without_analyze_is_usage_error(self, tmp_path):
        # in a subprocess with a timeout, so a collect that starts listening fails instead of hanging
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        argv = ["collect", "--once", "--addr", "127.0.0.1:0", "-o", "s.csv", "--report", "r.json"]
        result = subprocess.run(
            [sys.executable, "-m", "solesense.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=20,
        )
        assert result.returncode == 1 and "--report needs --analyze" in result.stderr
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("case", ["flag", "header"])
    def test_bad_device_id_fails_before_connecting(self, tmp_path, case):
        # in a subprocess with a timeout, so a stream that retries forever fails instead of hanging
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        session = tmp_path / "s.jsonl"
        main(["simulate", "--cycles", "1", "-o", str(session)])
        if case == "flag":
            argv, code, message = ["--simulate", "--device-id", "300"], 1, "0-255"
        else:
            lines = session.read_text().splitlines()
            lines[0] = json.dumps({**json.loads(lines[0]), "device_id": None})
            session.write_text("\n".join(lines) + "\n")
            argv, code, message = ["-i", str(session)], 2, f"{session}:1: "
        with socket.socket() as closed:  # a free port that nothing listens on
            closed.bind(("127.0.0.1", 0))
            port = closed.getsockname()[1]
        result = subprocess.run(
            [sys.executable, "-m", "solesense.cli", "stream", *argv, "--addr", f"127.0.0.1:{port}"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=20,
        )
        assert result.returncode == code and message in result.stderr, result.stderr


class _Links:
    """socket.create_connection for stream, and the connection it returns: an
    in-memory transport whose first ``refusals`` connects and first
    ``failures`` sendalls raise."""

    def __init__(self):
        self.connections = 0
        self.refusals = 0
        self.failures = 0
        self.wire = bytearray()

    def create_connection(self, address, timeout=None):
        self.connections += 1
        if self.refusals:
            self.refusals -= 1
            raise ConnectionRefusedError("nothing listens")
        return self

    def sendall(self, payload):
        if self.failures:
            self.failures -= 1
            raise ConnectionResetError("link dropped")
        self.wire += payload

    def close(self):
        pass


@pytest.fixture
def links(monkeypatch):
    links = _Links()
    monkeypatch.setattr(cli.socket, "create_connection", links.create_connection)
    return links


def _packed(device_id, times, codes) -> bytes:
    """The frames of rows of ADC codes, numbered from 0."""
    rows = enumerate(zip(times.tolist(), codes.tolist()))
    return b"".join(encode(TelemetryFrame(device_id, k, round(t * 1000.0), tuple(c))) for k, (t, c) in rows)


class TestStreamWire:
    @pytest.mark.parametrize("name", builtin_profile_names())
    def test_simulated_stream_sends_the_adc_codes(self, links, capsys, name):
        # the device twin sends what its ADC reads: re-encoding the decoded
        # pressures would change 75 of measured's 5,000 codes
        argv = ["stream", "--simulate", "--noise", "2000", "--seed", "1", "--profile", name, "--addr", "127.0.0.1:9"]
        assert main(argv) == 0
        params = GaitParams(body_mass_kg=70.0, noise_sigma_pa=2000.0, seed=1)
        times, codes = cli._simulated_counts(params, builtin_profile(name))
        assert bytes(links.wire) == _packed(1, times, codes)

    def test_stream_reports_retries(self, links, capsys):
        links.failures = 1
        assert main(["stream", "--simulate", "--cycles", "3", "--addr", "127.0.0.1:9"]) == 0
        assert capsys.readouterr().out == "sent 300 frames to 127.0.0.1:9, 1 retries\n"
        assert links.connections == 2
        assert [frame.sequence for frame in Deframer().feed(bytes(links.wire))] == list(range(300))

    def test_stream_counts_refused_connects_as_retries(self, links, capsys):
        links.refusals = 2  # the emitter backs off 0.1 s, then 0.2 s
        assert main(["stream", "--simulate", "--cycles", "3", "--addr", "127.0.0.1:9"]) == 0
        assert capsys.readouterr().out == "sent 300 frames to 127.0.0.1:9, 2 retries\n"
        assert links.connections == 3
        assert [frame.sequence for frame in Deframer().feed(bytes(links.wire))] == list(range(300))

    @pytest.mark.parametrize("bits", [12.5, True])
    def test_a_header_adc_bits_that_is_no_integer_is_a_data_error(self, tmp_path, links, capsys, bits):
        # 12.5 shifts no bits, and True would read as a 1-bit ADC
        session = tmp_path / "s.jsonl"
        assert main(["simulate", "--cycles", "1", "-o", str(session)]) == 0
        lines = session.read_text().splitlines()
        header = json.loads(lines[0])
        header["divider"]["adc_bits"] = bits
        session.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        assert main(["stream", "-i", str(session), "--addr", "127.0.0.1:9"]) == 2
        err = capsys.readouterr().err
        assert f"{session}:1: " in err and "adc_bits" in err and "Traceback" not in err
        assert links.connections == 0

    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_a_header_v_ref_of_zero_is_a_data_error(self, tmp_path, links, capsys, ext):
        # at a 0 V reference every row would frame as the idle full-scale code
        session = tmp_path / f"s.{ext}"
        assert main(["simulate", "--cycles", "1", "-o", str(session)]) == 0
        if ext == "csv":
            session.write_text(session.read_text().replace("# v_ref: 3.3\n", "# v_ref: 0.0\n"))
        else:
            lines = session.read_text().splitlines()
            header = json.loads(lines[0])
            header["divider"]["v_ref"] = 0
            session.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        assert main(["stream", "-i", str(session), "--addr", "127.0.0.1:9"]) == 2
        err = capsys.readouterr().err
        assert f"{session}:" in err and "v_ref must be > 0" in err and "Traceback" not in err
        assert links.connections == 0 and links.wire == b""

    def test_an_empty_session_sends_nothing(self, tmp_path, links, capsys):
        session = tmp_path / "s.csv"
        assert main(["simulate", "--cycles", "0", "-o", str(session)]) == 0
        capsys.readouterr()
        assert main(["stream", "-i", str(session), "--addr", "127.0.0.1:9"]) == 0
        assert capsys.readouterr().out == "sent 0 frames to 127.0.0.1:9, 0 retries\n"
        # one connection, opened and closed, so that a collect --once ends
        assert links.connections == 1 and links.wire == b""

    def test_jsonl_session_sends_its_csv_twins_wire(self, tmp_path, links, capsys):
        wires = []
        for ext in ("csv", "jsonl"):
            path = tmp_path / f"s.{ext}"
            assert main(["simulate", "--cycles", "3", "--seed", "2", "--noise", "2000", "-o", str(path)]) == 0
            links.wire.clear()
            assert main(["stream", "-i", str(path), "--addr", "127.0.0.1:9"]) == 0
            wires.append(bytes(links.wire))
        _header, times, pascals = store.read_columns(tmp_path / "s.csv")
        assert wires[0] == wires[1] == _packed(1, times, counts_from_pascals(pascals, builtin_profile("measured")))

    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_session_header_sets_the_device_and_not_the_divider(self, tmp_path, links, capsys, ext):
        # the header's divider records how the session was acquired; the
        # link's codes are the collector's, on the library's divider
        source = tmp_path / "s.csv"
        assert main(["simulate", "--cycles", "2", "-o", str(source)]) == 0
        _header, times, pascals = store.read_columns(source)
        divider = DividerConfig(adc_bits=10)
        session = tmp_path / f"s10.{ext}"
        store.write_columns(SessionHeader(7, store.DEFAULT_EPOCH, "measured", 100.0, divider), times, pascals, session)
        assert main(["stream", "-i", str(session), "--addr", "127.0.0.1:9"]) == 0
        codes = counts_from_pascals(pascals, builtin_profile("measured"))
        assert codes.max() > (1 << 10) - 1  # past the 10-bit full scale
        assert bytes(links.wire) == _packed(7, times, codes)

    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    @pytest.mark.parametrize("name", builtin_profile_names())
    @pytest.mark.parametrize(
        "divider",
        [DividerConfig(adc_bits=10), DividerConfig(Voltage(5.0), Resistance(47_000.0), 10, Voltage(4.096))],
        ids=["10 bit", "5 V, 47 kohm, 10 bit, 4.096 V"],
    )
    def test_a_replayed_session_collects_as_its_source_whatever_divider_its_header_names(
        self, tmp_path, links, capsys, ext, name, divider
    ):
        source = tmp_path / f"s.{ext}"
        argv = ["simulate", "--cycles", "2", "--noise", "2000", "--seed", "1", "--profile", name, "-o", str(source)]
        assert main(argv) == 0
        header, times, pascals = store.read_columns(source)
        session = tmp_path / f"d.{ext}"
        store.write_columns(dataclasses.replace(header, divider=divider), times, pascals, session)
        assert main(["stream", "-i", str(session), "--addr", "127.0.0.1:9"]) == 0
        sunk = []
        receive(Collector(lambda device_id, sample: sunk.append(sample), builtin_profile(name)), [bytes(links.wire)])
        assert [s.timestamp for s in sunk] == times.tolist()
        assert [s.as_row() for s in sunk] == list(map(tuple, pascals.tolist()))

    @pytest.mark.parametrize(
        "argv",
        [["stream", "-i", "{src}", "--addr", "127.0.0.1:9"], ["analyze", "{src}", "--plots", "{tmp}/d"]],
        ids=["stream", "analyze --plots"],
    )
    def test_a_header_profile_no_built_in_has_names_the_file_and_the_flag(self, tmp_path, links, capsys, argv):
        cal, profile, src = tmp_path / "cal.csv", tmp_path / "p.json", tmp_path / "s.csv"
        _write_measured_csv(cal)
        assert main(["calibrate", str(cal), "--name", "custom", "-o", str(profile)]) == 0
        assert main(["simulate", "--profile", str(profile), "--cycles", "1", "-o", str(src)]) == 0
        capsys.readouterr()
        assert main([arg.format(src=src, tmp=tmp_path) for arg in argv]) == 2
        known = ", ".join(builtin_profile_names())
        assert capsys.readouterr().err == (
            f"error: {src}: its header names an unknown profile 'custom' (built-ins: {known}); give --profile\n"
        )
        assert links.connections == 0 and not (tmp_path / "d").exists()


class TestAddrDefaults:
    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv("SOLESENSE_ADDR", "10.0.0.1:9000")
        from solesense.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["stream", "-i", "x.csv"])
        assert args.addr == "10.0.0.1:9000"

    def test_default_port(self, monkeypatch):
        monkeypatch.delenv("SOLESENSE_ADDR", raising=False)
        from solesense.cli import build_parser

        args = build_parser().parse_args(["stream", "-i", "x.csv"])
        assert args.addr == "127.0.0.1:7332"

    @pytest.mark.parametrize("addr", ["127.0.0.1:70000", "127.0.0.1:-1", "127.0.0.1:abc"])
    def test_bad_port_is_usage_error(self, tmp_path, capsys, monkeypatch, addr):
        out = tmp_path / "x.csv"
        assert main(["collect", "--once", "--addr", addr, "-o", str(out)]) == 1
        monkeypatch.setenv("SOLESENSE_ADDR", addr)
        assert main(["collect", "--once", "-o", str(out)]) == 1
        assert capsys.readouterr().err.count("0-65535") == 2
        assert not out.exists()

    def test_stream_with_a_bad_port_fails_at_once(self, tmp_path):
        # in a subprocess with a timeout, so a stream that retries forever fails instead of hanging
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        result = subprocess.run(
            [sys.executable, "-m", "solesense.cli", "stream", "--simulate", "--cycles", "1", "--addr", "127.0.0.1:70000"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=20,
        )
        assert result.returncode == 1 and "0-65535" in result.stderr

    @pytest.mark.parametrize("where", ["flag", "environment"])
    def test_stream_to_port_0_is_usage_error(self, tmp_path, where):
        # port 0 is any free port to collect, and no collector's; in a subprocess
        # with a timeout, so a stream that retries forever fails instead of hanging
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        argv = ["stream", "--simulate", "--cycles", "1"]
        if where == "flag":
            argv += ["--addr", "127.0.0.1:0"]
        else:
            env["SOLESENSE_ADDR"] = "127.0.0.1:0"
        result = subprocess.run(
            [sys.executable, "-m", "solesense.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=20,
        )
        assert result.returncode == 1 and "'127.0.0.1:0'" in result.stderr, result.stderr


    def test_stream_to_a_host_that_does_not_resolve_is_a_network_error_at_once(self, tmp_path):
        # the child's resolver fails every lookup, so the test sends no query;
        # a subprocess with a timeout, so a stream that retries forever fails instead of hanging
        child = (
            "import runpy, socket\n"
            "def getaddrinfo(*args, **kwargs):\n"
            "    raise socket.gaierror(socket.EAI_NONAME, 'Name or service not known')\n"
            "socket.getaddrinfo = getaddrinfo\n"
            "runpy.run_module('solesense.cli', run_name='__main__')\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        result = subprocess.run(
            [sys.executable, "-c", child, "stream", "--simulate", "--cycles", "1", "--addr", "nosuchhost.invalid:7332"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 4
        assert result.stderr == f"network error: [Errno {socket.EAI_NONAME}] Name or service not known\n"

COMMAND_NAMES = ["simulate", "stream", "collect", "analyze", "calibrate", "compare"]


class TestOneCommandParser:
    @pytest.mark.parametrize("name", COMMAND_NAMES)
    def test_command_help_is_the_full_parsers(self, capsys, name):
        with pytest.raises(SystemExit) as full:
            cli.build_parser().parse_args([name, "-h"])
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as one:
            main([name, "-h"])
        assert one.value.code == full.value.code == 0
        assert capsys.readouterr() == want
        assert want.out.startswith(f"usage: solesense {name} [-h]")

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and out.startswith("usage: solesense [-h]")
        assert "{" + ",".join(COMMAND_NAMES) + "}" in out

    @pytest.mark.parametrize(
        "argv, words",
        [([], "required: command"), (["bogus"], "invalid choice: 'bogus'"), (["--"], "required: command")],
    )
    def test_no_command_is_a_usage_error_of_the_full_parser(self, capsys, argv, words):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("solesense: ") and words in err and err.count("\n") == 1, err

    def test_a_usage_error_names_its_command(self, capsys):
        assert main(["analyze", "a.csv", "b.csv"]) == 1
        assert capsys.readouterr().err == "solesense analyze: unrecognized arguments: b.csv\n"

    @pytest.mark.parametrize("name", ["simulate", "analyze"])
    def test_a_call_builds_no_other_commands_flags(self, tmp_path, capsys, monkeypatch, name):
        session, report = tmp_path / "s.csv", tmp_path / "r.json"
        assert main(["simulate", "--cycles", "2", "-o", str(session)]) == 0

        def refuse(*args):
            raise AssertionError(f"{name} built a parser it does not parse with")

        for other, (help_line, _flags, handler) in cli._COMMANDS.items():
            if other != name:
                monkeypatch.setitem(cli._COMMANDS, other, (help_line, refuse, handler))
        monkeypatch.setattr(cli, "build_parser", refuse)
        if name == "analyze":
            monkeypatch.setattr(cli, "_gait_flags", refuse)
            assert main(["analyze", str(session), "--json", str(report)]) == 0
            assert json.loads(report.read_text())["cycles"] >= 1
        else:
            assert main(["simulate", "--cycles", "2", "-o", str(session)]) == 0
            assert len(store.read_session(session).samples) == 200


class TestEmptyWorkingRange:
    """An onset at or above the last calibration pressure leaves a profile no
    working range: every command refuses it as a data error."""

    def test_calibrate_with_the_onset_at_the_last_point_is_a_data_error(self, tmp_path, capsys):
        cal, out = tmp_path / "cal.csv", tmp_path / "p.json"
        cal.write_text("pressure_pa,resistance_ohm\n200000.0,150000.0\n400000.0,20000.0\n750000.0,200.0\n")
        assert main(["calibrate", str(cal), "--onset", "750000", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {cal}: onset 750000.0 Pa is not below the last calibration pressure, 750000.0 Pa\n"
        assert captured.out == "" and not out.exists()

    def test_calibrate_on_a_working_range_one_float_step_wide_is_a_data_error(self, tmp_path, capsys):
        # it printed 0.0 ms response and recovery and 0.00 % hysteresis
        cal = tmp_path / "cal.csv"
        cal.write_text("pressure_pa,resistance_ohm\n200000.0,150000.0\n400000.0,20000.0\n750000.0,200.0\n")
        assert main(["calibrate", str(cal), "--onset", "749999.9999999999"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {cal}: working range 749999.9999999999 Pa to 750000.0 Pa is too narrow: under 1e-09 of its top pressure\n"
        )
        assert captured.out == ""

    def test_calibrate_with_the_default_onset_above_the_sweep_is_a_data_error(self, tmp_path, capsys):
        cal = tmp_path / "low.csv"
        cal.write_text("pressure_pa,resistance_ohm\n100000.0,150000.0\n150000.0,20000.0\n")
        assert main(["calibrate", str(cal)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cal}: onset 200000.0 Pa is not below the last calibration pressure, 150000.0 Pa\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--cycles", "2", "-o", "s.csv", "--profile"],
            ["compare", "-o", "t.csv", "--sensor-profile"],
            ["analyze", "s0.csv", "--profile"],
        ],
        ids=["simulate", "compare", "analyze"],
    )
    def test_a_profile_file_whose_onset_is_its_top_point_is_a_data_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--cycles", "1", "-o", "s0.csv"]) == 0
        deg = tmp_path / "deg.json"
        deg.write_text(json.dumps({**profile_to_json_dict(sensor.builtin_profile("datasheet")), "onset_pressure_pa": 750_000.0}))
        capsys.readouterr()
        assert main([*argv, str(deg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {deg}: onset 750000.0 Pa is not below the last calibration pressure, 750000.0 Pa\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["deg.json", "s0.csv"]


class TestAnalyzeProfileFlag:
    """An explicit --profile is loaded with or without --plots, for any kind of file."""

    @pytest.mark.parametrize("kind", ["session", "legacy"])
    def test_an_unknown_profile_is_a_data_error(self, tmp_path, capsys, kind):
        src = tmp_path / "in.csv"
        if kind == "session":
            assert main(["simulate", "--cycles", "2", "-o", str(src)]) == 0
        else:
            write_legacy_csv(src, [LegacyRecord(0.0, 200_000.0, 150_000.0)])
        capsys.readouterr()
        out = tmp_path / "r.json"
        assert main(["analyze", str(src), "--json", str(out), "--profile", "bogus"]) == 2
        assert "unknown profile 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_a_missing_profile_file_is_an_io_error(self, tmp_path, capsys):
        src, missing = tmp_path / "s.csv", tmp_path / "missing.json"
        assert main(["simulate", "--cycles", "2", "-o", str(src)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(src), "--profile", str(missing)]) == 3
        captured = capsys.readouterr()
        assert str(missing) in captured.err and captured.out == ""

    def test_a_session_with_a_non_finite_time_names_its_line(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        assert main(["simulate", "--cycles", "1", "-o", str(src)]) == 0
        lines = src.read_text().splitlines()
        lines[9] = ",".join(["nan", *lines[9].split(",")[1:]])
        src.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", str(src)]) == 2
        assert capsys.readouterr().err == f"error: {src}:10: timestamp must be finite, got nan\n"


def _collect_refused(argv, capsys):
    """Run ``collect --once`` in a daemon thread and return its exit code and
    stderr, for a collect that must fail before it listens. One that listens
    is released by a connection and fails the test instead of hanging it."""
    results = {}
    thread = threading.Thread(
        target=lambda: results.update(rc=main(["collect", "--once", "--addr", "127.0.0.1:0", *argv])), daemon=True
    )
    thread.start()
    out = err = ""
    for _ in range(500):
        thread.join(timeout=0.02)
        captured = capsys.readouterr()
        out, err = out + captured.out, err + captured.err
        if "listening on" in out:
            host, port = out.split("listening on ")[1].split()[0].rsplit(":", 1)
            socket.create_connection((host, int(port)), timeout=5).close()
            thread.join(timeout=30)
            raise AssertionError("collect listened before it checked its output paths")
        if not thread.is_alive():
            return results["rc"], err
    raise AssertionError("collect neither listened nor returned")


class TestCollectOutputPaths:
    @pytest.mark.parametrize(
        "flags, named",
        [
            (["-o", "{tmp}/nodir/c.csv"], "{tmp}/nodir/c.csv"),
            (["-o", "{tmp}"], "{tmp}"),
            (["-o", "{tmp}/c.csv", "--analyze", "--report", "{tmp}/nodir/r.json"], "{tmp}/nodir/r.json"),
            (["-o", "{tmp}/c.jsonl", "--analyze", "--report", "{tmp}"], "{tmp}"),
        ],
        ids=["output directory missing", "output is a directory", "report directory missing", "report is a directory"],
    )
    def test_a_path_collect_cannot_write_is_an_io_error_before_it_listens(self, tmp_path, capsys, flags, named):
        rc, err = _collect_refused([flag.format(tmp=tmp_path) for flag in flags], capsys)
        assert rc == 3
        assert err.startswith("i/o error: ") and repr(named.format(tmp=tmp_path)) in err
        assert list(tmp_path.iterdir()) == []

    def test_report_without_analyze_is_a_usage_error_before_it_listens(self, tmp_path, capsys, monkeypatch):
        def collector(*args, **kwargs):
            raise AssertionError("collect listened with --report and no --analyze")

        monkeypatch.setattr(cli, "Collector", collector)
        argv = ["collect", "--once", "-o", str(tmp_path / "s.csv"), "--report", str(tmp_path / "r.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "collect: --report needs --analyze\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "report", ["same.csv", "{tmp}/same.csv", "{tmp}/./link.csv"], ids=["same", "absolute", "symlink"]
    )
    def test_a_report_on_the_session_file_is_a_usage_error_before_it_listens(
        self, tmp_path, capsys, monkeypatch, report
    ):
        # the report, written last, would replace the session
        monkeypatch.chdir(tmp_path)
        os.symlink("same.csv", tmp_path / "link.csv")
        argv = ["-o", "same.csv", "--analyze", "--report", report.format(tmp=tmp_path)]
        assert _collect_refused(argv, capsys) == (1, "collect: --report and -o name the same file\n")
        assert [p.name for p in tmp_path.iterdir()] == ["link.csv"]



class TestNoOverwrite:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "s.csv", "--json", "s.csv"], "analyze: --json would write over the input s.csv"),
            (["analyze", "s.csv", "--json", "link.json"], "analyze: --json would write over the input s.csv"),
            (
                ["analyze", "d/time_vs_pressure.csv", "--plots", "d"],
                "analyze: --plots would write over the input d/time_vs_pressure.csv",
            ),
            (["calibrate", "cal.csv", "-o", "cal.csv"], "calibrate: -o would write over the input cal.csv"),
            (
                ["compare", "--stimulus", "stim.csv", "-o", "stim.csv"],
                "compare: -o would write over --stimulus stim.csv",
            ),
            (
                ["compare", "--stimulus", "stim.csv", "-o", "t.csv", "--svg", "stim.svg"],
                "compare: --svg would write over --stimulus stim.csv",
            ),
            (
                ["compare", "--sensor-profile", "p.json", "-o", "p.json"],
                "compare: -o would write over --sensor-profile p.json",
            ),
            (["simulate", "--profile", "p.json", "-o", "p.json"], "simulate: -o would write over --profile p.json"),
            (["collect", "--profile", "p.json", "-o", "p.json"], "collect: -o would write over --profile p.json"),
            (
                ["collect", "--profile", "p.json", "-o", "c.csv", "--analyze", "--report", "p.json"],
                "collect: --report would write over --profile p.json",
            ),
        ],
        ids=[
            "analyze json", "analyze json symlink", "analyze plots", "calibrate", "compare table",
            "compare chart twin", "compare profile", "simulate", "collect session", "collect report",
        ],
    )
    def test_a_command_refuses_to_write_over_a_file_it_reads(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        for session in ("s.csv", "d/time_vs_pressure.csv"):
            assert main(["simulate", "--cycles", "1", "-o", session]) == 0
        os.symlink("s.csv", "link.json")
        _write_measured_csv(tmp_path / "cal.csv")
        (tmp_path / "stim.csv").write_text("time_s,pressure_pa\n0.0,0.0\n1.0,500000.0\n")
        (tmp_path / "p.json").write_text(json.dumps(profile_to_json_dict(builtin_profile("measured"))))
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        capsys.readouterr()
        if argv[0] == "collect":  # one that listened would be let go, and fail the test
            rc, err = _collect_refused(argv[1:], capsys)
        else:
            rc, err = main(argv), capsys.readouterr().err
        assert (rc, err) == (1, message + "\n")
        assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before

def _tree(root):
    """Every path under ``root``, with a file's bytes (None for a directory)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


# a command refused by the one rule on the files it writes, its exit code and
# its one line on standard error: each clause, for every command that writes
ENOENT, ENOTDIR, EISDIR = "[Errno 2] No such file or directory", "[Errno 20] Not a directory", "[Errno 21] Is a directory"
REFUSED_WRITES = [
    # not onto a file the command reads
    (["simulate", "--profile", "p.json", "-o", "p.json"], 1, "simulate: -o would write over --profile p.json"),
    (["analyze", "s.csv", "--json", "s.csv"], 1, "analyze: --json would write over the input s.csv"),
    (["calibrate", "cal.csv", "-o", "cal.csv"], 1, "calibrate: -o would write over the input cal.csv"),
    (
        ["compare", "--stimulus", "stim.csv", "-o", "t.csv", "--svg", "stim.svg"], 1,
        "compare: --svg would write over --stimulus stim.csv",
    ),
    (["collect", "--profile", "p.json", "-o", "p.json"], 1, "collect: -o would write over --profile p.json"),
    # not onto another file it writes
    (
        ["analyze", "s.csv", "--plots", "d", "--json", "d/time_vs_pressure.csv"], 1,
        "analyze: --plots and --json name the same file",
    ),
    (["analyze", "s.csv", "--plots", "d", "--json", "chart.csv"], 1, "analyze: --plots and --json name the same file"),
    (["compare", "-o", "c.svg", "--svg", "c.svg"], 1, "compare: --svg and -o name the same file"),
    (["compare", "-o", "t.csv", "--svg", "c.csv"], 1, "compare: --svg and --svg name the same file"),
    (["collect", "-o", "c.csv", "--analyze", "--report", "c.csv"], 1, "collect: --report and -o name the same file"),
    # openable: a directory that exists, and a path that is not one
    (["simulate", "-o", "nodir/s.csv"], 3, f"i/o error: {ENOENT}: 'nodir/s.csv'"),
    (["simulate", "-o", "d"], 3, f"i/o error: {EISDIR}: 'd'"),
    (["analyze", "s.csv", "--json", "nodir/r.json"], 3, f"i/o error: {ENOENT}: 'nodir/r.json'"),
    (["analyze", "s.csv", "--plots", "afile"], 3, f"i/o error: {ENOTDIR}: 'afile/time_vs_pressure.svg'"),
    (["analyze", "s.csv", "--plots", "afile/sub"], 3, f"i/o error: {ENOTDIR}: 'afile/sub/time_vs_pressure.svg'"),
    (["analyze", "s.csv", "--plots", "charts"], 3, f"i/o error: {EISDIR}: 'charts/time_vs_resistance.svg'"),
    (["calibrate", "cal.csv", "-o", "nodir/p.json"], 3, f"i/o error: {ENOENT}: 'nodir/p.json'"),
    (["calibrate", "cal.csv", "-o", "afile/p.json"], 3, f"i/o error: {ENOTDIR}: 'afile/p.json'"),
    (["compare", "-o", "c3.csv", "--svg", "nodir/c.svg"], 3, f"i/o error: {ENOENT}: 'nodir/c.svg'"),
    (["compare", "-o", "t.csv", "--svg", "d"], 3, f"i/o error: {EISDIR}: 'd'"),
    (["collect", "-o", "nodir/c.csv"], 3, f"i/o error: {ENOENT}: 'nodir/c.csv'"),
    (["collect", "-o", "c.csv", "--analyze", "--report", "d"], 3, f"i/o error: {EISDIR}: 'd'"),
]


class TestOneWriteRule:
    """main checks every command's files before any work: a write may not
    resolve to a file the command reads or to another write (exit 1), and
    each must be openable (exit 3). A refused command writes nothing and
    prints nothing to standard output."""

    @pytest.mark.parametrize(
        "argv, code, line",
        REFUSED_WRITES,
        ids=[
            "simulate onto its profile", "analyze onto its input", "calibrate onto its input",
            "compare twin onto its stimulus", "collect onto its profile",
            "analyze json onto a plots twin", "analyze json onto a plots chart by symlink", "compare chart onto table",
            "compare chart onto its own twin", "collect report onto session",
            "simulate directory missing", "simulate onto a directory", "analyze json directory missing",
            "analyze plots is a file", "analyze plots under a file", "analyze plots chart is a directory",
            "calibrate directory missing", "calibrate directory is a file", "compare twin directory missing",
            "compare chart onto a directory", "collect directory missing", "collect report onto a directory",
        ],
    )
    def test_a_refused_command_writes_nothing(self, tmp_path, capsys, monkeypatch, argv, code, line):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--cycles", "1", "-o", "s.csv"]) == 0
        _write_measured_csv(tmp_path / "cal.csv")
        (tmp_path / "stim.csv").write_text("time_s,pressure_pa\n0.0,0.0\n1.0,500000.0\n")
        (tmp_path / "p.json").write_text(json.dumps(profile_to_json_dict(builtin_profile("measured"))))
        (tmp_path / "afile").write_text("not a directory\n")
        (tmp_path / "d").mkdir()
        (tmp_path / "charts" / "time_vs_resistance.svg").mkdir(parents=True)
        os.symlink("d/time_vs_pressure.svg", "chart.csv")

        def collector(*args, **kwargs):
            raise AssertionError("collect listened before it checked its files")

        monkeypatch.setattr(cli, "Collector", collector)
        before = _tree(tmp_path)
        capsys.readouterr()
        assert main(argv) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", line + "\n")
        assert _tree(tmp_path) == before

    def test_the_compare_table_may_be_its_charts_csv_twin(self, tmp_path, capsys, monkeypatch):
        # both hold the same bytes
        monkeypatch.chdir(tmp_path)
        assert main(["compare", "-o", "a.csv", "--svg", "a.svg"]) == 0
        assert capsys.readouterr().out == "wrote comparison table to a.csv\nwrote overlay to a.svg\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.svg"]
        assert main(["compare", "-o", "b.csv"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_analyze_makes_a_missing_plots_directory_and_its_parents(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--cycles", "1", "-o", "s.csv"]) == 0
        assert main(["analyze", "s.csv", "--plots", "new/charts", "--json", "r.json"]) == 0
        assert len(list((tmp_path / "new" / "charts").iterdir())) == 6


class TestStreamDeviceFlag:
    def test_the_device_id_flag_overrides_the_sessions(self, tmp_path, links, capsys):
        session = tmp_path / "s.csv"
        assert main(["simulate", "--cycles", "1", "-o", str(session)]) == 0
        assert main(["stream", "-i", str(session), "--device-id", "7", "--addr", "127.0.0.1:9"]) == 0
        header, times, pascals = store.read_columns(session)
        assert header.device_id == 1
        assert bytes(links.wire) == _packed(7, times, counts_from_pascals(pascals, builtin_profile("measured")))
        assert {frame.device_id for frame in Deframer().feed(bytes(links.wire))} == {7}


class TestParseAddr:
    def test_a_host_without_a_port_takes_the_default_port(self):
        assert cli._parse_addr("somehost") == ("somehost", cli.DEFAULT_PORT)
        assert cli._parse_addr("") == ("127.0.0.1", cli.DEFAULT_PORT)

    @pytest.mark.parametrize(
        "text, addr",
        [("[::1]:7399", ("::1", 7399)), ("[::1]:0", ("::1", 0)), ("[::1]", ("::1", cli.DEFAULT_PORT))],
    )
    def test_the_brackets_come_off_an_ipv6_host(self, text, addr):
        assert cli._parse_addr(text) == addr

    @pytest.mark.parametrize("text", ["::1", "::1:7399", "[::1", "[::1]7399"])
    def test_an_ipv6_host_out_of_brackets_is_a_usage_error(self, tmp_path, capsys, text):
        out = tmp_path / "c.csv"
        assert main(["collect", "--once", "--addr", text, "-o", str(out)]) == 1
        assert "an IPv6 host goes in brackets, as in [::1]:7332" in capsys.readouterr().err
        assert not out.exists()


def _binds_ipv6_loopback() -> bool:
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
    except OSError:
        return False
    return True


@pytest.mark.skipif(not _binds_ipv6_loopback(), reason="::1 cannot be bound on this host")
def test_a_link_over_ipv6_loopback_analyzes_as_simulates_file(tmp_path, capsys):
    source, collected = tmp_path / "s.csv", tmp_path / "c.csv"
    assert main(["simulate", "--cycles", "3", "-o", str(source)]) == 0
    thread, results, addr = _start_collect(["--addr", "[::1]:0", "-o", str(collected), "--once"], capsys)
    assert re.fullmatch(r"\[::1\]:\d+", addr)
    assert main(["stream", "--simulate", "--cycles", "3", "--addr", addr]) == 0
    assert capsys.readouterr().out.startswith(f"sent 300 frames to {addr}, 0 retries\n")
    thread.join(timeout=30)
    assert results["rc"] == 0
    capsys.readouterr()
    assert main(["analyze", str(collected)]) == 0
    got = capsys.readouterr().out
    assert main(["analyze", str(source)]) == 0
    assert got == capsys.readouterr().out
