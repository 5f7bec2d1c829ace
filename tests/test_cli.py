import json
import os
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
from solesense.analysis import Analyzer, analyze
from solesense.cli import main, profile_from_json_file, profile_to_json_dict, report_json_text, simulate_session
from solesense.datasets import MEASURED_CALIBRATION
from solesense.sensor import builtin_profile, builtin_profile_names, measured_profile, static_resistance
from solesense.store import LegacyRecord
from solesense.synth import GaitParams
from solesense.telemetry import encode, frames_from_samples
from solesense.units import Pressure, PressureSample

from helpers import BENCH_TIME_LOG, count_series, write_legacy_csv

EXPECTED_SENSOR_KOHM = [3342.9] * 5 + [29.16212] * 5 + [3342.9] * 4
EXPECTED_FSR_KOHM = [3342.9] * 4 + [123.81111] * 3 + [3342.9] * 4 + [2051.325] * 3


def _write_measured_csv(path):
    lines = ["pressure_pa,resistance_ohm"]
    lines += [f"{p!r},{r!r}" for p, r in MEASURED_CALIBRATION]
    path.write_text("\n".join(lines) + "\n")


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
        log = store.read_csv(out)
        assert log.samples == []

    def test_bad_stance_is_usage_error(self, tmp_path, capsys):
        rc = main(["simulate", "--stance", "1.2", "-o", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "stance" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["simulate", "--bogus", "-o", str(tmp_path / "x.csv")]) == 1

    def test_jsonl_output(self, tmp_path):
        out = tmp_path / "s.jsonl"
        assert main(["simulate", "--cycles", "2", "-o", str(out)]) == 0
        assert len(store.read_jsonl(out).samples) == 200

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
        assert len(store.read_csv(out).samples) == 500

    def test_out_of_table_code_raises_the_decode_error(self, monkeypatch, capsys, tmp_path):
        # simulate decodes through counts_to_samples' range check
        monkeypatch.setattr(cli, "quantize_volts", lambda volts, divider: np.full(volts.shape, 1 << 12))
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
        expected = report_json_text(analyze(store.read_csv(src).samples)[1])
        built = []  # by the public constructor, or by from_row and the decoders
        init, of = PressureSample.__init__, PressureSample._of
        monkeypatch.setattr(PressureSample, "__init__", lambda self, *args: built.append(1) or init(self, *args))
        monkeypatch.setattr(PressureSample, "_of", classmethod(lambda cls, *args: built.append(1) or of(*args)))
        out = tmp_path / "r.json"
        assert main(["analyze", str(src), "--json", str(out)]) == 0
        assert len(built) == 0
        assert out.read_text() == expected

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
        profile = measured_profile()
        want = ["t_s,forefoot,midfoot_medial,midfoot_central,midfoot_lateral,heel"]
        for sample in store.read_csv(src).samples:
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

    def test_malformed_jsonl_session_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        main(["simulate", "--cycles", "1", "-o", str(path)])
        lines = path.read_text().splitlines()
        lines[5] = "[1, 2]"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 2
        assert f"{path}:6: " in capsys.readouterr().err


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

    def test_profile_file_with_fit_r2_still_loads(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**profile_to_json_dict(measured_profile()), "fit_r2": 1.0}))
        assert profile_from_json_file(path) == measured_profile()

    def test_datasheet_range_report(self, tmp_path, capsys):
        cal = tmp_path / "two.csv"
        cal.write_text("pressure_pa,resistance_ohm\n200000.0,150000.0\n750000.0,200.0\n")
        assert main(["calibrate", str(cal)]) == 0
        out = capsys.readouterr().out
        assert "range: 150000 ohm @ 200000 Pa ... 200 ohm @ 750000 Pa" in out
        assert "ohm/Pa" in out and "Pa/ohm" in out
        assert "note: computed Pa/ohm differs from the nominal 0.02 Pa/ohm figure" in out
        assert out.endswith("threshold band: +/- 10 %\n")  # the analyzer's Schmitt band

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

    def test_unknown_profile_is_data_error(self, tmp_path, capsys):
        rc = main(["compare", "--sensor-profile", "nope", "-o", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "unknown profile" in capsys.readouterr().err


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

        source = store.read_csv(src)
        collected = store.read_csv(out)
        assert len(collected.samples) == len(source.samples)
        for a, b in zip(source.samples, collected.samples):
            assert a.timestamp == b.timestamp
            assert a.as_row() == b.as_row()

        from solesense.analysis import analyze
        from solesense.cli import report_json_text

        _, offline = analyze(collected.samples)
        assert report_path.read_text() == report_json_text(offline)

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
        assert len(store.read_csv(out).samples) == 300
        assert len(built) == 1

    def test_two_devices_name_files_past_a_dotted_directory(self, tmp_path, capsys):
        # each device's file takes -dev<id> before its own extension, never a directory's
        run = tmp_path / "run.d"
        run.mkdir()
        thread, results, addr = _start_collect(
            ["-o", str(run / "session"), "--analyze", "--report", str(run / "r.json"), "--once"], capsys
        )
        profile = measured_profile()
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
        assert len(store.read_csv(out).samples) == 300

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
        expected = store.read_csv(source).samples
        assert [(s.timestamp, s.as_row()) for s in collected.samples] == [(s.timestamp, s.as_row()) for s in expected]
        events, report = analyze(collected.samples)
        assert events and collected.events == events
        assert collected.report == report

    def test_stream_requires_exactly_one_source(self, tmp_path):
        assert main(["stream"]) == 1
        assert main(["stream", "-i", "x.csv", "--simulate"]) == 1

    def test_bad_epoch_is_usage_error(self, tmp_path, capsys):
        rc = main(["simulate", "--epoch", "yesterday", "-o", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "RFC 3339" in capsys.readouterr().err

    def test_collect_nothing_writes_valid_empty_session(self, tmp_path, capsys):
        out = tmp_path / "empty.csv"
        profile_path = tmp_path / "p.json"
        profile_path.write_text(json.dumps(profile_to_json_dict(sensor.bench_profile())))

        thread, _results, addr = _start_collect(["-o", str(out), "--once", "--profile", str(profile_path)], capsys)
        host, port = addr.rsplit(":", 1)
        conn = socket.create_connection((host, int(port)), timeout=5)
        conn.close()
        thread.join(timeout=30)
        log = store.read_csv(out)
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
                assert store.read_csv(out).samples == []
            else:  # the session file carries the same report, as an analyzed session with samples does
                log = store.read_session(out)
                assert log.samples == [] and log.report == Analyzer().report()

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
