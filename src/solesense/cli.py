"""Operator entry point: simulate, stream, collect, analyze, calibrate, compare.

Every command is deterministic given its flags and input files: output
timestamps come from the inputs or the --epoch flag, never the wall clock
(live collection excepted). Exit codes are a stable scripting contract:
0 success, 1 usage, 2 data/validation, 3 I/O, 4 network.

Each call builds the parser of the one command it names, so a usage error
names that command; only an argv that names none is parsed by the parser of
every command.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import signal
import socket
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from . import plots, store
from .acquisition import counts_from_pascals, counts_to_pascals, divider_out_ohms, quantize_volts
from .analysis import _OFF_PA, _ON_PA, Analyzer, GaitEvent, GaitReport, compare_sensors
from .datasets import comparison_stimulus
from .sensor import (
    NOMINAL_SENSITIVITY_PA_PER_OHM,
    CalibrationError,
    CalibrationPoint,
    CalibrationProfile,
    DynamicsConfig,
    Pressure,
    SensorState,
    builtin_profile,
    builtin_profile_names,
    characterize,
    fit_profile,
    run_channel,
    static_ohms,
)
from .store import SessionFormatError
from .synth import DEFAULT_LOAD_SCALE, GaitParams, synthesize_columns
from .telemetry import ADDR_ENV_VAR, DEFAULT_PORT, Collector, Emitter, SessionHeader
from .units import CHANNEL_ORDER, PressureSample

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3
EXIT_NETWORK = 4

FULL_SCALE_PA = 750_000.0  # top of the display color ramp


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise _UsageError(f"{self.prog}: {message}")


def _parse_addr(text: str) -> tuple[str, int]:
    """``host:port`` or ``host`` (from --addr or the environment) as a socket
    address, an IPv6 host in brackets (``[::1]:7332``, ``[::1]``). An IPv6
    host out of brackets, or a port that is not an integer in 0-65535, is a
    usage error."""
    host, sep, port = text.rpartition(":")
    if not sep or "]" in port:  # no port
        host, sep = text, ""
    if host[:1] + host[-1:] == "[]":
        host = host[1:-1]
    elif set(host) & set(":[]"):
        raise _UsageError(f"address {text!r}: an IPv6 host goes in brackets, as in [::1]:{DEFAULT_PORT}")
    if sep and not (port.isdecimal() and int(port) <= 65535):
        raise _UsageError(f"address {text!r}: the port must be an integer in 0-65535")
    return host or "127.0.0.1", int(port) if sep else DEFAULT_PORT


def _format_addr(host: str, port: int) -> str:
    """The address as _parse_addr reads it back: an IPv6 host in brackets."""
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


def _device_id(text: str) -> int:
    """--device-id as the frame's device byte: an integer in 0-255."""
    if not (text.isdecimal() and int(text) <= 255):
        raise argparse.ArgumentTypeError(f"must be an integer in 0-255, got {text!r}")
    return int(text)


def _default_addr() -> str:
    return os.environ.get(ADDR_ENV_VAR, f"127.0.0.1:{DEFAULT_PORT}")


def _load_profile(spec: str) -> CalibrationProfile:
    """A profile JSON file when ``spec`` ends in .json (a missing one is an
    I/O error naming it), else the built-in profile of that name."""
    if spec.endswith(".json"):
        return profile_from_json_file(spec)
    return builtin_profile(spec)


def _header_profile(path, header: SessionHeader) -> CalibrationProfile:
    """The built-in profile that the header of session file ``path`` names,
    for a command given no --profile."""
    try:
        return builtin_profile(header.profile_name)
    except CalibrationError as exc:
        raise CalibrationError(f"{path}: its header names an {exc}; give --profile") from None


# by args attribute, the flags that name a file a command reads: a profile
# flag only when it names a JSON file (_load_profile)
_READ_FLAGS = {
    "input": "the input",
    "stimulus": "--stimulus",
    "profile": "--profile",
    "sensor_profile": "--sensor-profile",
    "fsr_profile": "--fsr-profile",
}
# by args attribute, the flags that name a file a command writes
_WRITE_FLAGS = {"output": "-o", "json": "--json", "report": "--report", "svg": "--svg"}
# the charts analyze --plots can write, each an SVG and its CSV twin
_PLOT_NAMES = ("time_vs_pressure", "time_vs_resistance", "pressure_response_curve")


def _check_files(command: str, args) -> None:
    """Before any work: a usage error if a file the command writes resolves
    (os.path.realpath) to one it reads or to another it writes, else the
    OSError that opening one would raise for a missing directory or a
    directory path. --svg writes its chart's CSV twin too, unless that is the
    -o table (the same bytes), and --plots every chart analyze can write, in
    a directory that it makes if absent."""
    clashes = {}  # by realpath, what writing that file would do
    for name, flag in _READ_FLAGS.items():
        path = getattr(args, name, None)
        if path is not None and (name in ("input", "stimulus") or path.endswith(".json")):
            clashes[os.path.realpath(path)] = f"would write over {flag} {path}"
    writes = [(flag, path) for name, flag in _WRITE_FLAGS.items() if (path := getattr(args, name, None)) is not None]
    if getattr(args, "svg", None) is not None:
        twin = os.path.splitext(args.svg)[0] + ".csv"
        if os.path.realpath(twin) != os.path.realpath(args.output):
            writes.append(("--svg", twin))
    if getattr(args, "plots", None) is not None:
        charts = [os.path.join(args.plots, name) for name in _PLOT_NAMES]
        writes += [("--plots", chart + ext) for chart in charts for ext in (".svg", ".csv")]
    for flag, path in writes:
        real = os.path.realpath(path)
        if real in clashes:
            raise _UsageError(f"{command}: {flag} {clashes[real]}")
        clashes[real] = f"and {flag} name the same file"
    for flag, path in writes:
        directory = os.path.dirname(path)
        while flag == "--plots" and directory and not os.path.exists(directory):
            directory = os.path.dirname(directory)
        if os.path.isdir(path) or not os.path.isdir(directory or "."):
            code = errno.EISDIR if os.path.isdir(path) else errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
            raise OSError(code, os.strerror(code), path)


def profile_to_json_dict(profile: CalibrationProfile) -> dict:
    return {
        "name": profile.name,
        "onset_pressure_pa": profile.onset_pressure.pascals,
        "points": [[p.pressure_pa, p.resistance_ohm] for p in profile.points],
    }


def profile_from_json_file(path) -> CalibrationProfile:
    try:  # typed by the store's rules: a JSON string name, and JSON numbers (no bool), two to a point
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        points = []
        for k, pair in enumerate(data["points"]):
            if type(pair) is not list or len(pair) != 2:
                raise TypeError(f"points[{k}] must be a JSON array of two numbers, got {pair!r}")
            points.append(CalibrationPoint(*(store._number(f"points[{k}]", value) for value in pair)))
        name = store._json_typed("name", data["name"], (str,), "string")
        onset = store._number("onset_pressure_pa", data["onset_pressure_pa"])
        return fit_profile(name, points, Pressure(onset))
    except (KeyError, TypeError, OverflowError) as exc:  # a field missing, of the wrong JSON type or too large
        raise CalibrationError(f"{path}: not a calibration profile: {exc.__class__.__name__}: {exc}") from exc
    except ValueError as exc:  # not JSON, or a value the fit refuses
        raise CalibrationError(f"{path}: {exc}") from exc


def report_json_text(report: GaitReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"


# --- simulate ---------------------------------------------------------------


def _simulated_counts(params: GaitParams, profile: CalibrationProfile):
    """Synthetic gait -> sensor dynamics -> divider -> ADC on columns: timestamps and (n, 5) codes."""
    times, pascals = synthesize_columns(params)
    _, ohms = run_channel(SensorState.at_rest(0.0), pascals, times, profile, DynamicsConfig())
    return times, quantize_volts(divider_out_ohms(ohms))


def _validate_epoch_flag(command: str, epoch: str) -> None:
    """--epoch by SessionHeader's own rule, as a usage error."""
    try:
        SessionHeader(1, epoch, "", 0.0)
    except ValueError:
        raise _UsageError(f"{command}: --epoch must be an RFC 3339 timestamp, got {epoch!r}") from None


def _gait_params(args, command: str) -> GaitParams:
    """The gait flags of ``simulate`` and ``stream --simulate`` as GaitParams."""
    try:
        return GaitParams(
            body_mass_kg=args.mass,
            cadence_spm=args.cadence,
            stance_fraction=args.stance,
            sample_rate_hz=args.rate,
            cycles=args.cycles,
            noise_sigma_pa=args.noise,
            seed=args.seed,
            load_scale=args.load_scale,
        )
    except ValueError as exc:
        raise _UsageError(f"{command}: {exc}") from exc


def cmd_simulate(args) -> int:
    _validate_epoch_flag("simulate", args.epoch)
    params = _gait_params(args, "simulate")
    profile = _load_profile(args.profile)
    header = SessionHeader(args.device_id, args.epoch, profile.name, params.sample_rate_hz)
    times, counts = _simulated_counts(params, profile)
    store.write_columns(header, times, counts_to_pascals(counts, profile), args.output)
    print(f"wrote {len(times)} samples to {args.output}")
    return EXIT_OK


# --- stream / collect ---------------------------------------------------------


def cmd_stream(args) -> int:
    if bool(args.input) == bool(args.simulate):
        raise _UsageError("stream: exactly one of --input or --simulate is required")
    host, port = _parse_addr(args.addr)
    if port == 0:  # any free port to collect's listen, and no collector's address
        raise _UsageError(f"stream: address {args.addr!r}: port 0 names no collector; give the port collect listens on")
    if args.simulate:  # the ADC's own codes, as the device sends them
        params = _gait_params(args, "stream")
        profile = _load_profile(args.profile or "measured")
        device_id = 1
        times, counts = _simulated_counts(params, profile)
    else:  # the header's divider records how the session was acquired; the link has its own
        header, times, pascals = store.read_columns(args.input)
        profile = _load_profile(args.profile) if args.profile else _header_profile(args.input, header)
        device_id = header.device_id
        counts = counts_from_pascals(pascals, profile)
    if args.device_id is not None:
        device_id = args.device_id
    emitter = Emitter(
        lambda: socket.create_connection((host, port), timeout=10.0), profile, device_id=device_id, pace=args.pace
    )
    try:
        sent = emitter.send_counts(times, counts)
    finally:
        emitter.close()
    print(f"sent {sent} frames to {_format_addr(host, port)}, {emitter.retries} retries")
    return EXIT_OK


def _render_live(sample: PressureSample, width: int = 28) -> str:
    rows = []
    for channel in CHANNEL_ORDER:
        value = sample.value(channel)
        fraction = min(value / FULL_SCALE_PA, 1.0)
        r, g, b = plots.pressure_color(fraction)
        bar = "#" * round(fraction * width)
        rows.append(
            f"\x1b[38;2;{r};{g};{b}m{channel.value:>16} |{bar:<{width}}|\x1b[0m {value / 1000.0:8.1f} kPa"
        )
    return "\n".join(rows)


def cmd_collect(args) -> int:
    _validate_epoch_flag("collect", args.epoch)
    if args.report is not None and not args.analyze:
        raise _UsageError("collect: --report needs --analyze")
    host, port = _parse_addr(args.addr)
    profile = _load_profile(args.profile)

    # per device; the collector calls the sink from one thread only
    columns: dict[int, tuple[list[float], list[float]]] = defaultdict(lambda: ([], []))  # times, pascals
    analyzers: dict[int, Analyzer] = defaultdict(Analyzer)
    events: dict[int, list[GaitEvent]] = defaultdict(list)
    last_render = [0.0]

    def sink(device_id: int, sample: PressureSample) -> None:
        times, pascals = columns[device_id]
        times.append(sample.timestamp)
        pascals.extend(sample.as_row())
        if args.analyze:
            events[device_id].extend(analyzers[device_id].update(sample))
        if args.live:
            now = time.monotonic()
            if now - last_render[0] >= 0.1:
                last_render[0] = now
                print(f"\x1b[2J\x1b[Hdevice {device_id}  t={sample.timestamp:.2f}s")
                print(_render_live(sample))

    collector = Collector(sink, profile=profile, host=host, port=port)
    try:
        collector.start()
    except OSError as exc:  # an address it cannot listen on, taken or unresolvable, is a network error
        raise ConnectionError(*exc.args) from exc
    print(f"listening on {_format_addr(*collector.address)}", flush=True)

    # kill, timeout and a closed terminal stop it as Ctrl-C does, unless their
    # signal is ignored (nohup); only the main thread may set a handler
    on_main = threading.current_thread() is threading.main_thread()
    stops = [getattr(signal, name) for name in ("SIGTERM", "SIGHUP") if on_main and hasattr(signal, name)]
    previous = {n: signal.signal(n, signal.default_int_handler) for n in stops if signal.getsignal(n) != signal.SIG_IGN}
    try:
        if args.once:
            while not collector.connection_closed.wait(timeout=0.2):
                pass
        else:
            while True:
                time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    finally:
        for number, handler in previous.items():
            signal.signal(number, handler)
        collector.stop()
        _flush_collected(args, profile.name, columns, analyzers, events)
    return EXIT_OK


def _infer_rate(times: np.ndarray) -> float:
    if len(times) < 2:
        return 0.0
    deltas = sorted(np.diff(times).tolist())
    median = deltas[len(deltas) // 2]  # of an even number, the upper one
    return round(1.0 / median, 6) if median > 0 else 0.0


def _device_path(path: str, device_id: int) -> str:
    """``path`` with ``-dev<id>`` before its file name's extension:
    ``run.d/s.csv`` -> ``run.d/s-dev2.csv``, ``s`` -> ``s-dev2``."""
    root, ext = os.path.splitext(path)
    return f"{root}-dev{device_id}{ext}"


def _flush_collected(
    args,
    profile_name: str,
    columns: dict[int, tuple[list[float], list[float]]],
    analyzers: dict[int, Analyzer],
    events: dict[int, list[GaitEvent]],
) -> None:
    """Write each device's session, and its report with --analyze --report.
    A session that received nothing is device 1 with no samples, so it
    records rate 0 as any session of fewer than two samples does. With more
    than one device, each file takes its device's _device_path."""
    received = sorted(columns) or [1]
    multi = len(received) > 1
    for device_id in received:
        times, pascals = map(np.array, columns[device_id])
        header = SessionHeader(device_id, args.epoch, profile_name, _infer_rate(times))
        path = _device_path(args.output, device_id) if multi else args.output
        report = analyzers[device_id].report() if args.analyze else None
        store.write_columns(header, times, pascals.reshape(-1, len(CHANNEL_ORDER)), path, events[device_id], report)
        print(f"wrote {len(times)} samples to {path}")
        if args.report:  # --report comes only with --analyze
            _write_report(_device_path(args.report, device_id) if multi else args.report, report)


def _write_report(path: str, report: GaitReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_json_text(report))
    print(f"wrote report to {path}")


# --- analyze ------------------------------------------------------------------


def _recording_plots(args, times: list[float], pressures, resistances) -> None:
    """The time-vs-pressure and time-vs-resistance charts of a recording;
    ``pressures`` and ``resistances`` are (name, values) series over ``times``.
    An inf or None resistance (an open sensor) plots as a gap."""
    os.makedirs(args.plots, exist_ok=True)
    for name, title, y_label, series in (
        ("time_vs_pressure", "Pressure over time", "pressure [Pa]", pressures),
        ("time_vs_resistance", "Resistance over time", "resistance [ohm]", resistances),
    ):
        plots.write_chart(
            os.path.join(args.plots, f"{name}.svg"),
            times,
            list(series),
            title=title,
            x_label="time [s]",
            y_label=y_label,
            x_column="t_s",
        )


def _response_curve_plot(args, points) -> None:
    """The chart of ``points``' resistance_ohm over their pressure_pa."""
    os.makedirs(args.plots, exist_ok=True)
    plots.write_chart(
        os.path.join(args.plots, "pressure_response_curve.svg"),
        [p.pressure_pa for p in points],
        [("resistance_ohm", [p.resistance_ohm for p in points])],
        title="Pressure response curve",
        x_label="pressure [Pa]",
        y_label="resistance [ohm]",
        x_column="pressure_pa",
    )


def cmd_analyze(args) -> int:
    profile = _load_profile(args.profile) if args.profile else None  # checked even where no plot reads it
    kind, content = store.read_any(args.input)
    if kind in ("session", "session_jsonl"):
        log, times, pascals = content
        if args.plots and profile is None:  # only the plots read the header's profile: look its name up for them
            profile = _header_profile(args.input, log.header)
        analyzer = Analyzer()
        analyzer.update_block(times, pascals)
        text = report_json_text(analyzer.report())
        if args.json:
            with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if args.plots:
            names = [channel.value for channel in CHANNEL_ORDER]
            _recording_plots(
                args,
                times.tolist(),
                zip(names, pascals.T.tolist()),
                zip(names, static_ohms(profile, pascals).T.tolist()),
            )
            _response_curve_plot(args, profile.points)
    elif kind in ("legacy", "calibration"):
        count = "records" if kind == "legacy" else "points"
        sys.stdout.write(json.dumps({"kind": kind, count: len(content)}, indent=2, sort_keys=True) + "\n")
        if args.plots:
            if kind == "legacy":
                _recording_plots(
                    args,
                    [r.time_s for r in content],
                    [("pressure_pa", [r.pressure_pa for r in content])],
                    [("resistance_ohm", [r.resistance_ohm for r in content])],
                )
            _response_curve_plot(args, content)
    else:
        raise SessionFormatError(f"{args.input}: a stimulus file is read by compare --stimulus, not analyze")
    return EXIT_OK


# --- calibrate ------------------------------------------------------------------


def cmd_calibrate(args) -> int:
    if not (math.isfinite(args.onset) and args.onset >= 0):
        raise _UsageError(f"calibrate: --onset must be finite and >= 0, got {args.onset!r}")
    points = store.read_calibration_csv(args.input)
    try:
        profile = fit_profile(args.name, points, Pressure(args.onset))
    except CalibrationError as exc:
        raise CalibrationError(f"{args.input}: {exc}") from exc
    figures = characterize(profile)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(profile_to_json_dict(profile), fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"profile: {profile.name}")
    print(f"points: {len(profile.points)} (after duplicate averaging)")
    print(
        f"range: {figures.resistance_at_min_ohm:g} ohm @ {figures.pressure_min_pa:g} Pa"
        f" ... {figures.resistance_at_max_ohm:g} ohm @ {figures.pressure_max_pa:g} Pa"
    )
    print(
        f"sensitivity: {figures.sensitivity_ohm_per_pa:.6g} ohm/Pa"
        f" = {figures.sensitivity_pa_per_ohm:.6g} Pa/ohm"
    )
    if not figures.matches_nominal_sensitivity:
        print(
            f"note: computed Pa/ohm differs from the nominal"
            f" {NOMINAL_SENSITIVITY_PA_PER_OHM:g} Pa/ohm figure; trust the computed value"
        )
    print(f"response time: {figures.response_time_s * 1000.0:.1f} ms (10-90%)")
    print(f"recovery time: {figures.recovery_time_s * 1000.0:.1f} ms (10-90%)")
    print(f"hysteresis: {figures.hysteresis_fraction * 100.0:.2f} % of full scale")
    # the analyzer's Schmitt band around its contact pressure
    print(f"threshold band: +/- {(_ON_PA - _OFF_PA) / (_ON_PA + _OFF_PA) * 100.0:.0f} %")
    return EXIT_OK


# --- compare --------------------------------------------------------------------


def cmd_compare(args) -> int:
    sensor_profile = _load_profile(args.sensor_profile)
    fsr_profile = _load_profile(args.fsr_profile)
    times, stimuli = store.read_stimulus_csv(args.stimulus) if args.stimulus else comparison_stimulus()
    table = compare_sensors(times, stimuli, [sensor_profile, fsr_profile])
    names = ("sensor_kohm", "fsr_kohm")
    series = [(name, [ohms / 1000.0 for ohms in column]) for name, column in zip(names, table.resistances_ohm)]

    plots.write_table(args.output, table.times_s, series, x_column="time_s")
    print(f"wrote comparison table to {args.output}")

    if args.svg:
        plots.write_chart(
            args.svg,
            table.times_s,
            series,
            title="Fabricated sensor vs commercial FSR",
            x_label="time [s]",
            y_label="resistance [kohm]",
            x_column="time_s",
        )
        print(f"wrote overlay to {args.svg}")
    return EXIT_OK


# --- parser --------------------------------------------------------------------


def _gait_flags(p: _Parser) -> None:
    """The gait flags of simulate and stream --simulate."""
    p.add_argument("--mass", type=float, default=70.0, help="body mass [kg]")
    p.add_argument("--cadence", type=float, default=120.0, help="steps per minute")
    p.add_argument("--stance", type=float, default=0.6, help="stance fraction of the cycle")
    p.add_argument("--cycles", type=int, default=10)
    p.add_argument("--rate", type=float, default=100.0, help="sample rate [Hz]")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument("--noise", type=float, default=0.0, help="pressure noise sigma [Pa]")
    p.add_argument("--load-scale", type=float, default=DEFAULT_LOAD_SCALE, help="body-weight share per sensor")


def _simulate_flags(p: _Parser) -> None:
    _gait_flags(p)
    p.add_argument("--profile", default="measured", help=f"one of {builtin_profile_names()} or a profile JSON path")
    p.add_argument("--device-id", type=_device_id, default=1)
    p.add_argument("--epoch", default=store.DEFAULT_EPOCH)
    p.add_argument("-o", "--output", required=True)


def _stream_flags(p: _Parser) -> None:
    _gait_flags(p)
    p.add_argument("--input", "-i", default=None, help="session file to replay")
    p.add_argument("--simulate", action="store_true", help="stream a live simulation instead of a file")
    p.add_argument("--addr", default=_default_addr(), help="collector host:port, [host]:port for IPv6")
    p.add_argument("--device-id", type=_device_id, default=None)
    p.add_argument("--pace", action="store_true", help="pace frames by sample timestamps")
    p.add_argument("--profile", default=None, help="profile to encode with; default: the session's, or measured")


def _collect_flags(p: _Parser) -> None:
    p.add_argument("--addr", default=_default_addr(), help="listen host:port, [host]:port for IPv6 (:0 for ephemeral)")
    p.add_argument("-o", "--output", required=True, help="session file to write on shutdown")
    p.add_argument("--analyze", action="store_true", help="attach the online gait analyzer")
    p.add_argument("--report", default=None, help="report JSON path (with --analyze)")
    p.add_argument("--live", action="store_true", help="render a terminal meter view")
    p.add_argument("--once", action="store_true", help="stop after the first connection closes")
    p.add_argument("--profile", default="measured")
    p.add_argument("--epoch", default=store.DEFAULT_EPOCH)


def _analyze_flags(p: _Parser) -> None:
    p.add_argument("input")
    p.add_argument("--json", default=None, help="write the report JSON here instead of stdout")
    p.add_argument("--plots", default=None, help="directory for SVG plots + CSV data twins")
    p.add_argument("--profile", default=None)


def _calibrate_flags(p: _Parser) -> None:
    p.add_argument("input", help="CSV with pressure_pa,resistance_ohm")
    p.add_argument("--name", default="custom")
    p.add_argument("--onset", type=float, default=200_000.0, help="open-circuit onset pressure [Pa]")
    p.add_argument("-o", "--output", default=None, help="profile JSON path")


def _compare_flags(p: _Parser) -> None:
    p.add_argument("--stimulus", default=None, help="stimulus CSV; default: built-in bench schedule")
    p.add_argument("-o", "--output", required=True, help="comparison table CSV")
    p.add_argument("--svg", default=None, help="overlay chart path")
    p.add_argument("--sensor-profile", default="bench")
    p.add_argument("--fsr-profile", default="fsr")


# name -> (help line, flag function, handler), in the order of the usage line
_COMMANDS = {
    "simulate": ("synthesize a gait session through the full sensor chain", _simulate_flags, cmd_simulate),
    "stream": ("replay a session file or a live simulation to a collector", _stream_flags, cmd_stream),
    "collect": ("run the telemetry collector server", _collect_flags, cmd_collect),
    "analyze": ("report gait metrics / render plots from a file", _analyze_flags, cmd_analyze),
    "calibrate": ("fit a calibration CSV and characterize the model", _calibrate_flags, cmd_calibrate),
    "compare": ("side-by-side fabricated sensor vs FSR run", _compare_flags, cmd_compare),
}


def build_parser() -> _Parser:
    """The parser of every command; main parses with it only an argv that names none."""
    parser = _Parser(prog="solesense", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flags, _handler) in _COMMANDS.items():
        flags(sub.add_parser(name, help=help_line))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in _COMMANDS:  # build only the named command's parser
            command = argv[0]
            _help, flags, handler = _COMMANDS[command]
            parser = _Parser(prog=f"solesense {command}")
            flags(parser)
            args = parser.parse_args(argv[1:])
        else:  # no command, -h, an unknown name or --: the full parser's help and errors
            args = build_parser().parse_args(argv)
            command = args.command
            _help, _flags, handler = _COMMANDS[command]
        _check_files(command, args)
        code = handler(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (SessionFormatError, CalibrationError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:  # stdout's reader left; a ConnectionError, so caught first
        # the interpreter flushes stdout again at exit: send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except (ConnectionError, socket.gaierror, socket.timeout) as exc:
        print(f"network error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
