"""Operator entry point: simulate, stream, collect, analyze, calibrate, compare.

Every command is deterministic given its flags and input files: output
timestamps come from the inputs or the --epoch flag, never the wall clock
(live collection excepted). Exit codes are a stable scripting contract:
0 success, 1 usage, 2 data/validation, 3 I/O, 4 network.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import time
from collections import defaultdict
from datetime import datetime

import numpy as np

from . import plots, store
from .acquisition import DividerConfig, counts_to_pascals, counts_to_samples, divider_out_ohms, quantize_volts
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
    read_calibration_csv,
    run_channel,
    static_ohms,
)
from .store import SessionFormatError, SessionLog, default_header
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
    """``host:port`` (from --addr or the environment) as a socket address; a
    port that is not an integer in 0-65535 is a usage error."""
    host, sep, port = text.rpartition(":")
    if not sep:
        return text or "127.0.0.1", DEFAULT_PORT
    if not (port.isdecimal() and int(port) <= 65535):
        raise _UsageError(f"address {text!r}: the port must be an integer in 0-65535")
    return host or "127.0.0.1", int(port)


def _default_addr() -> str:
    return os.environ.get(ADDR_ENV_VAR, f"127.0.0.1:{DEFAULT_PORT}")


def _load_profile(spec: str) -> CalibrationProfile:
    if spec.endswith(".json") and os.path.exists(spec):
        return profile_from_json_file(spec)
    return builtin_profile(spec)


def profile_to_json_dict(profile: CalibrationProfile) -> dict:
    return {
        "name": profile.name,
        "onset_pressure_pa": profile.onset_pressure.pascals,
        "points": [[p.pressure_pa, p.resistance_ohm] for p in profile.points],
    }


def profile_from_json_file(path) -> CalibrationProfile:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        points = [CalibrationPoint(p, r) for p, r in data["points"]]
        return fit_profile(data["name"], points, Pressure(data["onset_pressure_pa"]))
    except (KeyError, TypeError) as exc:  # a field missing, or of the wrong JSON type
        raise CalibrationError(f"{path}: not a calibration profile: {exc.__class__.__name__}: {exc}") from exc


def report_json_text(report: GaitReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"


# --- simulate ---------------------------------------------------------------


def _simulated_counts(params: GaitParams, profile: CalibrationProfile, divider: DividerConfig):
    """Synthetic gait -> sensor dynamics -> divider -> ADC on columns: timestamps and (n, 5) codes."""
    times, pascals = synthesize_columns(params)
    ohms = np.empty_like(pascals)
    for k in range(len(CHANNEL_ORDER)):
        _, ohms[:, k] = run_channel(SensorState.at_rest(0.0), pascals[:, k], times, profile, DynamicsConfig())
    return times, quantize_volts(divider_out_ohms(ohms, divider), divider)


def simulate_session(
    params: GaitParams,
    profile: CalibrationProfile,
    divider: DividerConfig = DividerConfig(),
    device_id: int = 1,
    epoch: str = store.DEFAULT_EPOCH,
) -> SessionLog:
    """Full chain: synthetic gait -> sensor dynamics -> ADC round trip.

    The stored pressures are what a collector would decode from the wire, not
    the synthetic ground truth: hysteresis, lag and quantization are all in.
    The chain runs on columns and equals synthesize -> step -> divider_out ->
    quantize -> counts_to_sample sample by sample, bit for bit.
    """
    header = SessionHeader(device_id, epoch, profile.name, params.sample_rate_hz, divider)
    times, counts = _simulated_counts(params, profile, divider)
    return SessionLog(header=header, samples=counts_to_samples(times, counts, profile, divider))


def _validate_epoch_flag(command: str, epoch: str) -> None:
    try:
        datetime.fromisoformat(epoch.replace("Z", "+00:00"))
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
    divider = DividerConfig()
    header = SessionHeader(args.device_id, args.epoch, profile.name, params.sample_rate_hz, divider)
    times, counts = _simulated_counts(params, profile, divider)
    store.write_columns(header, times, counts_to_pascals(counts, profile, divider), args.output)
    print(f"wrote {len(times)} samples to {args.output}")
    return EXIT_OK


# --- stream / collect ---------------------------------------------------------


def cmd_stream(args) -> int:
    if bool(args.input) == bool(args.simulate):
        raise _UsageError("stream: exactly one of --input or --simulate is required")
    if args.simulate:
        params = _gait_params(args, "stream")
        profile = _load_profile(args.profile or "measured")
        log = simulate_session(params, profile)
    else:
        log = store.read_session(args.input)
        profile = _load_profile(args.profile or log.header.profile_name)
    host, port = _parse_addr(args.addr)

    def connect():
        return socket.create_connection((host, port), timeout=10.0)

    emitter = Emitter(
        connect,
        profile=profile,
        divider=log.header.divider,
        device_id=args.device_id if args.device_id is not None else log.header.device_id,
        pace=args.pace,
    )
    try:
        sent = emitter.run(log.samples)
    finally:
        emitter.close()
    print(f"sent {sent} frames to {host}:{port}")
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
    divider = DividerConfig()

    # per device; the collector calls the sink from one thread only
    samples: dict[int, list[PressureSample]] = defaultdict(list)
    analyzers: dict[int, Analyzer] = defaultdict(Analyzer)
    events: dict[int, list[GaitEvent]] = defaultdict(list)
    last_render = [0.0]

    def sink(device_id: int, sample: PressureSample) -> None:
        samples[device_id].append(sample)
        if args.analyze:
            events[device_id].extend(analyzers[device_id].update(sample))
        if args.live:
            now = time.monotonic()
            if now - last_render[0] >= 0.1:
                last_render[0] = now
                print(f"\x1b[2J\x1b[Hdevice {device_id}  t={sample.timestamp:.2f}s")
                print(_render_live(sample))

    collector = Collector(sink, profile=profile, divider=divider, host=host, port=port)
    collector.start()
    bound_host, bound_port = collector.address
    print(f"listening on {bound_host}:{bound_port}", flush=True)

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
        collector.stop()
        _flush_collected(args, profile.name, divider, samples, analyzers, events)
    return EXIT_OK


def _infer_rate(samples: list[PressureSample]) -> float:
    if len(samples) < 2:
        return 0.0
    deltas = sorted(b.timestamp - a.timestamp for a, b in zip(samples, samples[1:]))
    median = deltas[len(deltas) // 2]
    return round(1.0 / median, 6) if median > 0 else 0.0


def _device_path(path: str, device_id: int) -> str:
    """``path`` with ``-dev<id>`` before its file name's extension:
    ``run.d/s.csv`` -> ``run.d/s-dev2.csv``, ``s`` -> ``s-dev2``."""
    root, ext = os.path.splitext(path)
    return f"{root}-dev{device_id}{ext}"


def _flush_collected(
    args,
    profile_name: str,
    divider: DividerConfig,
    samples: dict[int, list[PressureSample]],
    analyzers: dict[int, Analyzer],
    events: dict[int, list[GaitEvent]],
) -> None:
    """Write each device's session, and its report with --analyze --report;
    with more than one device, each file takes its device's _device_path."""
    if not samples:  # still produce a valid, header-only session file, and an empty report
        empty = SessionLog(header=default_header(epoch=args.epoch, profile_name=profile_name))
        if args.analyze:
            empty.report = Analyzer().report()
        store.write_session(empty, args.output)
        print(f"wrote 0 samples to {args.output}")
        if args.report:
            _write_report(args.report, empty.report)
        return
    multi = len(samples) > 1
    for device_id, kept in sorted(samples.items()):
        header = SessionHeader(device_id, args.epoch, profile_name, _infer_rate(kept), divider)
        log = SessionLog(header, kept, events.get(device_id, []))
        path = _device_path(args.output, device_id) if multi else args.output
        analyzer = analyzers.get(device_id)
        if analyzer is not None:
            log.report = analyzer.report()
        store.write_session(log, path)
        print(f"wrote {len(log.samples)} samples to {path}")
        if analyzer is not None and args.report:
            _write_report(_device_path(args.report, device_id) if multi else args.report, log.report)


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
            [(label, times, values) for label, values in series],
            title=title,
            x_label="time [s]",
            y_label=y_label,
            x_column="t_s",
        )


def _response_curve_plot(args, pairs: list[tuple[float, float]]) -> None:
    plots.write_chart(
        os.path.join(args.plots, "pressure_response_curve.svg"),
        [("resistance_ohm", [p for p, _r in pairs], [r for _p, r in pairs])],
        title="Pressure response curve",
        x_label="pressure [Pa]",
        y_label="resistance [ohm]",
        x_column="pressure_pa",
    )


def cmd_analyze(args) -> int:
    kind = store.sniff_kind(args.input)
    if kind in ("session", "session_jsonl"):
        header, times, pascals = store.read_columns(args.input)
        profile = _load_profile(args.profile or header.profile_name)
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
            _response_curve_plot(args, [(p.pressure_pa, p.resistance_ohm) for p in profile.points])
    elif kind == "legacy":
        records = store.read_legacy_csv(args.input)
        summary = {"kind": "legacy", "records": len(records)}
        sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        if args.plots:
            _recording_plots(
                args,
                [r.time_s for r in records],
                [("pressure_pa", [r.pressure_pa for r in records])],
                [("resistance_ohm", [r.resistance_ohm for r in records])],
            )
            _response_curve_plot(args, [(r.pressure_pa, r.resistance_ohm) for r in records])
    else:  # calibration pairs
        points = read_calibration_csv(args.input)
        summary = {"kind": "calibration", "points": len(points)}
        sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        if args.plots:
            os.makedirs(args.plots, exist_ok=True)
            _response_curve_plot(args, [(p.pressure_pa, p.resistance_ohm) for p in points])
    return EXIT_OK


# --- calibrate ------------------------------------------------------------------


def cmd_calibrate(args) -> int:
    points = read_calibration_csv(args.input)
    profile = fit_profile(args.name, points, Pressure(args.onset))
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


def _read_stimulus_csv(path) -> tuple[list[float], list[list[float]] | list[float]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise SessionFormatError(f"{path}: empty stimulus file")
    header = tuple(lines[0].split(","))
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    times = [r[0] for r in rows]
    if header == ("time_s", "sensor_pa", "fsr_pa"):
        return times, [[r[1] for r in rows], [r[2] for r in rows]]
    if header == ("time_s", "pressure_pa"):
        return times, [r[1] for r in rows]
    raise SessionFormatError(
        f"{path}: expected 'time_s,sensor_pa,fsr_pa' or 'time_s,pressure_pa', got {header!r}"
    )


def cmd_compare(args) -> int:
    sensor_profile = _load_profile(args.sensor_profile)
    fsr_profile = _load_profile(args.fsr_profile)
    if args.stimulus:
        times, stimuli = _read_stimulus_csv(args.stimulus)
    else:
        times, sensor_stim, fsr_stim = comparison_stimulus()
        stimuli = [sensor_stim, fsr_stim]
    table = compare_sensors(times, stimuli, [sensor_profile, fsr_profile])

    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time_s,sensor_kohm,fsr_kohm\n")
        for t, row in zip(table.times_s, table.resistances_ohm):
            fh.write(f"{t!r},{row[0] / 1000.0!r},{row[1] / 1000.0!r}\n")
    print(f"wrote comparison table to {args.output}")

    if args.svg:
        plots.write_chart(
            args.svg,
            [
                ("sensor_kohm", list(table.times_s), [r[0] / 1000.0 for r in table.resistances_ohm]),
                ("fsr_kohm", list(table.times_s), [r[1] / 1000.0 for r in table.resistances_ohm]),
            ],
            title="Fabricated sensor vs commercial FSR",
            x_label="time [s]",
            y_label="resistance [kohm]",
            x_column="time_s",
        )
        print(f"wrote overlay to {args.svg}")
    return EXIT_OK


# --- parser --------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="solesense", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gait = _Parser(add_help=False)  # the gait flags of simulate and stream --simulate
    gait.add_argument("--mass", type=float, default=70.0, help="body mass [kg]")
    gait.add_argument("--cadence", type=float, default=120.0, help="steps per minute")
    gait.add_argument("--stance", type=float, default=0.6, help="stance fraction of the cycle")
    gait.add_argument("--cycles", type=int, default=10)
    gait.add_argument("--rate", type=float, default=100.0, help="sample rate [Hz]")
    gait.add_argument("--seed", type=int, default=0, help="noise seed")
    gait.add_argument("--noise", type=float, default=0.0, help="pressure noise sigma [Pa]")
    gait.add_argument("--load-scale", type=float, default=DEFAULT_LOAD_SCALE, help="body-weight share per sensor")

    sim = sub.add_parser("simulate", parents=[gait], help="synthesize a gait session through the full sensor chain")
    sim.add_argument("--profile", default="measured", help=f"one of {builtin_profile_names()} or a profile JSON path")
    sim.add_argument("--device-id", type=int, default=1)
    sim.add_argument("--epoch", default=store.DEFAULT_EPOCH)
    sim.add_argument("-o", "--output", required=True)
    sim.set_defaults(func=cmd_simulate)

    stream = sub.add_parser("stream", parents=[gait], help="replay a session file or a live simulation to a collector")
    stream.add_argument("--input", "-i", default=None, help="session file to replay")
    stream.add_argument("--simulate", action="store_true", help="stream a live simulation instead of a file")
    stream.add_argument("--addr", default=_default_addr(), help="collector host:port")
    stream.add_argument("--device-id", type=int, default=None)
    stream.add_argument("--pace", action="store_true", help="pace frames by sample timestamps")
    stream.add_argument("--profile", default=None, help="override the session's profile")
    stream.set_defaults(func=cmd_stream)

    collect = sub.add_parser("collect", help="run the telemetry collector server")
    collect.add_argument("--addr", default=_default_addr(), help="listen host:port (:0 for ephemeral)")
    collect.add_argument("-o", "--output", required=True, help="session file to write on shutdown")
    collect.add_argument("--analyze", action="store_true", help="attach the online gait analyzer")
    collect.add_argument("--report", default=None, help="report JSON path (with --analyze)")
    collect.add_argument("--live", action="store_true", help="render a terminal meter view")
    collect.add_argument("--once", action="store_true", help="stop after the first connection closes")
    collect.add_argument("--profile", default="measured")
    collect.add_argument("--epoch", default=store.DEFAULT_EPOCH)
    collect.set_defaults(func=cmd_collect)

    analyze_p = sub.add_parser("analyze", help="report gait metrics / render plots from a file")
    analyze_p.add_argument("input")
    analyze_p.add_argument("--json", default=None, help="write the report JSON here instead of stdout")
    analyze_p.add_argument("--plots", default=None, help="directory for SVG plots + CSV data twins")
    analyze_p.add_argument("--profile", default=None)
    analyze_p.set_defaults(func=cmd_analyze)

    cal = sub.add_parser("calibrate", help="fit a calibration CSV and characterize the model")
    cal.add_argument("input", help="CSV with pressure_pa,resistance_ohm")
    cal.add_argument("--name", default="custom")
    cal.add_argument("--onset", type=float, default=200_000.0, help="open-circuit onset pressure [Pa]")
    cal.add_argument("-o", "--output", default=None, help="profile JSON path")
    cal.set_defaults(func=cmd_calibrate)

    cmp_p = sub.add_parser("compare", help="side-by-side fabricated sensor vs FSR run")
    cmp_p.add_argument("--stimulus", default=None, help="stimulus CSV; default: built-in bench schedule")
    cmp_p.add_argument("-o", "--output", required=True, help="comparison table CSV")
    cmp_p.add_argument("--svg", default=None, help="overlay chart path")
    cmp_p.add_argument("--sensor-profile", default="bench")
    cmp_p.add_argument("--fsr-profile", default="fsr")
    cmp_p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except (SessionFormatError, CalibrationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ConnectionError, socket.gaierror, socket.timeout) as exc:
        print(f"network error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
