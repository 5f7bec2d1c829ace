"""The two batch workloads: ``solesense simulate`` and ``solesense analyze``.

Each runs the CLI in process through ``cli.main`` a fixed number of times on
inputs made in set-up, times every call, and checks every call's output.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time
from pathlib import Path

from common import (
    PROFILE,
    SETUP_REPEATS,
    TRACE_REPEATS,
    NullTracer,
    Outcome,
    Referenced,
    Setup,
    Tracer,
    chain_session,
    code_shares,
    gait,
    layer_metrics,
    peak_rss_mib,
    percentile,
    traced_and_untraced,
)
from solesense import cli, store
from solesense.analysis import Analyzer
from solesense.analysis import analyze as analyze_samples
from solesense.sensor import builtin_profile

SIMULATE_CYCLES = 10  # the CLI default: 1,000 samples, about 0.15 s a call
SIMULATE_CALLS_PER_SECOND = 6
ANALYZE_CYCLES = 60  # 6,000 samples, about 0.15 s a call
ANALYZE_CALLS_PER_SECOND = 6
OVERRUN = 4  # stop calling once a run has taken this many times --seconds


def _cli(argv: list[str]) -> tuple[int, float]:
    """One in-process CLI call: (exit code, wall seconds). Its chatter is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    return rc, wall


def _call_loop(seconds: int, per_second: int, call, setup: Setup):
    """Run ``call(i)`` -> (ok, wall) a fixed number of times, with an overrun guard.

    Each call is timed between two runs of the reference kernel. The set-up
    is repeated between calls, spread over the run.
    """
    clock, failed = Referenced(), 0
    start = time.perf_counter()
    calls = max(3, seconds * per_second)
    for i in range(calls):
        setup.again(i, calls)
        failed += not clock.unit(lambda: call(i))
        if time.perf_counter() - start > OVERRUN * seconds:
            break
    return clock, failed


def _call_outcome(clock: Referenced, failed, setup: Setup, n, inputs) -> Outcome:
    walls = clock.walls
    return Outcome(
        attempted=len(walls),
        failed=failed,
        checks={},
        end_to_end={
            "setup_s": setup.seconds,
            "samples_per_s": n / statistics.median(clock.scaled),
        },
        layers={
            "cli.call_p50_ms": percentile(walls, 50) * 1000.0,
            "cli.call_p99_ms": percentile(walls, 99) * 1000.0,
        },
        inputs=inputs,
        timings={
            "call_s": walls,
            "call_reference_s": clock.refs,
            "setup_s": setup.clock.walls,
            "setup_reference_s": setup.clock.refs,
        },
    )


def _close(a: float, b: float) -> bool:
    # last-ulp tolerance: outputs may change in the last bits when a layer is
    # vectorised, so the check compares values, not bytes, against the chain
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def _matches(path: Path, reference: store.SessionLog) -> bool:
    try:
        log = store.read_session(path)
    except (OSError, ValueError):
        return False
    if log.header != reference.header or len(log.samples) != len(reference.samples):
        return False
    for got, want in zip(log.samples, reference.samples):
        if not _close(got.timestamp, want.timestamp):
            return False
        if not all(_close(a, b) for a, b in zip(got.as_row(), want.as_row())):
            return False
    return True


# --- simulate --------------------------------------------------------------------


def run_simulate(seed: int, seconds: int, trace: bool, workdir: Path, tamper=None) -> Outcome:
    """``tamper(i, path)``, if given, may alter call i's output before it is checked."""
    params = gait(seed, SIMULATE_CYCLES)
    argv = [
        "simulate", "--mass", "70", "--cadence", "120", "--stance", "0.6", "--rate", "100",
        "--noise", "2000", "--profile", PROFILE, "--cycles", str(SIMULATE_CYCLES),
        "--seed", str(seed),
    ]

    def build():
        profile = builtin_profile(PROFILE)
        return profile, chain_session(params, profile, NullTracer())

    setup = Setup(build, 1 if trace else SETUP_REPEATS)
    profile, reference = setup.result
    n = len(reference.samples)
    first_ok: list[bytes] = []

    def call(i: int):
        out = workdir / f"simulate-{i}.csv"
        rc, wall = _cli(argv + ["-o", str(out)])
        if tamper is not None:
            tamper(i, out)
        data = out.read_bytes() if out.exists() else b""
        ok = rc == 0 and _matches(out, reference)
        if ok and not first_ok:
            first_ok.append(data)
        ok = ok and data == first_ok[0]  # same seed, same bytes
        out.unlink(missing_ok=True)
        return ok, wall

    clock, failed = _call_loop(seconds, SIMULATE_CALLS_PER_SECOND, call, setup)
    outcome = _call_outcome(clock, failed, setup, n, {
        "samples": n, "cycles": params.cycles, "frames": 0, "wire_bytes": 0,
        **code_shares(reference.samples, profile),
    })
    if trace:
        _trace_simulate(outcome, params, profile, workdir, first_ok, clock.walls)
    outcome.end_to_end["peak_rss_mib"] = peak_rss_mib()
    return outcome


def _trace_simulate(outcome, params, profile, workdir, first_ok, walls) -> None:
    traced_path = workdir / "traced.csv"

    def path(tracer):
        log = chain_session(params, profile, tracer)
        with tracer.span("store.write", len(log.samples)):
            store.write_session(log, traced_path)

    tracer = Tracer()
    _, overhead_s = traced_and_untraced(tracer, "simulate", path)
    data = traced_path.read_bytes()
    outcome.checks["traced_equals_cli"] = bool(first_ok) and data == first_ok[0]
    outcome.spans = tracer.to_json()
    layers = ("synth", "sensor", "acquisition.adc", "acquisition.decode", "store.write")
    outcome.layers.update(layer_metrics(tracer))
    outcome.layers.update({
        "store.bytes": len(data),
        "cli.self_s": min(walls) - sum(map(tracer.seconds, layers)) / TRACE_REPEATS,
        "trace.overhead_s": overhead_s,
    })


# --- analyze ---------------------------------------------------------------------


def run_analyze(seed: int, seconds: int, trace: bool, workdir: Path) -> Outcome:
    params = gait(seed, ANALYZE_CYCLES)
    session_path = workdir / "session.csv"
    tracer = Tracer() if trace else NullTracer()

    def build():
        profile = builtin_profile(PROFILE)
        log = chain_session(params, profile, tracer)
        with tracer.span("store.write", len(log.samples)):
            store.write_session(log, session_path)
        _events, report = analyze_samples(log.samples)
        return profile, log, cli.report_json_text(report), report

    setup = Setup(build, 1 if trace else SETUP_REPEATS)
    profile, log, reference, report = setup.result
    n = len(log.samples)
    argv = ["analyze", str(session_path), "--json"]

    def call(i: int):
        out = workdir / f"report-{i}.json"
        rc, wall = _cli(argv + [str(out)])
        ok = rc == 0 and out.exists() and out.read_text(encoding="utf-8") == reference
        out.unlink(missing_ok=True)
        return ok, wall

    clock, failed = _call_loop(seconds, ANALYZE_CALLS_PER_SECOND, call, setup)
    outcome = _call_outcome(clock, failed, setup, n, {
        "samples": n, "cycles": report.cycles, "frames": 0, "wire_bytes": 0,
        **code_shares(log.samples, profile),
    })
    if trace:
        _trace_analyze(outcome, tracer, session_path, reference, clock.walls)
    outcome.end_to_end["peak_rss_mib"] = peak_rss_mib()
    return outcome


def _trace_analyze(outcome, tracer, session_path, reference, walls) -> None:
    def path(tr) -> str:
        with tr.span("store.read") as span:
            samples = store.read_session(session_path).samples
            span.count = len(samples)
        analyzer = Analyzer()
        with tr.span("analysis.update", len(samples)):
            for sample in samples:
                analyzer.update(sample)
        with tr.span("analysis.report", 1):
            report = analyzer.report()
        return cli.report_json_text(report)

    text, overhead_s = traced_and_untraced(tracer, "analyze", path)
    outcome.checks["traced_equals_cli"] = text == reference
    outcome.spans = tracer.to_json()
    layers = ("store.read", "analysis.update", "analysis.report")
    outcome.layers.update(layer_metrics(tracer))
    outcome.layers.update({
        "store.bytes": session_path.stat().st_size,
        "cli.self_s": min(walls) - sum(map(tracer.seconds, layers)) / TRACE_REPEATS,
        "trace.overhead_s": overhead_s,
    })
