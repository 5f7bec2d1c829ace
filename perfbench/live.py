"""The ``live`` workload: two devices stream over loopback TCP into a Collector.

This process is the collector. One generator child (``live_generator.py``)
holds both device connections. Each device's session is split in two: the
first part is sent paced (open loop, fixed rate, latency per frame), the rest
unpaced through ``Emitter.run`` (throughput). The collector's sink does what
``solesense collect --analyze`` does, so the online analyzer sees one
uninterrupted session per device. Finally device 1 has disconnected, device 2
stays connected and idle, and ``Collector.stop()`` is timed.
"""

from __future__ import annotations

import bisect
import os
import pickle
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    PROFILE,
    RATE_HZ,
    ROOT,
    REFERENCE_S,
    NullTracer,
    Outcome,
    Setup,
    Tracer,
    chain_session,
    code_shares,
    gait,
    layer_metrics,
    peak_rss_mib,
    percentile,
    reference_seconds,
    traced_and_untraced,
)
from solesense import cli
from solesense.acquisition import DividerConfig, counts_to_sample
from solesense.analysis import Analyzer
from solesense.analysis import analyze as analyze_samples
from solesense.sensor import builtin_profile
from solesense.telemetry import (
    FRAME_LENGTH,
    Collector,
    Deframer,
    Emitter,
    encode,
    frames_from_samples,
)

DEVICES = {1: 65.0, 2: 85.0}  # device id -> body mass [kg]
WINDOWS = 4  # paced windows
ROUNDS_PER_WINDOW = 8  # unpaced rounds after each paced window
PACED_RATE = 250  # frames per second per device
PACED_TICKS_PER_SECOND = 40  # paced ticks per window per --seconds: 1.6 s windows at 10
BULK_PER_SECOND = 50  # unpaced frames per device per round per --seconds
CHUNK = 4096  # the collector's recv size
JUNK = bytes(b for b in range(256) if b != 0x53)  # never starts the magic "SL"
WAIT_S = 20.0  # longest wait for one segment's frames before they count as lost
DEADLINE_S = 150.0  # the generator child is killed after this long
SETUP_BUILDS = 3  # a live set-up takes 5-13 s; 3 builds spread over the run


class Sink:
    """``collect --analyze``'s sink: one Analyzer.update per device, then append.

    Also records, per device, when each sample arrived (CLOCK_MONOTONIC) and
    how long the sink was busy. ``drop(device, sample)``, if given, discards
    a sample before the sink sees it.
    """

    def __init__(self, sessions: dict, ends: list[int], drop=None):
        self.drop = drop
        self.samples = {d: [] for d in sessions}
        self.arrived_ns = {d: [] for d in sessions}
        self.analyzers = {d: Analyzer() for d in sessions}
        self.busy_ns = {d: 0 for d in sessions}
        # per device: each phase's last timestamp, an event set once it came,
        # and the first phase still awaited, so a sink call costs O(1)
        self.marks = {d: [s[end - 1].timestamp for end in ends] for d, s in sessions.items()}
        self.reached = {d: [threading.Event() for _ in ends] for d in sessions}
        self.next_mark = {d: 0 for d in sessions}

    def __call__(self, device_id: int, sample) -> None:
        t0 = time.monotonic_ns()
        if self.drop is None or not self.drop(device_id, sample):
            self.analyzers[device_id].update(sample)
            self.samples[device_id].append(sample)
            self.arrived_ns[device_id].append(t0)
        marks, k = self.marks[device_id], self.next_mark[device_id]
        while k < len(marks) and sample.timestamp >= marks[k]:
            self.reached[device_id][k].set()
            k += 1
        self.next_mark[device_id] = k
        self.busy_ns[device_id] += time.monotonic_ns() - t0

    def wait(self, phase: int, timeout: float) -> None:
        """Until every device's sample ending ``phase`` came, or ``timeout``."""
        deadline = time.monotonic() + timeout
        for reached in self.reached.values():
            reached[phase].wait(max(0.0, deadline - time.monotonic()))


def _failures(sunk: list, source: list) -> int:
    """Source samples not sunk exactly once, in order, with equal values."""
    where = {s.timestamp: i for i, s in enumerate(source)}
    seen = [0] * len(source)
    bad = [False] * len(source)
    strays = 0
    highest = -1
    for sample in sunk:
        i = where.get(sample.timestamp)
        if i is None:
            strays += 1
            continue
        seen[i] += 1
        if i <= highest or sample.as_row() != source[i].as_row():
            bad[i] = True
        highest = max(highest, i)
    return strays + sum(1 for i, n in enumerate(seen) if n != 1 or bad[i])


def _backlog_max(due_ns: list[int], arrived_ns: list[int]) -> int:
    """Most frames ever due but not yet sunk, seen at each sink call."""
    due_ns, arrived_ns = sorted(due_ns), sorted(arrived_ns)
    return max(
        (bisect.bisect_right(due_ns, t) - k for k, t in enumerate(arrived_ns)), default=0
    )


class _Child:
    """The generator process, with a deadline after which it is killed."""

    def __init__(self, job: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "live_generator.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        self.timer = threading.Timer(DEADLINE_S, self.proc.kill)
        self.timer.start()
        try:
            pickle.dump(job, self.proc.stdin)
            self.proc.stdin.flush()
            self.read()  # "ready"
        except BaseException:
            self.close()
            raise

    def command(self, text: str) -> None:
        self.proc.stdin.write(text.encode() + b"\n")
        self.proc.stdin.flush()

    def read(self):
        return pickle.load(self.proc.stdout)

    def close(self) -> None:
        self.timer.cancel()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_live(seed: int, seconds: int, trace: bool, workdir: Path, drop=None) -> Outcome:
    """The workload with the collector on one CPU and the generator on another.

    Unpinned, the collector's two connection threads hand its GIL to each
    other across CPUs, and the cost of that moved its throughput by a tenth
    or more from run to run, beyond the host's speed. Pinned, the GIL still
    serialises them and every frame is still deframed, decoded and sunk, and
    neither process migrates or waits for the other's CPU. All threads
    started later inherit the pin. With one CPU nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return _run_live(seed, seconds, trace, drop, None)
    os.sched_setaffinity(0, {cpus[0]})
    try:
        return _run_live(seed, seconds, trace, drop, cpus[1])
    finally:
        os.sched_setaffinity(0, cpus)


def _run_live(seed: int, seconds: int, trace: bool, drop, generator_cpu) -> Outcome:
    ticks = PACED_TICKS_PER_SECOND * seconds
    per_round = BULK_PER_SECOND * seconds
    # each device's session, in order: a paced window, its unpaced rounds, the
    # next paced window, ...
    segments, start = [], 0
    for _ in range(WINDOWS):
        for kind, size in [("paced", ticks)] + [("bulk", per_round)] * ROUNDS_PER_WINDOW:
            segments.append((kind, start, start + size))
            start += size
    total = start
    cycles = -(-total // round(RATE_HZ))  # one 1 s cycle is 100 samples
    divider = DividerConfig()
    tracer = Tracer() if trace else NullTracer()

    def build():
        profile = builtin_profile(PROFILE)
        sessions, reports = {}, {}
        for d, mass in DEVICES.items():
            log = chain_session(gait(seed * 10 + d, cycles, mass), profile, tracer, device_id=d)
            sessions[d] = log.samples[:total]
            reports[d] = cli.report_json_text(analyze_samples(sessions[d])[1])
        # the paced connection's sequence numbers run on across its windows
        window_of = [i // (1 + ROUNDS_PER_WINDOW) for i in range(len(segments))]
        payloads = [
            {d: b"".join(encode(f) for f in frames_from_samples(s[a:b], profile, divider, d, w * ticks))
             for d, s in sessions.items()}
            if kind == "paced" else
            {d: [(x.timestamp, x.as_row()) for x in s[a:b]] for d, s in sessions.items()}
            for w, (kind, a, b) in zip(window_of, segments)
        ]
        return profile, sessions, reports, payloads

    setup = Setup(build, 1 if trace else SETUP_BUILDS)
    profile, sessions, reports, payloads = setup.result
    sink = Sink(sessions, [b for _kind, _a, b in segments], drop)
    before = set(threading.enumerate())
    collector = Collector(sink, profile=profile, divider=divider, host="127.0.0.1", port=0)
    collector.start()
    child = None
    stopped = False
    replies = []
    refs = {}  # bulk segment -> mean reference kernel time around it
    cpu_s = busy_s = 0.0
    try:
        child = _Child({
            "addr": collector.address,
            "devices": list(DEVICES),
            "profile": PROFILE,
            "paced_rate": PACED_RATE,
            "segments": [(kind, p) for (kind, _a, _b), p in zip(segments, payloads)],
            "capture": trace,
            "cpu": generator_cpu,
        })
        for i, (kind, _a, _b) in enumerate(segments):
            ref_before = reference_seconds() if kind == "bulk" else 0.0
            busy0, cpu0 = sum(sink.busy_ns.values()), time.process_time()
            child.command("next")
            sink.wait(i, WAIT_S)
            if kind == "bulk":
                cpu_s += time.process_time() - cpu0
                busy_s += (sum(sink.busy_ns.values()) - busy0) / 1e9
            replies.append(child.read())
            if kind == "bulk":
                refs[i] = (ref_before + reference_seconds()) / 2.0
            setup.again(i + 1, len(segments))

        # every connection but device 2's last one has closed: wait until the
        # collector has seen them go
        closed = len(DEVICES) * (1 + WINDOWS * ROUNDS_PER_WINDOW) - 1
        deadline = time.monotonic() + 10.0
        while collector.connections_closed < closed and time.monotonic() < deadline:
            time.sleep(0.01)
        t0 = time.perf_counter()
        collector.stop()
        stop_s = time.perf_counter() - t0
        stopped = True
        leftover = [
            t for t in threading.enumerate()
            if t not in before and t is not child.timer and t.is_alive()
        ]
        child.command("release")
        child.read()
    finally:
        if child is not None:
            child.close()
        if not stopped:
            collector.stop()

    arrived = {d: dict(zip((x.timestamp for x in sink.samples[d]), sink.arrived_ns[d]))
               for d in DEVICES}
    windows, due_ns, arrived_ns, late_ns = [], [], [], []
    rates, scaled_rates, round_s, bulk_frames, bulk_s = [], [], [], 0, 0.0
    for i, ((kind, a, b), reply) in enumerate(zip(segments, replies)):
        if kind == "paced":
            # latency from each frame's due time to its sink call
            window = []
            for k in range(b - a):
                due = reply["t0_ns"] + round(k * 1e9 / PACED_RATE)
                due_ns += [due] * len(DEVICES)
                for d in DEVICES:
                    t = arrived[d].get(sessions[d][a + k].timestamp)
                    if t is not None:
                        window.append((t - due) / 1e6)
                        arrived_ns.append(t)
            windows.append(window)
            late_ns += reply["late_ns"]
        else:
            # first send to last sink
            last = max((arrived[d].get(x.timestamp, 0) for d in DEVICES for x in sessions[d][a:b]))
            frames_r = sum(reply["sent"].values())
            seconds_r = (last - reply["t_start_ns"]) / 1e9
            rates.append(frames_r / seconds_r)
            round_s.append(seconds_r)
            bulk_frames += frames_r
            bulk_s += seconds_r
            scaled_rates.append(frames_r / (seconds_r * REFERENCE_S / refs[i]))
    latencies_ms = [x for w in windows for x in w]

    failed = sum(_failures(sink.samples[d], sessions[d]) for d in DEVICES)
    stats = collector.stats
    frames = len(DEVICES) * total
    online = {d: cli.report_json_text(sink.analyzers[d].report()) for d in DEVICES}
    outcome = Outcome(
        attempted=frames,
        failed=failed,
        checks={
            "online_report_equals_offline": online == reports,
            "collector_stats_clean": all(
                d in stats and stats[d].gaps == 0 and stats[d].decode_errors == 0
                and stats[d].frames == total
                for d in DEVICES
            ),
        },
        end_to_end={
            "setup_s": setup.seconds,
            # the median round at reference speed
            "samples_per_s": statistics.median(scaled_rates),
            "peak_rss_mib": peak_rss_mib(),
        },
        inputs={
            "samples": frames,
            "cycles": sum(analyze_samples(s)[1].cycles for s in sessions.values()),
            "frames": frames,
            "wire_bytes": frames * FRAME_LENGTH,
            **code_shares([s for ss in sessions.values() for s in ss], profile),
        },
        timings={
            "setup_s": setup.clock.walls,
            "setup_reference_s": setup.clock.refs,
            "round_s": round_s,
            "round_reference_s": list(refs.values()),
            "round_frames_per_s": rates,
            "window_p50_ms": [percentile(w, 50) for w in windows],
            "window_p99_ms": [percentile(w, 99) for w in windows],
        },
    )
    if trace:
        outcome.layers = {
            "telemetry.latency_p50_ms": percentile(latencies_ms, 50),
            # the median of per-window p99s: one stall of the shared host moves
            # one window, not the run
            "telemetry.latency_p99_ms": statistics.median(percentile(w, 99) for w in windows if w),
            "telemetry.stop_s": stop_s,
            "telemetry.cpu_us_per_frame": cpu_s / bulk_frames * 1e6,
            "telemetry.frames": sum(s.frames for s in stats.values()),
            "telemetry.gaps": sum(s.gaps for s in stats.values()),
            "telemetry.decode_errors": sum(s.decode_errors for s in stats.values()),
            "telemetry.threads_after_stop": len(leftover),
            "telemetry.generator_late_p99_ms": percentile(late_ns, 99) / 1e6,
            "telemetry.backlog_max_frames": _backlog_max(due_ns, arrived_ns),
            "analysis.sink_busy_share": busy_s / bulk_s,
        }
        _replay(outcome, tracer, profile, divider, segments, payloads, replies, sessions,
                sink, online, seed)
    return outcome


def _chunks(data: bytes):
    for i in range(0, len(data), CHUNK):
        yield data[i : i + CHUNK]


def _replay(outcome, tracer, profile, divider, segments, payloads, replies, sessions,
            sink, online, seed) -> None:
    """Replay the captured wire bytes and the emitter side outside the collector."""

    def receive(tr, device: int):
        """What the collector does per connection, one batch per layer."""
        frames = []
        paced = Deframer()  # one connection carries every paced window
        with tr.span("telemetry.deframe") as span:
            for (kind, _a, _b), payload, reply in zip(segments, payloads, replies):
                wire = payload[device] if kind == "paced" else reply["wire"][device]
                deframer = paced if kind == "paced" else Deframer()
                for chunk in _chunks(wire):
                    frames.extend(deframer.feed(chunk))
            span.count = len(frames)
        with tr.span("acquisition.decode", len(frames)):
            samples = [
                counts_to_sample(f.timestamp_ms / 1000.0, f.counts, profile, divider)
                for f in frames
            ]
        analyzer = Analyzer()
        with tr.span("analysis.update", len(samples)):
            for sample in samples:
                analyzer.update(sample)
        with tr.span("analysis.report", 1):
            report = analyzer.report()
        return frames, samples, cli.report_json_text(report)

    received, overhead_s = traced_and_untraced(
        tracer, "live.replay", lambda tr: {d: receive(tr, d) for d in DEVICES}
    )
    replay_ok = encode_ok = emit_ok = resync_ok = True
    junk = bytes(JUNK[(seed + i) % len(JUNK)] for i in range(8))
    for d in DEVICES:
        frames, samples, report = received[d]
        wire = b"".join(
            payload[d] if kind == "paced" else reply["wire"][d]
            for (kind, _a, _b), payload, reply in zip(segments, payloads, replies)
        )
        replay_ok &= report == online[d] and [
            (s.timestamp, s.as_row()) for s in samples
        ] == [(s.timestamp, s.as_row()) for s in sink.samples[d]]

        with tracer.span("telemetry.encode", len(frames)):
            encoded = b"".join(encode(f) for f in frames)
        encode_ok &= encoded == wire

        for (kind, a, b), reply in zip(segments, replies):
            if kind == "bulk":
                transport = _Memory()
                emitter = Emitter(lambda: transport, profile=profile, divider=divider, device_id=d)
                with tracer.span("telemetry.emit", b - a):
                    emitter.run(sessions[d][a:b])
                emit_ok &= bytes(transport.data) == reply["wire"][d]

        noisy = b"".join(junk + wire[i : i + FRAME_LENGTH] for i in range(0, len(wire), FRAME_LENGTH))
        deframer = Deframer()
        with tracer.span("telemetry.resync", len(frames)):
            resynced = []
            for chunk in _chunks(noisy):
                resynced.extend(deframer.feed(chunk))
        resync_ok &= resynced == frames and deframer.skipped_bytes == 8 * len(frames)

    outcome.checks.update({
        "replay_equals_sunk": replay_ok,
        "encode_equals_wire": encode_ok,
        "emitter_replay_equals_wire": emit_ok,
        "resync_recovers_every_frame": resync_ok,
    })
    outcome.spans = tracer.to_json()
    outcome.layers.update(layer_metrics(tracer))
    outcome.layers["trace.overhead_s"] = overhead_s


class _Memory:
    """In-memory transport for ``Emitter``."""

    def __init__(self):
        self.data = bytearray()

    def sendall(self, payload: bytes) -> None:
        self.data += payload

    def close(self) -> None:
        pass
