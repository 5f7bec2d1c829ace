"""Shared pieces of the benchmark: the package import, spans, the stage chain.

Everything here drives ``solesense`` through its public functions only. The
package is imported from ``src/`` of the checkout this directory sits in, and
from nowhere else, so a benchmark copied away from its source fails instead of
measuring some other installed copy.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def import_solesense():
    """Import the package from this checkout's ``src/``; raise if it is absent."""
    if not (SRC / "solesense" / "__init__.py").is_file():
        raise ImportError(f"no solesense package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import solesense

    if Path(solesense.__file__).resolve().parent != (SRC / "solesense").resolve():
        raise ImportError(f"solesense imported from {solesense.__file__}, not from {SRC}")
    return solesense


import_solesense()

from solesense import store  # noqa: E402
from solesense.acquisition import DividerConfig, counts_to_sample, divider_out, quantize  # noqa: E402
from solesense.sensor import CalibrationProfile, DynamicsConfig, SensorState, step  # noqa: E402
from solesense.synth import GaitParams, synthesize  # noqa: E402
from solesense.telemetry import SessionHeader  # noqa: E402
from solesense.units import CHANNEL_ORDER, PressureSample  # noqa: E402

# The gait every workload simulates: the CLI's defaults plus 2 kPa of noise,
# whose seed is the only thing the workload seed changes. Cost per sample
# therefore does not depend on the seed, so runs at different seeds compare.
MASS_KG = 70.0
CADENCE_SPM = 120.0
STANCE = 0.6
RATE_HZ = 100.0
NOISE_PA = 2000.0
PROFILE = "measured"
SETUP_REPEATS = 5  # set-up builds per run, spread over the run
TRACE_REPEATS = 3  # untraced/traced pairs of the traced path


def gait(seed: int, cycles: int, mass_kg: float = MASS_KG) -> GaitParams:
    return GaitParams(
        body_mass_kg=mass_kg,
        cadence_spm=CADENCE_SPM,
        stance_fraction=STANCE,
        sample_rate_hz=RATE_HZ,
        cycles=cycles,
        noise_sigma_pa=NOISE_PA,
        seed=seed,
    )


# --- spans -------------------------------------------------------------------


@dataclass
class Span:
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    count: int = 0


class Tracer:
    """Spans kept in memory, one per batch of calls, from one thread.

    A span's self time is its duration minus the durations of its children.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, count: int = 0):
        parent = self._open[-1] if self._open else None
        record = Span(name, parent, time.perf_counter_ns(), count=count)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._open.pop()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self seconds, total count)."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
        totals: dict[str, tuple[float, int]] = {}
        for s, children in zip(self.spans, child_ns):
            seconds, count = totals.get(s.name, (0.0, 0))
            totals[s.name] = (seconds + (s.end_ns - s.start_ns - children) / 1e9, count + s.count)
        return totals

    def seconds(self, name: str) -> float:
        return self.self_times().get(name, (0.0, 0))[0]

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "parent": s.parent, "start_ns": s.start_ns,
             "end_ns": s.end_ns, "count": s.count}
            for s in self.spans
        ]


class NullTracer:
    """Same interface as Tracer; records nothing."""

    @contextlib.contextmanager
    def span(self, name: str, count: int = 0):
        yield Span(name, None, 0, count=count)


def traced_and_untraced(tracer: Tracer, root: str, path):
    """Run ``path`` untraced and ``path(tracer)`` traced, TRACE_REPEATS times each.

    The two runs of a pair swap order from one pair to the next, so the cold
    first run of a process does not always fall on the same side. Returns
    the last traced result and the tracing overhead: the median traced wall
    time minus the median untraced one. Traced runs sit under one ``root``
    span each.
    """
    untraced, traced = [], []
    result = None
    for k in range(TRACE_REPEATS):
        for traced_now in (k % 2 == 1, k % 2 == 0):
            if traced_now:
                with tracer.span(root) as span:
                    result = path(tracer)
                traced.append((span.end_ns - span.start_ns) / 1e9)
            else:
                t0 = time.perf_counter()
                path(NullTracer())
                untraced.append(time.perf_counter() - t0)
    return result, statistics.median(traced) - statistics.median(untraced)


# span name -> per-layer metric: count per self second
RATE_SPANS = {
    "synth": "synth.samples_per_s",
    "sensor": "sensor.steps_per_s",
    "acquisition.adc": "acquisition.adc_per_s",
    "acquisition.decode": "acquisition.decode_per_s",
    "telemetry.encode": "telemetry.encode_per_s",
    "telemetry.emit": "telemetry.emit_per_s",
    "telemetry.deframe": "telemetry.deframe_per_s",
    "telemetry.resync": "telemetry.resync_per_s",
    "analysis.update": "analysis.update_per_s",
    "store.write": "store.write_per_s",
    "store.read": "store.read_per_s",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer rates of every span name the tracer saw, and report() time."""
    totals = tracer.self_times()
    metrics = {
        metric: count / seconds
        for name, metric in RATE_SPANS.items()
        if name in totals
        for seconds, count in [totals[name]]
        if seconds > 0
    }
    if "analysis.report" in totals:
        seconds, calls = totals["analysis.report"]
        metrics["analysis.report_s"] = seconds / calls
    return metrics


# --- the feed-forward chain, stage by stage -----------------------------------


def chain_session(
    params: GaitParams,
    profile: CalibrationProfile,
    tracer,
    device_id: int = 1,
    divider: DividerConfig = DividerConfig(),
) -> store.SessionLog:
    """``cli.simulate_session`` split into one batch per layer.

    Calls the same public functions in the same order per sample, so the
    session must equal the one the CLI writes.
    """
    n = params.sample_count
    with tracer.span("synth", n):
        truths = list(synthesize(params))
    dynamics = DynamicsConfig(sample_period=1.0 / params.sample_rate_hz)
    with tracer.span("sensor", n * len(CHANNEL_ORDER)):
        states = {channel: SensorState.at_rest(0.0) for channel in CHANNEL_ORDER}
        resistances = []
        for truth in truths:
            row = []
            for channel in CHANNEL_ORDER:
                states[channel], r = step(
                    states[channel], truth.channels[channel], truth.timestamp, profile, dynamics
                )
                row.append(r)
            resistances.append(row)
    with tracer.span("acquisition.adc", n):
        codes = [
            tuple(quantize(divider_out(r, divider), divider).value for r in row)
            for row in resistances
        ]
    with tracer.span("acquisition.decode", n):
        samples = [
            counts_to_sample(truth.timestamp, c, profile, divider)
            for truth, c in zip(truths, codes)
        ]
    header = SessionHeader(
        device_id=device_id,
        epoch=store.DEFAULT_EPOCH,
        profile_name=profile.name,
        sample_rate_hz=params.sample_rate_hz,
        divider=divider,
    )
    return store.SessionLog(header=header, samples=samples)


def code_shares(samples: list[PressureSample], profile: CalibrationProfile) -> dict[str, float]:
    """Share of decoded channel values by decode path.

    ``counts_to_sample`` maps every idle code to exactly 0 Pa and every clamp
    code to exactly the profile's last pressure; only interior codes reach
    the bisection, and it never returns either end value.
    """
    idle = clamp = total = 0
    top = profile.max_pressure_pa
    for sample in samples:
        for value in sample.as_row():
            total += 1
            if value == 0.0:
                idle += 1
            elif value == top:
                clamp += 1
    return {
        "interior_share": (total - idle - clamp) / total,
        "idle_share": idle / total,
        "clamp_share": clamp / total,
    }


# --- measurement helpers -------------------------------------------------------

# The reference kernel's size, and its fastest time on a 2-vCPU Intel Xeon VM
# (Python 3.11.7, numpy 2.4.6). A time at reference speed is a wall time
# scaled as if the kernel had run this fast around it.
REFERENCE_ROWS = 4000
REFERENCE_S = 0.0079
_REF_X = np.linspace(0.0, 1.0, 64)
_REF_Y = np.sqrt(_REF_X)


def reference_seconds() -> float:
    """Wall time of a fixed piece of work shaped like the program's own.

    Scalar ``np.interp`` calls, float arithmetic, string formatting and list
    appends, as in the decode, sensor and store layers. The kernel is the
    benchmark's, so it costs the same on every commit under test.
    """
    t0 = time.perf_counter()
    rows = []
    for i in range(REFERENCE_ROWS):
        x = i / REFERENCE_ROWS
        y = float(np.interp(x, _REF_X, _REF_Y))
        rows.append(f"{x:.6f},{math.exp(-y) * 3.0 + y * y:.3f}")
    "\n".join(rows)
    return time.perf_counter() - t0


class Referenced:
    """Timed units of one run, each between two runs of the reference kernel.

    Other tenants of a shared host slow every process on it by up to a half,
    in phases of seconds to minutes: a 10 s run could be slow from end to end,
    and then no estimator over its own wall times repeats between runs. The
    reference kernel, run right before and right after each unit in the same
    process, is slowed by the same phase, so a unit's wall time scaled by the
    kernel's (``scaled``: the time at reference speed) keeps what the program
    costs and drops most of the host's speed.

    ``unit(fn)`` runs ``fn``, which returns its result and its own wall time,
    so that the timing covers exactly the work under test.
    """

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.refs: list[float] = []  # mean kernel time around each unit

    def unit(self, fn):
        before = reference_seconds()
        result, wall = fn()
        after = reference_seconds()
        self.walls.append(wall)
        self.refs.append((before + after) / 2.0)
        return result

    @property
    def scaled(self) -> list[float]:
        return [w * REFERENCE_S / r for w, r in zip(self.walls, self.refs)]


class Setup:
    """A workload's set-up, built before timing starts and again during the run.

    The first build gives the run its inputs. Afterwards everything alive is
    frozen out of the garbage collector, so the benchmark's own inputs and
    references do not lengthen the collection pauses of the program under
    test. The run calls ``again(done, total)`` between its timed units, and
    the build is repeated, its result dropped, each time ``done`` passes the
    next of ``repeats`` evenly spaced points. Each build is timed between two
    runs of the reference kernel; ``seconds`` is the median build time at
    reference speed.
    """

    def __init__(self, build, repeats: int):
        self.build = build
        self.repeats = repeats
        self.clock = Referenced()
        self.result = self._timed()
        gc.collect()
        gc.freeze()

    def _timed(self):
        def timed():
            t0 = time.perf_counter()
            result = self.build()
            return result, time.perf_counter() - t0

        return self.clock.unit(timed)

    def again(self, done: int, total: int) -> None:
        if len(self.clock.walls) < self.repeats and done * self.repeats >= len(self.clock.walls) * total:
            self._timed()

    @property
    def seconds(self) -> float:
        return statistics.median(self.clock.scaled)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run produced, before it is printed."""

    attempted: int
    failed: int
    checks: dict[str, bool]
    end_to_end: dict[str, float]
    layers: dict[str, float] = field(default_factory=dict)
    inputs: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    timings: dict[str, list[float]] = field(default_factory=dict)  # per timed unit

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(),
        "seed": seed,
        "reference_s": REFERENCE_S,
    }


def git_commit() -> str:
    """HEAD of the repository this checkout is, or "unknown" outside git.

    Reads ``.git`` of the checkout itself, so a checkout that merely sits
    inside some other repository does not report that repository's commit.
    """
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = git / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
