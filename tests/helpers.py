"""Fixture writers, fixture data, a chart reader and reference receive,
decode and fold paths that only the tests use.

The package reads legacy bench recordings and calibration files but never
writes them, and never reads its charts back; these helpers make the files
and the counts the tests check, and piped() hands a reader a file through a
pipe. reference_decode is decode() on a struct layout of its own, and
ReferenceReceiver is the collector's receive step one frame at a time on it,
which the chunked receive step must match; receive() hands either step
chosen chunks as one connection. reference_update is Analyzer.update written
on the region reduction and the Schmitt trigger as functions, which the flat
kernel must match. counts_to_samples decodes a block of codes to samples
through the package's block decoder, and simulate_session gives simulate's
chain as a SessionLog of those samples. run_cli runs the ``solesense`` command
in a child process, and send_until_closed hands a collector the frames
``packed`` gives and waits for it to hang up.
"""

from __future__ import annotations

import os
import socket
import struct
import subprocess
import sys
import threading
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from solesense import store
from solesense.acquisition import (
    DividerConfig,
    _checked_tables,
    _decoded_samples,
    divider_out_ohms,
    quantize_volts,
)
from solesense.analysis import (
    _OFF_PA,
    _ON_PA,
    _REGION_SLICES,
    _REGIONS,
    _REST_CODES,
    _WEIGHTS,
    Analyzer,
    GaitEvent,
)
from solesense.sensor import CalibrationPoint, CalibrationProfile, DynamicsConfig, SensorState, run_channel
from solesense.store import CALIBRATION_HEADER, LEGACY_COLUMNS, LegacyRecord, SessionLog
from solesense.synth import GaitParams, synthesize_columns
from solesense.telemetry import (
    MAGIC,
    PROTOCOL_VERSION,
    BadCrc,
    BadMagic,
    BadVersion,
    Collector,
    Deframer,
    DeviceStats,
    SessionHeader,
    TelemetryFrame,
    Truncated,
    crc16_ccitt_false,
    encode,
)
from solesense.units import PressureSample

# (time_s, pressure_pa, resistance_ohm) bench recording of one fabricated
# sensor, pressed and released. The two columns were logged by separate
# instruments and do not track each other exactly; the log is a legacy
# recording to replay, not calibration data.
BENCH_TIME_LOG: tuple[tuple[float, float, float], ...] = (
    (0.0, 428589.8, 3342900.0),
    (1.0, 428589.8, 3342900.0),
    (2.0, 428589.8, 3342900.0),
    (3.0, 428589.8, 3342900.0),
    (4.0, 428589.8, 3342900.0),
    (5.0, 434370.1, 29162.12),
    (6.0, 469052.1, 29162.12),
    (7.0, 469052.1, 29162.12),
    (8.0, 469052.1, 29162.12),
    (9.0, 469052.1, 29162.12),
    (10.0, 480612.8, 3342900.0),
    (11.0, 509514.4, 3342900.0),
    (12.0, 532635.8, 3342900.0),
    (13.0, 549976.8, 3342900.0),
    (14.0, 648242.5, 8387.898),
)


def write_legacy_csv(path, records: Iterable[LegacyRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(LEGACY_COLUMNS) + "\n")
        for record in records:
            fh.write(
                f"{record.time_s!r},{record.pressure_pa!r},{record.resistance_ohm!r}\n"
            )


def write_calibration_csv(path, points: list[CalibrationPoint]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CALIBRATION_HEADER) + "\n")
        for point in points:
            fh.write(f"{point.pressure_pa!r},{point.resistance_ohm!r}\n")


def piped(path, read):
    """``read(name)`` of a pipe's read end, named ``/dev/fd/<n>``, that a
    thread fills with the bytes of the file at ``path`` and then closes."""
    read_end, write_end = os.pipe()

    def feed():
        with open(write_end, "wb") as fh:
            fh.write(path.read_bytes())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        result = read(f"/dev/fd/{read_end}")
    finally:
        writer.join(10)
        os.close(read_end)
    assert not writer.is_alive(), "the writer never finished"
    return result


def count_series(svg_text: str) -> int:
    """Number of distinct data series in a chart produced by line_chart_svg."""
    names = set()
    for chunk in svg_text.split('data-name="')[1:]:
        names.add(chunk.split('"', 1)[0])
    return len(names)


def _region_pressures(row: Sequence[float]) -> list[float]:
    """Forefoot, midfoot and heel pressure of one canonical-order row: the max
    of each region's channels."""
    return [max(row[s]) for s in _REGION_SLICES]


def _schmitt(pressures: Sequence[float], was: int) -> int:
    """Contact code from forefoot, midfoot and heel pressures and the code
    before: on at or above the on-threshold, off at or below the
    off-threshold, else as it was."""
    code = 0
    for weight, pressure in zip(_WEIGHTS, pressures):
        if pressure >= _ON_PA or (pressure > _OFF_PA and was & weight):
            code += weight
    return code


def reference_update(analyzer: Analyzer, sample) -> list[GaitEvent]:
    """Analyzer.update on _region_pressures and _schmitt: fold in one sample;
    returns any events it produced."""
    t = sample.timestamp
    analyzer._accept(t)
    pressures = _region_pressures(sample.as_row())
    peaks = analyzer._peaks
    for region, pressure in zip(_REGIONS, pressures):
        if pressure > peaks[region]:
            peaks[region] = pressure
    code = analyzer._contact = _schmitt(pressures, analyzer._contact)
    if code in _REST_CODES[analyzer._phase]:
        return []
    event = analyzer._step(t, code)
    return [] if event is None else [event]


# the frame, written down apart from the package's own layout: magic, version,
# device id, sequence, timestamp (low 32, high 16 bits), five counts, CRC
_LAYOUT = struct.Struct("<2sBBIIH5HH")
_CRC_SPAN = _LAYOUT.size - 2


def reference_decode(data, offset: int):
    """decode() on _LAYOUT: the frame that starts ``offset`` bytes into
    ``data`` as (device id, sequence, timestamp ms, counts), or the class of
    the FrameError that decode() raises there."""
    if len(data) - offset < _LAYOUT.size:
        return Truncated
    magic, version, device_id, sequence, ts_low, ts_high, *counts, crc_wire = _LAYOUT.unpack_from(data, offset)
    if magic != MAGIC:
        return BadMagic
    if version != PROTOCOL_VERSION:
        return BadVersion
    if crc16_ccitt_false(data[offset : offset + _CRC_SPAN]) != crc_wire:
        return BadCrc
    return device_id, sequence, ts_low | ts_high << 32, tuple(counts)


@dataclass
class ReferenceDeframer:
    """Deframer.scan one offset at a time through reference_decode, returning
    each valid frame as (device id, sequence, timestamp ms, counts)."""

    frames: int = 0
    bad_crc: int = 0
    bad_version: int = 0
    skipped_bytes: int = 0
    _buffer: bytearray = field(default_factory=bytearray)

    @property
    def error_count(self) -> int:
        return self.bad_crc + self.bad_version

    def scan(self, data: bytes) -> list[tuple]:
        buffer = self._buffer
        buffer.extend(data)
        frames: list[tuple] = []
        pos = 0
        last = len(buffer) - _LAYOUT.size  # the last offset a whole frame starts at
        while pos <= last:
            frame = reference_decode(buffer, pos)
            if frame is BadMagic:
                # jump to the next magic, stopping where less than a frame is left
                found = buffer.find(MAGIC, pos, last + 2)
                skip_to = last + 1 if found < 0 else found
                self.skipped_bytes += skip_to - pos
                pos = skip_to
            elif frame is BadVersion:
                pos += 1
                self.bad_version += 1
            elif frame is BadCrc:
                pos += 1
                self.bad_crc += 1
            else:
                frames.append(frame)
                self.frames += 1
                pos += _LAYOUT.size
        del buffer[:pos]
        return frames


class ReferenceReceiver:
    """Collector._receive, one frame at a time, on connections held as
    (ReferenceDeframer, next sequence per device)."""

    def __init__(self, sink: Callable, table: tuple[float, ...]):
        self._sink = sink
        self._table = table
        self.stats: dict[int, DeviceStats] = defaultdict(DeviceStats)
        self._last_ms: dict[int, int] = {}
        self.connections_closed = 0

    def _receive(self, connection, chunk: bytes) -> bool:
        """Take one received chunk; False when the connection was closed."""
        deframer, expected = connection
        if not chunk:
            self.close(connection)
            return False
        last_ms = self._last_ms
        try:
            table = self._table
            for device_id, sequence, timestamp_ms, counts in deframer.scan(chunk):
                stats = self.stats[device_id]
                want = expected.get(device_id, sequence)
                if sequence < want:  # an at-least-once resend
                    stats.duplicates += 1
                    continue
                stats.gaps += sequence - want
                expected[device_id] = sequence + 1
                if timestamp_ms <= last_ms.get(device_id, -1):  # the sink needs strictly increasing times
                    stats.stale_timestamps += 1
                    continue
                last_ms[device_id] = timestamp_ms
                if max(counts) >= len(table):  # CRC-valid but out of the table: never fatal
                    stats.decode_errors += 1
                    continue
                stats.frames += 1
                self._sink(device_id, PressureSample._of(timestamp_ms / 1000.0, tuple(map(table.__getitem__, counts))))
        except Exception:
            traceback.print_exc()  # a failing sink ends its own connection, not the loop
            self.close(connection)
            return False
        return True

    def close(self, connection) -> None:
        # its deframer's errors land on its first device, or device 0 if it had none
        deframer, expected = connection
        if deframer.error_count:
            self.stats[next(iter(expected), 0)].decode_errors += deframer.error_count
        self.connections_closed += 1


def receive(receiver: Collector | ReferenceReceiver, chunks: Iterable[bytes], deframer=None) -> tuple:
    """Hand ``chunks``, then the end of the stream, to ``receiver._receive``
    as one connection, up to its close; returns the connection: ``deframer``
    (a new Deframer by default) and its next sequence per device."""
    connection = (deframer or Deframer(), {})
    for chunk in [*chunks, b""]:
        if not receiver._receive(connection, chunk):
            break
    return connection


_BLOCK_ROWS = 256


def counts_to_samples(
    timestamps: np.ndarray,
    counts: np.ndarray,
    profile: CalibrationProfile,
    cfg: DividerConfig = DividerConfig(),
) -> list[PressureSample]:
    """counts_to_sample on an (n, 5) block of codes, one row per timestamp; a
    code outside the table raises its ValueError for the first in sample order."""
    objects = _checked_tables(counts, profile, cfg)[1]
    samples = []
    for start in range(0, len(counts), _BLOCK_ROWS):  # bounds the Python copies of the block
        block = slice(start, start + _BLOCK_ROWS)
        samples.extend(_decoded_samples(objects, timestamps[block].tolist(), counts[block]))
    return samples


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
    quantize -> counts_to_sample sample by sample, bit for bit, and, at the
    default divider, simulate's own chain.
    """
    header = SessionHeader(device_id, epoch, profile.name, params.sample_rate_hz, divider)
    times, pascals = synthesize_columns(params)
    _, ohms = run_channel(SensorState.at_rest(0.0), pascals, times, profile, DynamicsConfig())
    counts = quantize_volts(divider_out_ohms(ohms, divider), divider)
    return SessionLog(header=header, samples=counts_to_samples(times, counts, profile, divider))


# the directory that holds the package these tests import: src/ in a checkout,
# or site-packages; a child Python takes it as its PYTHONPATH
PACKAGE_ROOT = str(Path(store.__file__).resolve().parents[1])


def run_cli(argv, prelude="", env=None, start=subprocess.run, **kwargs):
    """``solesense *argv`` in a child Python on the package these tests import,
    after the Python source ``prelude``; ``start``, subprocess.run or
    subprocess.Popen, takes ``kwargs``, and ``env`` adds to os.environ."""
    main = f"{prelude}import runpy\nrunpy.run_module('solesense.cli', run_name='__main__')"
    command = ["-c", main] if prelude else ["-m", "solesense.cli"]
    env = {**os.environ, **(env or {}), "PYTHONPATH": PACKAGE_ROOT}
    return start([sys.executable, *command, *argv], env=env, **kwargs)


def packed(device_id, times, codes) -> bytes:
    """The frames of rows of ADC codes, numbered from 0."""
    rows = enumerate(zip(times.tolist(), codes.tolist()))
    return b"".join(encode(TelemetryFrame(device_id, k, round(t * 1000.0), tuple(c))) for k, (t, c) in rows)


def send_until_closed(addr: str, payload: bytes) -> None:
    """Send ``payload`` to the collector at host:port ``addr`` and end the
    stream; the collector hangs up once it has read it all."""
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=30) as link:
        link.sendall(payload)
        link.shutdown(socket.SHUT_WR)
        while link.recv(4096):
            pass
