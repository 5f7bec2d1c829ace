"""Binary telemetry link: frame codec, device-side emitter, collector server.

Wire format (26 bytes, little-endian multi-byte integers):

    offset  size  field
    0       2     magic 0x53 0x4C ("SL")
    2       1     version (= 1)
    3       1     device id
    4       4     sequence number, u32
    8       6     timestamp, u48 milliseconds since session epoch
    14      10    five u16 ADC counts in canonical channel order
    24      2     CRC-16/CCITT-FALSE over bytes 0..23

The CRC is poly 0x1021, init 0xFFFF, no reflection, no xor-out; its check
value over the ASCII bytes "123456789" is 0x29B1.

Transport is TCP (lab-scale, reliability first); sequence numbers still
travel so reconnect gaps and resent duplicates are visible and a datagram mode
stays possible. The collector resynchronizes on the next magic after any decode
error, so junk between frames never costs an intact frame. One collector thread
serves every device and runs the sink, so a slow sink delays every connection.

Both ends work a block at a time. An unpaced emitter reads ahead up to 256
samples, converts them in one ``counts_from_pascals`` call, packs each frame
and sends the block with one sendall; a paced one pulls, packs and sends one
sample at a time. A sendall that fails is retried whole on the next
connection, so a reconnect can repeat up to a whole block of frames, which the
collector drops as stale timestamps. The collector reads up to _RECV_BYTES at a
time and works on each received chunk whole. ``Deframer.scan`` returns its
valid frames as packed bytes: a chunk of at least _ARRAY_FRAMES whole frames is
checked in a few numpy calls and, when it is a clean aligned run, returned as
one slice. Such a chunk then goes through the sequence and timestamp ledger and
the decode as arrays (``_ledger``), its codes indexing an object-dtype copy of
the decode table, so each kept frame becomes one float-row PressureSample of
the table's own floats. A smaller chunk (a paced link sends one frame per recv)
takes the same steps one frame at a time, which costs less below the crossing.
``Deframer.feed`` wraps the scan in TelemetryFrames for callers that want them.
"""

from __future__ import annotations

import binascii
import math
import selectors
import socket
import struct
import threading
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import datetime
from itertools import count, islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .acquisition import (
    DividerConfig,
    _decode_tables,
    _decoded_sample,
    _decoded_samples,
    counts_from_pascals,
)
from .sensor import CalibrationProfile
from .units import PressureSample

MAGIC = b"SL"
PROTOCOL_VERSION = 1
FRAME_LENGTH = 26
CRC_SPAN = 24  # bytes covered by the CRC
TIMESTAMP_MAX_MS = (1 << 48) - 1
DEFAULT_PORT = 7332
ADDR_ENV_VAR = "SOLESENSE_ADDR"
# samples an unpaced emitter converts and sends at a time: bounds its
# read-ahead and the Python copies of one block
_BLOCK_ROWS = 256
# bytes the collector asks of one recv: a whole unpaced block (6,656 bytes) and
# any backlog go through one scan and one ledger pass
_RECV_BYTES = 1 << 16
# an emitter's reconnect backoff: doubles from the base up to the cap
_BACKOFF_BASE_S = 0.1
_BACKOFF_CAP_S = 5.0

def crc16_ccitt_false(data: bytes) -> int:
    """CRC-16/CCITT-FALSE, which is binascii's CRC-CCITT started at 0xFFFF."""
    return binascii.crc_hqx(data, 0xFFFF)


class FrameError(ValueError):
    """Base decode error; ``offset`` is the byte offset the error refers to."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class BadMagic(FrameError):
    pass


class BadVersion(FrameError):
    pass


class BadCrc(FrameError):
    pass


class Truncated(FrameError):
    pass


@dataclass(frozen=True)
class TelemetryFrame:
    device_id: int
    sequence: int
    timestamp_ms: int
    counts: tuple[int, int, int, int, int]

    def __post_init__(self) -> None:
        if not 0 <= self.device_id <= 0xFF:
            raise ValueError(f"device_id out of range: {self.device_id!r}")
        if not 0 <= self.sequence <= 0xFFFFFFFF:
            raise ValueError(f"sequence out of range: {self.sequence!r}")
        if not 0 <= self.timestamp_ms <= TIMESTAMP_MAX_MS:
            raise ValueError(f"timestamp_ms out of range: {self.timestamp_ms!r}")
        if len(self.counts) != 5 or any(not 0 <= c <= 0xFFFF for c in self.counts):
            raise ValueError(f"counts must be five u16 values, got {self.counts!r}")


# magic, version, device id, sequence, timestamp (low 32 bits, high 16), counts
_BODY = struct.Struct("<2sBBIIH5H")
_CRC = struct.Struct("<H")
_FRAME = struct.Struct(_BODY.format + "H")  # a whole frame: _BODY, then the CRC
# the same whole frame as a numpy record, for reading a chunk of frames at once
_WIRE = np.dtype([
    ("magic", "S2"), ("version", "u1"), ("device", "u1"), ("sequence", "<u4"),
    ("ms_low", "<u4"), ("ms_high", "<u2"), ("counts", "<u2", (5,)), ("crc", "<u2"),
])
# whole frames a chunk needs before it is checked and decoded as arrays: the
# array route's numpy calls cost about 40 us per chunk, and it overtook the
# per-frame loop between 20 and 24 frames (a paced link delivers one frame per
# recv, a bulk one a block of 256 or more)
_ARRAY_FRAMES = 24


def _crc_byte_table() -> np.ndarray:
    """What each byte value at each of the CRC_SPAN positions adds to the CRC,
    flattened (position * 256 + value). The CRC is affine in its input, so a
    span's CRC is the xor of its bytes' entries and the CRC of all zeros."""
    zero = crc16_ccitt_false(bytes(CRC_SPAN))
    table = []
    for i in range(CRC_SPAN):
        row = [0]
        for b in range(8):  # a value's entry is the xor of its set bits' entries
            bit = crc16_ccitt_false(bytes(i) + bytes([1 << b]) + bytes(CRC_SPAN - 1 - i)) ^ zero
            row += [entry ^ bit for entry in row]
        table += row
    table[:256] = [entry ^ zero for entry in table[:256]]  # every span has a first byte: it carries the zeros' CRC
    return np.array(table, np.uint16)


_CRC_BYTES = _crc_byte_table()
_CRC_ROWS = np.arange(CRC_SPAN) * 256
_HEAD = np.frombuffer(MAGIC + bytes([PROTOCOL_VERSION]), np.uint8)


def _all_valid(frames: bytes) -> bool:
    """Whether ``frames``, whole frames back to back, all pass decode()'s
    magic, version and CRC checks."""
    rows = np.frombuffer(frames, np.uint8).reshape(-1, FRAME_LENGTH)
    if not (rows[:, : len(_HEAD)] == _HEAD).all():
        return False
    crcs = np.bitwise_xor.reduce(_CRC_BYTES[rows[:, :CRC_SPAN] + _CRC_ROWS], axis=1)
    return bool((crcs == np.frombuffer(frames, _WIRE)["crc"]).all())


def _pack(device_id: int, sequence: int, timestamp_ms: int, counts) -> bytes:
    """The 26 wire bytes of one frame. A field out of its range raises
    struct.error (the timestamp's high 16 bits catch one below 0 or past u48)."""
    body = _BODY.pack(
        MAGIC, PROTOCOL_VERSION, device_id, sequence, timestamp_ms & 0xFFFFFFFF, timestamp_ms >> 32, *counts
    )
    return body + _CRC.pack(crc16_ccitt_false(body))


def encode(frame: TelemetryFrame) -> bytes:
    return _pack(frame.device_id, frame.sequence, frame.timestamp_ms, frame.counts)


def decode(data: bytes, offset: int = 0) -> TelemetryFrame:
    """Decode one frame starting at ``offset``; validates magic, version, CRC."""
    if len(data) - offset < FRAME_LENGTH:
        raise Truncated(f"need {FRAME_LENGTH} bytes, have {len(data) - offset}", offset)
    magic, version, device_id, sequence, ts_low, ts_high, *counts = _BODY.unpack_from(data, offset)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}", offset)
    if version != PROTOCOL_VERSION:
        raise BadVersion(f"unsupported version {version}", offset + 2)
    (crc_wire,) = struct.unpack_from("<H", data, offset + CRC_SPAN)
    crc_calc = crc16_ccitt_false(data[offset : offset + CRC_SPAN])
    if crc_wire != crc_calc:
        raise BadCrc(f"crc mismatch: wire {crc_wire:#06x} != {crc_calc:#06x}", offset)
    return TelemetryFrame(device_id, sequence, ts_low | ts_high << 32, tuple(counts))


@dataclass
class Deframer:
    """Incremental frame extractor that resynchronizes on the magic.

    A bad version or CRC skips one byte, and junk is skipped up to the next
    magic in one search, so junk between frames never costs an intact frame.
    A truncated tail is kept for the next call. ``scan()`` returns the valid
    frames' bytes, which is what the collector reads; ``feed()`` returns them
    as TelemetryFrames.
    """

    frames: int = 0
    bad_crc: int = 0
    bad_version: int = 0
    skipped_bytes: int = 0
    _buffer: bytearray = field(default_factory=bytearray)

    @property
    def error_count(self) -> int:
        return self.bad_crc + self.bad_version

    def scan(self, data: bytes) -> bytes:
        """The valid frames completed by ``data``, back to back, 26 bytes each.

        When the buffer holds at least _ARRAY_FRAMES whole frames, it first
        checks them all at once, and a clean aligned run (what a healthy link
        sends) is returned as one slice. Otherwise each offset is checked in
        turn, as decode() checks magic, version and CRC, without building a
        TelemetryFrame; both ways count the same.
        """
        buffer = self._buffer
        buffer.extend(data)
        whole = len(buffer) - len(buffer) % FRAME_LENGTH
        if whole >= _ARRAY_FRAMES * FRAME_LENGTH:
            frames = bytes(buffer[:whole])
            if _all_valid(frames):
                del buffer[:whole]
                self.frames += whole // FRAME_LENGTH
                return frames
        valid = []
        pos = 0
        last = len(buffer) - FRAME_LENGTH  # the last offset a whole frame starts at
        while pos <= last:
            if not buffer.startswith(MAGIC, pos):
                # jump to the next magic, stopping where less than a frame is left
                found = buffer.find(MAGIC, pos, last + 2)
                skip_to = last + 1 if found < 0 else found
                self.skipped_bytes += skip_to - pos
                pos = skip_to
            elif buffer[pos + 2] != PROTOCOL_VERSION:
                pos += 1
                self.bad_version += 1
            elif crc16_ccitt_false(buffer[pos : pos + CRC_SPAN]) != _CRC.unpack_from(buffer, pos + CRC_SPAN)[0]:
                pos += 1
                self.bad_crc += 1
            else:
                valid.append(buffer[pos : pos + FRAME_LENGTH])
                self.frames += 1
                pos += FRAME_LENGTH
        del buffer[:pos]
        return b"".join(valid)

    def feed(self, data: bytes) -> list[TelemetryFrame]:
        """scan(), as TelemetryFrames."""
        return [
            TelemetryFrame(device_id, sequence, ts_low | ts_high << 32, tuple(counts))
            for _magic, _version, device_id, sequence, ts_low, ts_high, *counts, _crc in _FRAME.iter_unpack(
                self.scan(data)
            )
        ]


@dataclass(frozen=True)
class SessionHeader:
    """Session metadata; written to files, never transmitted on the wire."""

    device_id: int
    epoch: str  # RFC 3339 / ISO-8601 UTC wall-clock of sample time zero
    profile_name: str
    sample_rate_hz: float
    divider: DividerConfig = DividerConfig()

    def __post_init__(self) -> None:
        try:
            datetime.fromisoformat(self.epoch.replace("Z", "+00:00"))
        except ValueError:
            raise ValueError(f"epoch must be an RFC 3339 timestamp, got {self.epoch!r}") from None


def frames_from_samples(
    samples: Iterable[PressureSample],
    profile: CalibrationProfile,
    divider: DividerConfig = DividerConfig(),
    device_id: int = 1,
    start_sequence: int = 0,
) -> Iterator[TelemetryFrame]:
    """Pure sample -> frame conversion; sequence increments by one per sample.

    Reads ahead up to 256 samples, which it converts as one block.
    """
    for sequence, stamps, codes in _framed(samples, profile, divider, start_sequence, _BLOCK_ROWS):
        for row_sequence, timestamp_ms, counts in zip(count(sequence), stamps, codes.tolist()):
            yield TelemetryFrame(device_id, row_sequence, timestamp_ms, tuple(counts))


def _framed(
    samples: Iterable[PressureSample],
    profile: CalibrationProfile,
    divider: DividerConfig,
    sequence: int,
    rows: int,
) -> Iterator[tuple[int, list[int], np.ndarray]]:
    """(first sequence, timestamps in ms, (n, 5) codes) of each block of up to
    ``rows`` samples, numbered from ``sequence``; each block is converted with
    one counts_from_pascals call.

    A timestamp that is not finite ends its block: the rows before it come as
    a shorter block, then ValueError is raised. No other range is checked
    here: frames_from_samples builds a TelemetryFrame of every row, and
    Emitter.run packs every row with _pack, whose fields reject the same
    values.
    """
    samples = iter(samples)
    while block := list(islice(samples, rows)):
        codes = counts_from_pascals(np.array([sample.as_row() for sample in block]), profile, divider)
        try:
            stamps = [round(sample.timestamp * 1000.0) for sample in block]
        except (ValueError, OverflowError):  # round() of a NaN or an infinity
            times = [sample.timestamp * 1000.0 for sample in block]
            bad = next(k for k, ms in enumerate(times) if not math.isfinite(ms))
            if bad:
                yield sequence, [round(ms) for ms in times[:bad]], codes[:bad]
            raise ValueError(f"timestamp_ms out of range: {times[bad]!r}") from None
        yield sequence, stamps, codes
        sequence += len(block)


class Emitter:
    """Device-side sender: one frame per sample over a (re)connecting transport.

    ``connect`` returns anything with sendall()/close(). Unpaced, it reads
    ahead up to 256 samples, converts and packs them as one block and sends
    the block with one sendall(); paced, it pulls, packs and sends one sample
    at a time, so a frame never waits for a later sample.

    On transport failure the emitter reconnects with a fixed exponential
    backoff, from 100 ms doubling up to 5 s between attempts, each wait passed
    to ``sleep``, and resends the whole failed block, so sequence numbering
    continues across reconnects. Delivery is at-least-once: the part of a
    block that got through before the failure arrives again on the next
    connection, so a reconnect can repeat up to 256 frames, and any frames
    the transport had buffered but never delivered show up at the receiver as
    sequence gaps.

    A sample no frame can carry (a device id, sequence or count out of its
    field's range, or a timestamp out of range or not finite) raises
    ValueError after the frames before it have gone out.
    """

    def __init__(
        self,
        connect: Callable[[], object],
        profile: CalibrationProfile,
        divider: DividerConfig = DividerConfig(),
        device_id: int = 1,
        pace: bool = False,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._connect = connect
        self._profile = profile
        self._divider = divider
        self._device_id = device_id
        self._pace = pace
        self._sleep = sleep
        self._conn = None
        self.sent = 0
        self.retries = 0

    def _ensure_connected(self) -> None:
        backoff = _BACKOFF_BASE_S
        while self._conn is None:
            try:
                self._conn = self._connect()
            except OSError:
                self._sleep(backoff)
                backoff = min(backoff * 2.0, _BACKOFF_CAP_S)

    def _paced(self, samples: Iterable[PressureSample]) -> Iterator[PressureSample]:
        """Yield each sample after sleeping the timestamp delta since the last,
        at most half threading.TIMEOUT_MAX (time.sleep fails once its deadline
        passes TIMEOUT_MAX); a timestamp no frame can carry (past u48 ms, or
        not finite) is yielded at once, for run() to reject."""
        previous_t = None
        for sample in samples:
            frameable = sample.timestamp * 1000.0 <= TIMESTAMP_MAX_MS  # False for NaN and inf too
            if previous_t is not None and previous_t < sample.timestamp and frameable:
                self._sleep(min(sample.timestamp - previous_t, threading.TIMEOUT_MAX / 2))
            previous_t = sample.timestamp
            yield sample

    def run(self, samples: Iterable[PressureSample]) -> int:
        """Send every sample, numbered on from earlier runs; returns the frames delivered so far."""
        rows = _BLOCK_ROWS
        if self._pace:
            samples, rows = self._paced(samples), 1
        for sequence, stamps, codes in _framed(samples, self._profile, self._divider, self.sent, rows):
            frames = []
            for row in zip(count(sequence), stamps, codes.tolist()):
                try:
                    frames.append(_pack(self._device_id, *row))
                except struct.error:
                    self._send(frames)
                    TelemetryFrame(self._device_id, row[0], row[1], tuple(row[2]))  # raises its ValueError
                    raise
            self._send(frames)
        return self.sent

    def _send(self, frames: list[bytes]) -> None:
        """Send ``frames`` with one sendall, resent whole on a new connection
        until it goes through."""
        if not frames:
            return
        payload = b"".join(frames)
        while True:
            self._ensure_connected()
            try:
                self._conn.sendall(payload)
                break
            except OSError:
                self.close()
                self.retries += 1
        self.sent += len(frames)

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None


# a frame's fate in the array ledger: the DeviceStats counter it adds to
_KEPT, _DUPLICATE, _STALE, _UNDECODABLE = range(4)


def _ledger(wire: np.ndarray, codes: int, expected: dict[int, int], last_ms: dict[int, int]):
    """Collector._ingest_frames' ledger over a chunk of frames on arrays,
    without changing any state: each frame's fate, its timestamp in ms, and
    per device (in order of first arrival) the fate counts, the gaps, and the
    next sequence and last kept ms after the chunk.

    Per device, the sequence a frame is checked against is the largest of the
    one expected before the chunk and each earlier frame's sequence plus one;
    and a frame's timestamp is stale when it is at or below the largest of the
    last kept one and each earlier new frame's (a stale one never raises it).
    """
    devices = wire["device"]
    sequences = wire["sequence"].astype(np.int64)
    ms = wire["ms_low"] | wire["ms_high"].astype(np.int64) << 32
    fate = np.where(wire["counts"].max(axis=1) >= codes, _UNDECODABLE, _KEPT)
    if (devices == devices[0]).all():
        by_device = [(int(devices[0]), slice(None))]
    else:
        ids, firsts = np.unique(devices, return_index=True)
        by_device = [(d, np.flatnonzero(devices == d)) for d in ids[np.argsort(firsts)].tolist()]
    totals = []
    for device, at in by_device:
        seq, new_ms = sequences[at], ms[at]
        want = np.maximum.accumulate(np.concatenate(([expected.get(device, seq[0]) - 1], seq))) + 1
        duplicate = seq < want[:-1]
        kept_ms = np.maximum.accumulate(np.concatenate(([last_ms.get(device, -1)], np.where(duplicate, -1, new_ms))))
        stale = new_ms <= kept_ms[:-1]
        fate[at] = device_fate = np.where(duplicate, _DUPLICATE, np.where(stale, _STALE, fate[at]))
        gaps = int(np.where(duplicate, 0, seq - want[:-1]).sum())
        totals.append((device, np.bincount(device_fate, minlength=4).tolist(), gaps, int(want[-1]), int(kept_ms[-1])))
    return fate, ms, totals


@dataclass
class DeviceStats:
    frames: int = 0
    gaps: int = 0
    duplicates: int = 0
    decode_errors: int = 0
    stale_timestamps: int = 0


class Collector:
    """TCP server ingesting frames from any number of devices.

    One thread runs a selector loop over the listener, every connection and a
    socket pair that ``stop()`` writes to. In arrival order it counts gaps,
    counts and drops duplicates, drops frames whose millisecond timestamp is
    not after the device's last kept one (above 1 kHz they collide, and a
    reconnect resends), and counts and skips decode errors. Sequence state is
    per connection; the timestamp guard is per device, across connections, so
    the sink sees each device's times strictly increasing.
    Each received chunk is scanned once (``Deframer.scan``, no TelemetryFrame).
    A chunk of at least _ARRAY_FRAMES frames is counted and decoded as arrays,
    a smaller one frame by frame; both give the same samples and counters.
    ``sink(device_id, PressureSample)`` runs on that thread, once per kept
    frame and in arrival order: it needs no lock, but a slow sink delays every
    connection; one that raises ends only its own, with the counters taking
    in the frames up to the one it raised on.
    """

    def __init__(
        self,
        sink: Callable[[int, PressureSample], None],
        profile: CalibrationProfile,
        divider: DividerConfig = DividerConfig(),
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
    ):
        self._sink = sink
        self._table, self._objects = _decode_tables(profile, divider)
        self._host = host
        self._port = port
        self._server: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self.stats: dict[int, DeviceStats] = defaultdict(DeviceStats)
        self._last_ms: dict[int, int] = {}  # per device: the last kept timestamp
        self.connections_closed = 0
        self.connection_closed = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("collector not started")
        return self._server.getsockname()[:2]

    def start(self) -> None:
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self._host, self._port))
        server.listen()
        server.setblocking(False)
        self._server = server
        self._wake_read, self._wake_write = socket.socketpair()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self._server, selectors.EVENT_READ)
            selector.register(self._wake_read, selectors.EVENT_READ)
            try:
                while True:
                    for key, _events in selector.select():
                        if key.fileobj is self._wake_read:
                            return
                        if key.fileobj is not self._server:
                            self._read(selector, key)
                            continue
                        try:
                            conn, _addr = self._server.accept()
                        except OSError:  # the client left first, or no descriptor is free yet
                            continue
                        # per connection: its deframer and, per device, the next sequence
                        selector.register(conn, selectors.EVENT_READ, (Deframer(), {}))
            finally:
                for key in list(selector.get_map().values()):
                    if key.data is not None:
                        self._close(selector, key)
                self._server.close()

    def _read(self, selector: selectors.BaseSelector, key: selectors.SelectorKey) -> None:
        deframer, expected = key.data
        try:
            chunk = key.fileobj.recv(_RECV_BYTES)  # readable: returns at once, b"" at end of stream
        except OSError:
            chunk = b""
        if not chunk:
            self._close(selector, key)
            return
        try:
            frames = deframer.scan(chunk)
            if len(frames) < _ARRAY_FRAMES * FRAME_LENGTH:
                self._ingest_frames(expected, frames)
            else:
                self._ingest_block(expected, frames)
        except Exception:
            traceback.print_exc()  # a failing sink ends its own connection, not the loop
            self._close(selector, key)

    def _ingest_frames(self, expected: dict[int, int], frames: bytes) -> None:
        """The ledger and decode of a few frames, one frame at a time."""
        last_ms = self._last_ms
        table = self._table
        for _magic, _version, device_id, sequence, ts_low, ts_high, *counts, _crc in _FRAME.iter_unpack(frames):
            stats = self.stats[device_id]
            timestamp_ms = ts_low | ts_high << 32
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
            self._sink(device_id, _decoded_sample(table, timestamp_ms / 1000.0, counts))

    def _ingest_block(self, expected: dict[int, int], frames: bytes) -> None:
        """_ingest_frames on arrays (``_ledger``), with the same outcome. If
        the sink raises, the counters and ledger take in the frames up to the
        one it raised on, as one frame at a time would."""
        wire = np.frombuffer(frames, _WIRE)
        codes = len(self._table)
        fate, ms, totals = _ledger(wire, codes, expected, self._last_ms)
        kept = np.flatnonzero(fate == _KEPT)
        samples = _decoded_samples(self._objects, (ms[kept] / 1000.0).tolist(), wire["counts"][kept])
        sink = self._sink
        try:
            for end, device_id, sample in zip((kept + 1).tolist(), wire["device"][kept].tolist(), samples):
                sink(device_id, sample)
        except Exception:
            totals = _ledger(wire[:end], codes, expected, self._last_ms)[2]
            raise
        finally:
            for device, (sunk, duplicates, stale, undecodable), gaps, next_sequence, last_ms in totals:
                stats = self.stats[device]
                stats.frames += sunk
                stats.duplicates += duplicates
                stats.stale_timestamps += stale
                stats.decode_errors += undecodable
                stats.gaps += gaps
                expected[device] = next_sequence
                self._last_ms[device] = last_ms

    def _close(self, selector: selectors.BaseSelector, key: selectors.SelectorKey) -> None:
        selector.unregister(key.fileobj)
        key.fileobj.close()
        # its deframer's errors land on its first device, or device 0 if it had none
        deframer, expected = key.data
        if deframer.error_count:
            self.stats[next(iter(expected), 0)].decode_errors += deframer.error_count
        self.connections_closed += 1
        self.connection_closed.set()

    def stop(self) -> None:
        if self._thread is not None:
            self._wake_write.send(b"\0")
            self._thread.join()
            self._thread = None
            self._wake_read.close()
            self._wake_write.close()
