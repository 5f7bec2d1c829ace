"""Binary telemetry link: frame codec, device-side emitter, collector server.

Wire format (26 bytes, little-endian multi-byte integers), declared once as
the _WIRE record dtype: every frame is packed and read as _WIRE records, and
the frame length, CRC span, byte offsets and field maxima come from its fields.

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

Both ends work a block at a time. The emitter frames columns of ADC codes
(``Emitter.send_counts``): it checks every frame field once on the arrays and
frames up to 256 rows at a time as one _WIRE record array with every CRC
computed at once (``_pack_block``, the one frame builder; encode() packs one
row through it). Unpaced, a block's bytes go with one sendall; paced, each
frame's 26 bytes go on an absolute schedule. ``Emitter.run`` converts samples
to codes, up to 256 at a time in one ``counts_from_pascals`` call, paced or
not, and hands them to it. A sendall that fails is retried whole on the next
connection, so a reconnect can repeat up to a whole block of frames, which
the collector drops as stale timestamps. The collector reads up to
_RECV_BYTES at a time and works on each received chunk whole.
``Deframer.scan`` returns its valid frames as packed bytes: a chunk of at
least _ARRAY_FRAMES whole frames is checked in a few numpy calls and, when it
is a clean aligned run, returned as one slice. ``Collector._ingest`` reads
those bytes once as a _WIRE record array, cuts them into runs (one device,
consecutive sequences, rising ms timestamps: a healthy link's chunk is one
run) and moves the sequence and timestamp ledger once per run. The chunk's
codes index an object-dtype copy of the decode table once,
PressureSample._of_rows makes its samples, each a float row of the table's
own floats, and a plain loop hands each run's kept samples to the sink.
``Deframer.feed`` reads the scan as _WIRE records, wrapped in TelemetryFrames.
"""

from __future__ import annotations

import binascii
import math
import operator
import re
import selectors
import socket
import threading
import time
import traceback
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import datetime
from functools import reduce
from itertools import count, islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .acquisition import (
    DividerConfig,
    _decode_tables,
    _decoded_samples,
    counts_from_pascals,
)
from .sensor import CalibrationProfile
from .units import CHANNEL_ORDER, PressureSample, samples_to_columns

MAGIC = b"SL"
PROTOCOL_VERSION = 1
# the table above; the u48 timestamp travels as its low 32 and high 16 bits
_WIRE = np.dtype([
    ("magic", "V2"), ("version", "u1"), ("device", "u1"), ("sequence", "<u4"),
    ("ms_low", "<u4"), ("ms_high", "<u2"), ("counts", "<u2", (5,)), ("crc", "<u2"),
])
FRAME_LENGTH = _WIRE.itemsize
CRC_SPAN = _WIRE.fields["crc"][1]  # bytes covered by the CRC: every byte before it
_VERSION_AT = _WIRE.fields["version"][1]
_MS_LOW_BITS = 8 * _WIRE["ms_low"].itemsize
TIMESTAMP_MAX_MS = (1 << (_MS_LOW_BITS + 8 * _WIRE["ms_high"].itemsize)) - 1
DEFAULT_PORT = 7332
ADDR_ENV_VAR = "SOLESENSE_ADDR"
# rows the emitter packs and, unpaced, sends at a time, and samples it converts
# at a time: bounds its read-ahead and the Python copies of one block
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


# each TelemetryFrame field's largest value, read off its _WIRE field
_TOPS = {
    "device_id": np.iinfo(_WIRE["device"]).max, "sequence": np.iinfo(_WIRE["sequence"]).max,
    "timestamp_ms": TIMESTAMP_MAX_MS, "counts": np.iinfo(_WIRE["counts"].base).max,
}
# the same, for each value a TelemetryFrame holds in order, the five counts one by one
_VALUE_TOPS = tuple((name, _TOPS[name]) for name in ("device_id", "sequence", "timestamp_ms", *["counts"] * 5))


@dataclass(frozen=True, slots=True)
class TelemetryFrame:
    device_id: int
    sequence: int
    timestamp_ms: int
    counts: tuple[int, int, int, int, int]

    def __post_init__(self) -> None:
        """Every field an integer (a numpy int or a bool too; never a float) in its wire range."""
        if len(self.counts) != 5:
            raise ValueError(f"counts must be five u16 values, got {self.counts!r}")
        for (name, top), value in zip(_VALUE_TOPS, (self.device_id, self.sequence, self.timestamp_ms, *self.counts)):
            try:
                if not 0 <= operator.index(value) <= top:
                    raise ValueError(f"{name} out of range: {value!r}")
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None


# whole frames a chunk needs before the deframer checks it as arrays: the
# check's numpy calls cost tens of microseconds per chunk, which its per-offset
# loop beats on fewer frames (a paced link delivers one frame per recv, a bulk
# one a block of 256 or more)
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


def _crcs(rows: np.ndarray) -> np.ndarray:
    """The CRC of each row of ``rows``, whole frames as (n, FRAME_LENGTH) bytes."""
    return np.bitwise_xor.reduce(_CRC_BYTES[rows[:, :CRC_SPAN] + _CRC_ROWS], axis=1)


def _all_valid(frames: bytes) -> bool:
    """Whether ``frames``, whole frames back to back, all pass decode()'s
    magic, version and CRC checks."""
    wire = np.frombuffer(frames, _WIRE)
    if not ((wire["magic"] == np.void(MAGIC)) & (wire["version"] == PROTOCOL_VERSION)).all():
        return False
    rows = np.frombuffer(frames, np.uint8).reshape(-1, FRAME_LENGTH)
    return bool((_crcs(rows) == wire["crc"]).all())


def _joined_ms(wire: np.ndarray) -> np.ndarray:
    """The u48 timestamps of _WIRE records, as int64."""
    return wire["ms_low"] | wire["ms_high"].astype(np.int64) << _MS_LOW_BITS


def _frames(wire: np.ndarray) -> list[TelemetryFrame]:
    """The TelemetryFrame of each _WIRE record."""
    columns = wire["device"].tolist(), wire["sequence"].tolist(), _joined_ms(wire).tolist()
    return list(map(TelemetryFrame, *columns, map(tuple, wire["counts"].tolist())))


def _pack_block(device_id: int, sequence: int, stamps: np.ndarray, counts: np.ndarray) -> bytes:
    """The frame of each row, numbered from ``sequence``, back to back: the ms
    ``stamps`` (int64) and (n, 5) ``counts`` filled into one _WIRE record
    array, whose CRCs are computed at once. The fields must fit, as
    _frame_fields and TelemetryFrame check them: nothing here wraps or raises."""
    wire = np.empty(len(stamps), _WIRE)
    wire["magic"] = MAGIC
    wire["version"] = PROTOCOL_VERSION
    wire["device"] = device_id
    wire["sequence"] = sequence + np.arange(len(stamps))
    wire["ms_low"] = stamps & ((1 << _MS_LOW_BITS) - 1)  # the one split of the u48 timestamp
    wire["ms_high"] = stamps >> _MS_LOW_BITS
    wire["counts"] = counts
    wire["crc"] = _crcs(wire.view(np.uint8).reshape(-1, FRAME_LENGTH))
    return wire.tobytes()


def encode(frame: TelemetryFrame) -> bytes:
    """The 26 wire bytes of ``frame``: _pack_block of its one row."""
    return _pack_block(frame.device_id, frame.sequence, np.array([frame.timestamp_ms]), np.array([frame.counts]))


def decode(data: bytes, offset: int = 0) -> TelemetryFrame:
    """Decode the frame ``offset`` bytes into ``data`` as a _WIRE record; validates
    magic, version, CRC. A negative ``offset`` is a ValueError, never a count
    from the end; past the end, Truncated reports 0 bytes left."""
    if offset < 0:
        raise ValueError(f"offset must be 0 or more, got {offset}")
    if len(data) - offset < FRAME_LENGTH:
        raise Truncated(f"need {FRAME_LENGTH} bytes, have {max(len(data) - offset, 0)}", offset)
    wire = np.frombuffer(data, _WIRE, 1, offset)
    [(magic, version, *_fields, crc_wire)] = wire.tolist()
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}", offset)
    if version != PROTOCOL_VERSION:
        raise BadVersion(f"unsupported version {version}", offset + _VERSION_AT)
    crc_calc = crc16_ccitt_false(data[offset : offset + CRC_SPAN])
    if crc_wire != crc_calc:
        raise BadCrc(f"crc mismatch: wire {crc_wire:#06x} != {crc_calc:#06x}", offset)
    return _frames(wire)[0]


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
            elif buffer[pos + _VERSION_AT] != PROTOCOL_VERSION:
                pos += 1
                self.bad_version += 1
            elif crc16_ccitt_false(buffer[pos : pos + CRC_SPAN]) != (
                buffer[pos + CRC_SPAN] | buffer[pos + CRC_SPAN + 1] << 8  # the wire CRC, the frame's last two bytes
            ):
                pos += 1
                self.bad_crc += 1
            else:
                valid.append(buffer[pos : pos + FRAME_LENGTH])
                self.frames += 1
                pos += FRAME_LENGTH
        del buffer[:pos]
        return b"".join(valid)

    def feed(self, data: bytes) -> list[TelemetryFrame]:
        """scan(), as TelemetryFrames read off its bytes as _WIRE records."""
        return _frames(np.frombuffer(self.scan(data), _WIRE))


# RFC 3339 date-time: date, "T", time with an optional fraction, then "Z" or an offset
_RFC3339 = re.compile(r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)(?:\.\d+)?(?:Z|[+-](\d\d):(\d\d))", re.ASCII)


def _is_rfc3339(text) -> bool:
    """Whether ``text`` is an RFC 3339 date-time whose every field is in its range."""
    match = _RFC3339.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        return False
    *stamp, offset_h, offset_m = (int(part or 0) for part in match.groups())
    try:
        datetime(*stamp)  # month 13, day 31 of April, hour 24, ...
    except ValueError:
        return False
    return offset_h <= 23 and offset_m <= 59


@dataclass(frozen=True, slots=True)
class SessionHeader:
    """Session metadata; written to files, never transmitted on the wire."""

    device_id: int
    epoch: str  # RFC 3339 date-time (Z or a UTC offset) of sample time zero
    profile_name: str
    sample_rate_hz: float
    divider: DividerConfig = DividerConfig()

    def __post_init__(self) -> None:
        if not (type(self.device_id) is int and 0 <= self.device_id <= _TOPS["device_id"]):
            raise ValueError(f"device_id must be an integer in 0-{_TOPS['device_id']}, got {self.device_id!r}")
        if not isinstance(self.profile_name, str):
            raise ValueError(f"profile_name must be a string, got {self.profile_name!r}")
        rate = self.sample_rate_hz
        if not (isinstance(rate, (int, float)) and not isinstance(rate, bool) and math.isfinite(rate) and rate >= 0):
            raise ValueError(f"sample_rate_hz must be a finite number >= 0, got {rate!r}")
        if not _is_rfc3339(self.epoch):
            raise ValueError(f"epoch must be an RFC 3339 timestamp, got {self.epoch!r}")


def frames_from_samples(
    samples: Iterable[PressureSample],
    profile: CalibrationProfile,
    divider: DividerConfig = DividerConfig(),
    device_id: int = 1,
    start_sequence: int = 0,
) -> Iterator[TelemetryFrame]:
    """Pure sample -> frame conversion; sequence increments by one per sample.

    Reads ahead up to 256 samples, which it converts and checks as one block,
    as Emitter.run does: a sample no frame can carry raises ValueError after
    the frames before it.
    """
    for times, counts in _code_blocks(samples, profile, divider):
        _times, stamps, counts, error = _frame_fields(device_id, start_sequence, times, counts)
        for row in zip(count(start_sequence), stamps.tolist(), map(tuple, counts.tolist())):
            yield TelemetryFrame(device_id, *row)
        if error is not None:
            raise error
        start_sequence += len(stamps)


def _code_blocks(
    samples: Iterable[PressureSample], profile: CalibrationProfile, divider: DividerConfig
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Timestamps and (n, 5) codes of each block of up to 256 samples, each
    block converted with one counts_from_pascals call."""
    samples = iter(samples)
    while block := list(islice(samples, _BLOCK_ROWS)):
        times, pascals = samples_to_columns(block)
        yield times, counts_from_pascals(pascals, profile, divider)


def _frame_fields(device_id: int, sequence: int, times, counts) -> tuple[np.ndarray, ...]:
    """Every frame field of the rows numbered from ``sequence``, checked once
    on the arrays: the rows' times in seconds and in ms (int64) and their
    codes, up to the first row that no frame can carry, and that row's
    ValueError, or None. A time in ms is rounded as round() rounds, half to
    even; NaN and infinity fit no frame."""
    times, counts = np.asarray(times, dtype=float), np.asarray(counts)
    n, width = len(times), len(CHANNEL_ORDER)
    if times.ndim != 1 or counts.shape != (n, width) or counts.dtype.kind not in "iu":
        shapes = f"{times.shape}, {counts.shape} {counts.dtype}"
        raise ValueError(f"expected n times and (n, {width}) integer counts, got {shapes}")
    ms = times * 1000.0
    stamps = np.rint(ms)
    # NaN fails both comparisons
    fits = (stamps >= 0) & (stamps <= float(_TOPS["timestamp_ms"]))
    fits &= ((counts >= 0) & (counts <= _TOPS["counts"])).all(axis=1)
    fit = min(
        n if fits.all() else int(fits.argmin()),
        n if 0 <= device_id <= _TOPS["device_id"] else 0,
        min(n, max(0, _TOPS["sequence"] + 1 - sequence)) if sequence >= 0 else 0,
    )
    error = None
    if fit < n:
        error = ValueError(
            f"no frame can carry row {fit}: device_id {device_id!r}, sequence {sequence + fit},"
            f" timestamp_ms {ms[fit].item()!r}, counts {counts[fit].tolist()}"
        )
    return times[:fit], stamps[:fit].astype(np.int64), counts[:fit], error


class Emitter:
    """Device-side sender: one frame per row of ADC codes over a
    (re)connecting transport.

    ``send_counts(times, counts)`` is the one framing path: it frames up to
    256 rows at a time with ``_pack_block``. Unpaced, it sends each block's
    bytes with one sendall(). Paced, it sends each frame on its own when it
    falls due: at the time.monotonic() of the first paced row, in this call
    or an earlier one, plus the row's timestamp less that row's, so sleep
    overshoot and send cost never add up. ``run(samples)`` hands it samples
    converted to codes 256 at a time, paced or not: pacing decides only when
    each frame leaves.

    A reconnect's backoff does not move the paced schedule: the rows that
    fell due while it waited go out at once, in a burst, and the rows after
    them on time.

    On transport failure the emitter reconnects with a fixed exponential
    backoff, from 100 ms doubling up to 5 s between attempts, each wait passed
    to ``sleep``, and resends the whole failed block, so sequence numbering
    continues across reconnects. ``retries`` counts every failed attempt, a
    refused connect or a failed sendall. A connect that cannot resolve its
    host (socket.gaierror, a temporary resolver failure included) is not
    retried: it raises from the call. Delivery is at-least-once: the part of a
    block that got through before the failure arrives again on the next
    connection, so a reconnect can repeat up to 256 frames, and any frames
    the transport had buffered but never delivered show up at the receiver as
    sequence gaps.

    A row no frame can carry (a device id, sequence or count out of its
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
        self._anchor = None  # paced: the monotonic time and the timestamp of the first row sent
        self.sent = 0
        self.retries = 0

    def _ensure_connected(self) -> None:
        backoff = _BACKOFF_BASE_S
        while self._conn is None:
            try:
                self._conn = self._connect()
            except socket.gaierror:  # a host that does not resolve, or a resolver that is down: no wait mends it
                raise
            except OSError:
                self.retries += 1
                self._sleep(backoff)
                backoff = min(backoff * 2.0, _BACKOFF_CAP_S)

    def send_counts(self, times, counts) -> int:
        """Send one frame per row of ``counts``, (n, 5) ADC codes in canonical
        channel order stamped with ``times`` in seconds, numbered on from
        earlier calls; returns the frames delivered so far.

        A paced wait is at most half threading.TIMEOUT_MAX (time.sleep fails
        once its deadline passes TIMEOUT_MAX), and none is made toward a row
        that no frame can carry. It connects before the first block, so that
        even a call with no rows opens a connection, which a receiver waiting
        for one to close can see end.
        """
        times, stamps, counts, error = _frame_fields(self._device_id, self.sent, times, counts)
        self._ensure_connected()
        for start in range(0, len(stamps), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            payload = _pack_block(self._device_id, self.sent, stamps[block], counts[block])
            if not self._pace:
                self._send(payload)
                continue
            for offset, t in zip(range(0, len(payload), FRAME_LENGTH), times[block].tolist()):
                now = time.monotonic()
                if self._anchor is None:
                    self._anchor = (now, t)
                anchor, first = self._anchor
                wait = anchor + (t - first) - now
                if wait > 0:
                    self._sleep(min(wait, threading.TIMEOUT_MAX / 2))
                self._send(payload[offset : offset + FRAME_LENGTH])
        if error is not None:
            raise error
        return self.sent

    def run(self, samples: Iterable[PressureSample]) -> int:
        """send_counts of every sample, converted to codes up to 256 at a
        time, paced or not; returns the frames delivered so far.
        It connects first, so that the receiver accepts the connection while
        the first block is converted and framed."""
        self._ensure_connected()
        for times, counts in _code_blocks(samples, self._profile, self._divider):
            self.send_counts(times, counts)
        return self.sent

    def _send(self, payload: bytes) -> None:
        """Send ``payload``, whole frames, with one sendall, resent whole on a
        new connection until it goes through."""
        while True:
            self._ensure_connected()
            try:
                self._conn.sendall(payload)
                break
            except OSError:
                self.close()
                self.retries += 1
        self.sent += len(payload) // FRAME_LENGTH

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None


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
    Each received chunk is scanned once (``Deframer.scan``, no TelemetryFrame)
    and decoded into a list of samples at once, and ``_ingest`` moves the
    ledger once per run of frames from one device, numbered and timed on.
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
        self._objects = _decode_tables(profile, divider)[1]
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
        # SO_REUSEADDR on POSIX; an address it cannot bind leaves no socket open
        family = socket.AF_INET6 if ":" in self._host else socket.AF_INET  # no host name holds a colon
        server = socket.create_server((self._host, self._port), family=family)
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
            self._ingest(expected, deframer.scan(chunk))
        except Exception:
            traceback.print_exc()  # a failing sink ends its own connection, not the loop
            self._close(selector, key)

    def _ingest(self, expected: dict[int, int], frames: bytes) -> None:
        """The sequence and timestamp ledger and the decode of a chunk's frames,
        the one place the ledger's rules are written. It moves once per run, in
        arrival order: frames from one device, each numbered one above and
        stamped after the frame before it, so a run's duplicates (below the
        next sequence), then its stale frames (not after the device's last kept
        ms), come first. A frame with a code outside the table is a run of its
        own; the table index clips its codes, and its sample never reaches the
        sink."""
        if not frames:
            return
        wire = np.frombuffer(frames, _WIRE)
        devices, codes = wire["device"], wire["counts"]
        sequences = wire["sequence"].astype(np.int64)
        ms = _joined_ms(wire)
        # CRC-valid but out of the table: never fatal. A column at a time is
        # several times faster than max(axis=1) over the records' five codes
        outside = reduce(np.maximum, codes.T) >= len(self._objects)
        breaks = (devices[1:] != devices[:-1]) | (sequences[1:] - sequences[:-1] != 1) | (ms[1:] <= ms[:-1])
        ends = (np.flatnonzero(breaks | outside[1:] | outside[:-1]) + 1).tolist()
        starts = [0, *ends]
        times = (ms / 1000.0).tolist()  # rise strictly with ms, so bisect finds a run's stale frames on them
        samples = _decoded_samples(self._objects, times, codes)
        runs = zip(starts, [*ends, len(wire)], *(column[starts].tolist() for column in (devices, sequences, outside)))
        last_ms = self._last_ms
        for start, stop, device, first, lone_outside in runs:
            stats = self.stats[device]
            want = expected.get(device, first)
            fresh = start + min(max(want - first, 0), stop - start)  # below the next sequence: at-least-once resends
            stats.duplicates += fresh - start
            if fresh == stop:
                continue
            stats.gaps += first + fresh - start - want
            expected[device] = first + stop - start
            kept = bisect_right(times, last_ms.get(device, -1) / 1000.0, fresh, stop)  # the sink needs rising times
            stats.stale_timestamps += kept - fresh
            if kept == stop:
                continue
            last_ms[device] = int(ms[stop - 1])
            if lone_outside:
                stats.decode_errors += 1
                continue
            try:  # sunk counts a frame before its sink call, so a raising sink's frame counts
                for sunk, sample in enumerate(samples[kept:stop], 1):
                    self._sink(device, sample)
            finally:  # kept < stop, so sunk is set
                stats.frames += sunk
                if kept + sunk < stop:  # the sink raised: the ledger takes in the frames up to that one
                    expected[device] = first + kept + sunk - start
                    last_ms[device] = int(ms[kept + sunk - 1])

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
