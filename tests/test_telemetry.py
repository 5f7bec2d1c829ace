import dataclasses
import errno
import random
import re
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from helpers import ReferenceDeframer, ReferenceReceiver, receive, reference_decode

from solesense import acquisition, telemetry
from solesense.acquisition import DividerConfig, counts_to_sample
from solesense.analysis import Analyzer
from solesense.sensor import builtin_profile
from solesense.synth import GaitParams, synthesize
from solesense.telemetry import (
    CRC_SPAN,
    FRAME_LENGTH,
    MAGIC,
    TIMESTAMP_MAX_MS,
    BadCrc,
    BadMagic,
    BadVersion,
    Collector,
    Deframer,
    Emitter,
    FrameError,
    TelemetryFrame,
    Truncated,
    crc16_ccitt_false,
    decode,
    encode,
    frames_from_samples,
)
from solesense.units import CHANNEL_ORDER, Pressure, PressureSample

PROFILE = builtin_profile("measured")
DIVIDER = DividerConfig()


def _count_calls(monkeypatch, name):
    """Count calls of acquisition.<name>, also where telemetry imported it."""
    calls = []
    original = getattr(acquisition, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (acquisition, telemetry):
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def _count_frames_built(monkeypatch):
    built = []
    post_init = TelemetryFrame.__post_init__
    monkeypatch.setattr(TelemetryFrame, "__post_init__", lambda self: built.append(1) or post_init(self))
    return built


def _session(n):
    return list(synthesize(GaitParams(body_mass_kg=70, cycles=-(-n // 100), sample_rate_hz=100)))[:n]


def _random_frame(rng):
    return TelemetryFrame(
        device_id=rng.randrange(256),
        sequence=rng.randrange(1 << 32),
        timestamp_ms=rng.randrange(1 << 48),
        counts=tuple(rng.randrange(1 << 16) for _ in range(5)),
    )


class TestCodec:
    def test_crc_check_vector(self):
        assert crc16_ccitt_false(b"123456789") == 0x29B1

    def test_crc_matches_bitwise_definition(self):
        def bitwise(data):  # poly 0x1021, init 0xFFFF, no reflection, no xor-out
            crc = 0xFFFF
            for byte in data:
                crc ^= byte << 8
                for _ in range(8):
                    crc = ((crc << 1) ^ 0x1021 if crc & 0x8000 else crc << 1) & 0xFFFF
            return crc

        rng = random.Random(16)
        for _ in range(500):
            span = bytes(rng.randrange(256) for _ in range(CRC_SPAN))
            assert crc16_ccitt_false(span) == bitwise(span)

    def test_wire_layout_equals_the_module_docstring_table(self):
        # (offset, size) of each row of the table, in field order
        table = re.findall(r"^ {4}(\d+) +(\d+) ", telemetry.__doc__, re.M)
        rows = [(int(offset), int(size)) for offset, size in table]
        documented = dict(zip(["magic", "version", "device", "sequence", "timestamp", "counts", "crc"], rows, strict=True))
        wire = telemetry._WIRE
        spans = {name: (wire.fields[name][1], wire[name].itemsize) for name in wire.names}
        (low, low_size), (_high, high_size) = spans.pop("ms_low"), spans.pop("ms_high")
        assert {**spans, "timestamp": (low, low_size + high_size)} == documented
        crc_offset, crc_size = documented["crc"]
        assert FRAME_LENGTH == crc_offset + crc_size == 26
        assert CRC_SPAN == crc_offset == 24
        bits = {name: 8 * size for name, (_offset, size) in documented.items()}
        assert TIMESTAMP_MAX_MS == 2 ** bits["timestamp"] - 1
        tops = {"device_id": 2 ** bits["device"] - 1, "sequence": 2 ** bits["sequence"] - 1,
                "timestamp_ms": TIMESTAMP_MAX_MS, "counts": 2 ** (bits["counts"] // 5) - 1}  # five counts
        assert telemetry._TOPS == tops

    def test_frame_layout(self):
        frame = TelemetryFrame(1, 0, 0, (0, 1, 2, 3, 4))
        wire = encode(frame)
        assert len(wire) == FRAME_LENGTH == 26
        assert wire[:2] == MAGIC == b"\x53\x4c"
        assert wire[2] == 1  # version

    def test_roundtrip_random_frames(self):
        rng = random.Random(2024)
        for _ in range(1000):
            frame = _random_frame(rng)
            assert decode(encode(frame)) == frame

    def test_every_single_bit_flip_detected(self):
        frame = TelemetryFrame(3, 1234, 56789, (100, 200, 300, 400, 4095))
        wire = bytearray(encode(frame))
        for bit in range(CRC_SPAN * 8):  # 192 payload bits
            corrupted = bytearray(wire)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises((BadCrc, BadMagic, BadVersion)):
                decode(bytes(corrupted))

    def test_error_offsets(self):
        frame_bytes = encode(TelemetryFrame(1, 1, 1, (1, 1, 1, 1, 1)))
        with pytest.raises(Truncated) as err:
            decode(frame_bytes[:10])
        assert err.value.offset == 0
        with pytest.raises(BadMagic) as err:
            decode(b"XX" + frame_bytes[2:])
        assert err.value.offset == 0
        bad_version = bytearray(frame_bytes)
        bad_version[2] = 9
        with pytest.raises(BadVersion) as err:
            decode(bytes(bad_version))
        assert err.value.offset == 2
        bad_crc = bytearray(frame_bytes)
        bad_crc[20] ^= 0xFF
        with pytest.raises(BadCrc):
            decode(bytes(bad_crc))

    @pytest.mark.parametrize(
        "frame, wire",
        [
            (
                TelemetryFrame(7, 424242, 987654321, (0, 1000, 2000, 3000, 4095)),
                "534c010732790600b168de3a00000000e803d007b80bff0f5961",
            ),
            (
                TelemetryFrame(255, 0xFFFFFFFF, TIMESTAMP_MAX_MS, (65535,) * 5),
                "534c01ffffffffffffffffffffffffffffffffffffffffffcf0c",
            ),
            (
                TelemetryFrame(1, 1, (1 << 32) + 5, (1, 2, 3, 4, 5)),
                "534c010101000000050000000100010002000300040005004607",
            ),
        ],
        ids=["typical", "every field at its top", "timestamp past 32 bits"],
    )
    def test_known_answer_frames(self, frame, wire):
        assert encode(frame).hex() == wire
        assert decode(bytes.fromhex(wire)) == frame

    @pytest.mark.parametrize(
        "fields, name",
        [
            ((1.0, 0, 0, (0,) * 5), "device_id"),
            ((1, 0.0, 0, (0,) * 5), "sequence"),
            ((1, 0, np.float64(3), (0,) * 5), "timestamp_ms"),
            ((1, 0, 0, (1.5, 0, 0, 0, 0)), "counts"),
            ((1, 0, 0, (0, 0, 0, 0, np.float32(1))), "counts"),
        ],
        ids=["device_id", "sequence", "timestamp_ms", "count", "numpy float count"],
    )
    def test_a_field_that_is_not_an_integer_is_refused(self, fields, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            TelemetryFrame(*fields)

    def test_numpy_ints_and_bools_are_integers(self):
        frame = TelemetryFrame(np.uint8(7), np.uint32(0xFFFFFFFF), np.int64(1 << 40), (True, *np.uint16([1, 2, 3, 4])))
        assert decode(encode(frame)) == TelemetryFrame(7, 0xFFFFFFFF, 1 << 40, (1, 1, 2, 3, 4))

    def test_field_validation(self):
        with pytest.raises(ValueError):
            TelemetryFrame(256, 0, 0, (0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            TelemetryFrame(0, 1 << 32, 0, (0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            TelemetryFrame(0, 0, 1 << 48, (0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            TelemetryFrame(0, 0, 0, (0, 0, 0, 0))


def _corpus(seed) -> bytes:
    """200 clean frames, then 300 each clean, behind junk, with a flipped bit,
    with a bad version or cut short, back to back."""
    rng = random.Random(seed)
    wire = bytearray(b"".join(encode(_random_frame(rng)) for _ in range(200)))
    for _ in range(300):
        encoded = bytearray(encode(_random_frame(rng)))
        kind = rng.choice(["clean", "junk", "flip", "version", "cut"])
        if kind == "junk":
            wire += bytes(rng.choice(b"SL\x01\x00\xff") for _ in range(rng.randint(1, 30)))
        elif kind == "flip":
            encoded[rng.randrange(FRAME_LENGTH)] ^= 1 << rng.randrange(8)
        elif kind == "version":
            encoded[2] = rng.choice([0, 2, 255])
        elif kind == "cut":
            del encoded[rng.randrange(1, FRAME_LENGTH) :]
        wire += encoded
    return bytes(wire)


class TestDeframer:
    @pytest.mark.parametrize("chunk", [1, 7, FRAME_LENGTH, 4096])
    def test_feed_equals_a_struct_reading(self, chunk):
        corpus = _corpus(chunk)
        deframer, reference = Deframer(), ReferenceDeframer()
        got, want = [], []
        for i in range(0, len(corpus), chunk):
            got += deframer.feed(corpus[i : i + chunk])
            want += [TelemetryFrame(*fields) for fields in reference.scan(corpus[i : i + chunk])]
        assert got == want and len(want) > 200
        counters = ("frames", "bad_crc", "bad_version", "skipped_bytes")
        assert [getattr(deframer, c) for c in counters] == [getattr(reference, c) for c in counters]

    def test_decode_equals_a_struct_reading_at_every_offset(self):
        def decoded(data, offset):
            try:
                return decode(data[offset : offset + FRAME_LENGTH])
            except FrameError as error:
                return type(error)

        corpus = _corpus(9)
        for offset in range(len(corpus) + FRAME_LENGTH):
            want = reference_decode(corpus, offset)
            assert decoded(corpus, offset) == (TelemetryFrame(*want) if isinstance(want, tuple) else want), offset

    def test_clean_stream(self):
        rng = random.Random(1)
        frames = [_random_frame(rng) for _ in range(20)]
        wire = b"".join(encode(f) for f in frames)
        deframer = Deframer()
        assert deframer.feed(wire) == frames
        assert deframer.error_count == 0

    def test_resync_with_junk_between_frames(self):
        rng = random.Random(2)
        frames = [_random_frame(rng) for _ in range(30)]
        wire = bytearray()
        for frame in frames:
            wire += bytes(rng.randrange(256) for _ in range(rng.randint(0, 8)))
            wire += encode(frame)
        deframer = Deframer()
        got = deframer.feed(bytes(wire))
        assert got == frames

    def test_corrupted_frames_counted_and_skipped(self):
        rng = random.Random(3)
        frames = [_random_frame(rng) for _ in range(10)]
        chunks = []
        for i, frame in enumerate(frames):
            wire = bytearray(encode(frame))
            if i in (2, 5, 7):
                wire[15] ^= 0x01  # flip one payload bit
            chunks.append(bytes(wire))
        deframer = Deframer()
        got = deframer.feed(b"".join(chunks))
        assert len(got) == 7
        assert deframer.error_count == 3

    def test_counters_match_a_bytewise_scan(self):
        # reference: try every byte offset in turn, as a plain resync does
        def bytewise(wire):
            frames, skipped, bad_version, bad_crc, pos = [], 0, 0, 0, 0
            while True:
                try:
                    frames.append(decode(wire[pos : pos + FRAME_LENGTH]))
                    pos += FRAME_LENGTH
                except Truncated:
                    return frames, skipped, bad_version, bad_crc
                except BadMagic:
                    skipped, pos = skipped + 1, pos + 1
                except BadVersion:
                    bad_version, pos = bad_version + 1, pos + 1
                except BadCrc:
                    bad_crc, pos = bad_crc + 1, pos + 1

        rng = random.Random(5)
        for _ in range(20):
            wire = bytearray()
            for _ in range(40):
                encoded = bytearray(encode(_random_frame(rng)))
                kind = rng.randrange(6)
                if kind == 1:
                    encoded[2] = 2  # bad version
                elif kind == 2:
                    encoded[rng.randrange(3, FRAME_LENGTH)] ^= 0x10  # bad CRC
                elif kind == 3:
                    encoded = encoded[: rng.randrange(1, FRAME_LENGTH)]  # cut short
                wire += encoded
                wire += bytes(rng.choice(b"SL\x00") for _ in range(rng.randrange(4)))
                wire += bytes(rng.randrange(256) for _ in range(rng.randrange(12)))
            frames, skipped, bad_version, bad_crc = bytewise(bytes(wire))
            deframer = Deframer()
            got, start = [], 0
            while start < len(wire):
                stop = start + rng.randrange(1, 3 * FRAME_LENGTH)
                got.extend(deframer.feed(bytes(wire[start:stop])))
                start = stop
            assert got == frames
            counters = (deframer.skipped_bytes, deframer.bad_version, deframer.bad_crc)
            assert counters == (skipped, bad_version, bad_crc)

    def test_incremental_feeding(self):
        rng = random.Random(4)
        frames = [_random_frame(rng) for _ in range(15)]
        wire = b"".join(encode(f) for f in frames)
        deframer = Deframer()
        got = []
        for i in range(0, len(wire), 7):  # deliberately frame-misaligned chunks
            got.extend(deframer.feed(wire[i : i + 7]))
        assert got == frames

    @pytest.mark.parametrize("chunk", [1, 7, FRAME_LENGTH, 4096])
    def test_scan_returns_the_raw_fields(self, chunk):
        rng = random.Random(chunk)
        frames = [_random_frame(rng) for _ in range(200)]
        wire = bytearray()
        for i, frame in enumerate(frames):
            encoded = bytearray(encode(frame))
            if i % 9 == 4:
                encoded[rng.randrange(3, FRAME_LENGTH)] ^= 0x40  # bad CRC
            wire += encoded + b"S"
        kept = [f for i, f in enumerate(frames) if i % 9 != 4]
        deframer = Deframer()
        got = bytearray()
        for i in range(0, len(wire), chunk):
            got += deframer.scan(bytes(wire[i : i + chunk]))  # the valid frames, packed back to back
        assert bytes(got) == b"".join(encode(f) for f in kept)
        assert (deframer.frames, deframer.bad_crc, deframer.bad_version) == (len(kept), len(frames) - len(kept), 0)


class _MemoryTransport:
    def __init__(self):
        self.buffer = bytearray()
        self.sends = 0
        self.sent_at = []  # time.monotonic() at each sendall
        self.closed = False

    def sendall(self, data):
        self.buffer.extend(data)
        self.sends += 1
        self.sent_at.append(time.monotonic())

    def close(self):
        self.closed = True


class _Clock:
    """The emitter's monotonic clock, driven by the test: sleep() records the
    wait asked for and advances the clock by it plus ``overshoot``."""

    def __init__(self, monkeypatch, overshoot=0.0):
        self.now, self.overshoot, self.sleeps = 1000.0, overshoot, []
        monkeypatch.setattr(telemetry.time, "monotonic", lambda: self.now)

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds + self.overshoot


class TestEmitter:
    def _samples(self, n):
        params = GaitParams(body_mass_kg=70, cycles=1, sample_rate_hz=100)
        return list(synthesize(params))[:n]

    def test_sequences_count_up_from_zero(self):
        transport = _MemoryTransport()
        emitter = Emitter(lambda: transport, PROFILE, DIVIDER)
        sent = emitter.run(self._samples(100))
        assert sent == 100
        frames = Deframer().feed(bytes(transport.buffer))
        assert [f.sequence for f in frames] == list(range(100))

    def test_sequence_continues_across_runs(self):
        transport = _MemoryTransport()
        emitter = Emitter(lambda: transport, PROFILE, DIVIDER)
        samples = self._samples(100)
        assert emitter.run(samples[:40]) == 40
        assert emitter.run(samples[40:]) == 100
        frames = Deframer().feed(bytes(transport.buffer))
        assert [f.sequence for f in frames] == list(range(100))

    def test_sequence_continues_after_reconnect(self):
        transports = []

        class _FlakyOnce(_MemoryTransport):
            def sendall(self, data):
                if len(transports) == 1 and len(self.buffer) >= 50 * FRAME_LENGTH:
                    raise ConnectionResetError("link dropped")
                super().sendall(data)

        def connect():
            transports.append(_FlakyOnce())
            return transports[-1]

        sleeps = []
        emitter = Emitter(connect, PROFILE, DIVIDER, sleep=sleeps.append)
        samples = self._samples(100)
        # two runs, so frame 50 starts a block: a block is sent whole or not at all
        assert emitter.run(samples[:50]) == 50
        assert emitter.run(samples[50:]) == 100
        frames = []
        for transport in transports:
            frames.extend(Deframer().feed(bytes(transport.buffer)))
        # the block from frame 50 failed on the first link and was retried on
        # the second: numbering continues with no gap
        assert [f.sequence for f in frames] == list(range(100))
        assert len(transports) == 2 and len(transports[0].buffer) == 50 * FRAME_LENGTH
        assert emitter.retries == 1

    @pytest.mark.parametrize("code", [socket.EAI_NONAME, socket.EAI_AGAIN], ids=["no such name", "resolver down"])
    def test_a_host_that_does_not_resolve_raises_without_a_retry(self, code):
        def connect():
            raise socket.gaierror(code, "name resolution failed")

        def sleep(seconds):
            raise AssertionError("the emitter waited to retry a host that does not resolve")

        emitter = Emitter(connect, PROFILE, DIVIDER, sleep=sleep)
        with pytest.raises(socket.gaierror) as caught:
            emitter.send_counts(np.array([0.0]), np.zeros((1, 5), dtype=np.int64))
        assert caught.value.errno == code
        assert emitter.retries == 0 and emitter.sent == 0

    def test_connect_backoff_doubles_to_cap(self):
        attempts = []
        transport = _MemoryTransport()

        def connect():
            attempts.append(None)
            if len(attempts) <= 8:
                raise ConnectionRefusedError
            return transport

        sleeps = []
        emitter = Emitter(connect, PROFILE, DIVIDER, sleep=sleeps.append)
        emitter.run(self._samples(1))
        assert sleeps == [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5.0, 5.0]
        assert emitter.retries == 8  # a refused connect is a failed attempt too

    def test_pace_sleeps_by_timestamp_deltas(self, monkeypatch):
        clock = _Clock(monkeypatch)
        emitter = Emitter(_MemoryTransport, PROFILE, DIVIDER, pace=True, sleep=clock.sleep)
        emitter.run(self._samples(5))
        assert clock.sleeps == pytest.approx([0.01, 0.01, 0.01, 0.01])

    def test_wire_is_frames_from_samples_encoded(self):
        samples = self._samples(50)
        transport = _MemoryTransport()
        Emitter(lambda: transport, PROFILE, DIVIDER, device_id=4).run(samples)
        frames = frames_from_samples(samples, PROFILE, DIVIDER, device_id=4)
        assert bytes(transport.buffer) == b"".join(encode(f) for f in frames)

    @pytest.mark.parametrize(
        "case, framed",
        [
            ("device id 256", 0),
            ("timestamp -0.002 s", 300),
            ("timestamp 2.9e11 s", 300),
            ("timestamp nan s", 300),
            ("timestamp inf s", 300),
            ("sequence past u32", 300),
            ("17-bit codes", 0),
        ],
    )
    def test_unframeable_samples_raise_value_error(self, case, framed):
        # each is out of a frame field's range: the frames before it still go
        # out, and it raises ValueError, never struct.error or OverflowError,
        # whether it sits mid-block (unpaced) or in a block of its own (paced)
        samples, device_id, divider, start = _session(400), 1, DIVIDER, 0
        if case == "device id 256":
            device_id = 256
        elif case == "17-bit codes":
            divider = DividerConfig(adc_bits=17)
        elif case == "sequence past u32":
            start = (1 << 32) - 300
        else:
            bad = float(case.split()[1])
            samples[300] = PressureSample(bad, samples[300].channels)
        got = []
        with pytest.raises(ValueError):
            for frame in frames_from_samples(samples, PROFILE, divider, device_id=device_id, start_sequence=start):
                got.append(frame)
        assert len(got) == framed
        for pace in (False, True):
            transport, sleeps = _MemoryTransport(), []
            emitter = Emitter(lambda: transport, PROFILE, divider, device_id=device_id, pace=pace, sleep=sleeps.append)
            emitter.sent = start
            with pytest.raises(ValueError):
                emitter.run(samples)
            assert emitter.sent - start == framed
            assert bytes(transport.buffer) == b"".join(encode(f) for f in got)
            # a paced emitter never sleeps towards a timestamp no frame can carry
            assert all(0 < s <= TIMESTAMP_MAX_MS / 1000.0 for s in sleeps)

    def test_link_failure_past_the_first_block(self):
        transports = []

        class _FlakyOnce(_MemoryTransport):
            def sendall(self, data):
                if len(transports) == 1 and len(self.buffer) >= 256 * FRAME_LENGTH:
                    raise ConnectionResetError("link dropped")
                super().sendall(data)

        def connect():
            transports.append(_FlakyOnce())
            return transports[-1]

        emitter = Emitter(connect, PROFILE, DIVIDER, sleep=lambda s: None)
        samples = _session(400)
        assert emitter.run(samples) == 400
        # the second block failed on the first link and went whole on the second
        assert len(transports) == 2 and len(transports[0].buffer) == 256 * FRAME_LENGTH
        wire = b"".join(bytes(t.buffer) for t in transports)
        assert wire == b"".join(encode(f) for f in frames_from_samples(samples, PROFILE, DIVIDER))
        assert emitter.retries == 1

    def test_paced_run_converts_whole_blocks_and_sends_the_unpaced_bytes(self, monkeypatch):
        # pacing decides only when each frame leaves
        calls = _count_calls(monkeypatch, "counts_from_pascals")
        wires = []
        for pace in (True, False):
            transport = _MemoryTransport()
            emitter = Emitter(lambda: transport, PROFILE, DIVIDER, pace=pace, sleep=lambda s: None)
            assert emitter.run(_session(300)) == 300
            wires.append(bytes(transport.buffer))
            assert len(calls) == 2
            calls.clear()
        assert wires[0] == wires[1]

    def test_paced_wait_past_the_sleep_limit_sends_both_frames(self):
        # the real time.sleep refuses such a wait at once, without sleeping
        with pytest.raises(OverflowError):
            time.sleep(2 * threading.TIMEOUT_MAX)
        waits = []

        def sleep(seconds):  # time.sleep's limits, without the wait
            if seconds > threading.TIMEOUT_MAX:
                raise OverflowError("timestamp out of range for platform time_t")
            if seconds + time.monotonic() >= threading.TIMEOUT_MAX:
                raise OSError(errno.EINVAL, "Invalid argument")
            waits.append(seconds)

        samples = [PressureSample.from_row(t, [0.0] * 5) for t in (0.0, 2e10)]
        transport = _MemoryTransport()
        assert Emitter(lambda: transport, PROFILE, DIVIDER, pace=True, sleep=sleep).run(samples) == 2
        assert [f.timestamp_ms for f in Deframer().feed(bytes(transport.buffer))] == [0, 2 * 10**13]
        assert len(waits) == 1

    @pytest.mark.skipif(
        sys.platform != "linux" or sys.version_info < (3, 11), reason="time.sleep on clock_nanosleep"
    )
    def test_real_sleep_fails_once_its_deadline_passes_the_limit(self):
        # the OSError the stub above raises: a wait of TIMEOUT_MAX itself fails at once
        code = "import threading, time; time.sleep(threading.TIMEOUT_MAX)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
        assert run.returncode == 1 and "OSError" in run.stderr

    def test_unpaced_run_builds_no_frame_and_no_per_sample_counts(self, monkeypatch):
        samples = _session(1000)
        want = b"".join(encode(f) for f in frames_from_samples(samples, PROFILE, DIVIDER))
        to_counts = _count_calls(monkeypatch, "counts_from_pascals")
        built = _count_frames_built(monkeypatch)
        transport = _MemoryTransport()
        assert Emitter(lambda: transport, PROFILE, DIVIDER).run(samples) == 1000
        # one conversion and one sendall per block of up to 256
        assert (len(to_counts), len(built), transport.sends) == (4, 0, 4)
        assert bytes(transport.buffer) == want

    def test_torn_block_send_reaches_the_sink_once(self):
        # the first link takes one block, then part of the next (100 frames
        # and part of the 101st) before it fails: the whole block is resent
        transports = []

        class _Torn(_MemoryTransport):
            def sendall(self, data):
                if len(transports) == 1 and self.sends == 1:
                    self.buffer.extend(data[: 100 * FRAME_LENGTH + 10])
                    raise ConnectionResetError("link dropped mid-block")
                super().sendall(data)

        def connect():
            transports.append(_Torn())
            return transports[-1]

        samples = _session(600)
        emitter = Emitter(connect, PROFILE, DIVIDER, sleep=lambda s: None)
        assert emitter.run(samples) == 600 and emitter.retries == 1
        sunk = []
        collector = Collector(lambda device_id, sample: sunk.append(sample), PROFILE, DIVIDER)
        for transport in transports:
            wire = bytes(transport.buffer)
            receive(collector, [wire[i : i + 6656] for i in range(0, len(wire), 6656)])
        frames = list(frames_from_samples(samples, PROFILE, DIVIDER))
        assert sunk == [counts_to_sample(f.timestamp_ms / 1000.0, f.counts, PROFILE, DIVIDER) for f in frames]
        stats = collector.stats[1]
        # sequence state is per connection: the repeats are stale timestamps
        assert (stats.frames, stats.stale_timestamps, stats.duplicates, stats.gaps) == (600, 100, 0, 0)
        assert stats.decode_errors == 0

    def test_send_counts_frames_the_codes_it_is_given(self):
        transport = _MemoryTransport()
        emitter = Emitter(lambda: transport, PROFILE, DIVIDER, device_id=3)
        emitter.run(self._samples(2))
        times, codes = np.array([0.0204, 0.0305, 0.0315]), np.arange(15).reshape(3, 5) + 4090
        assert emitter.send_counts(times, codes) == 5
        frames = Deframer().feed(bytes(transport.buffer))[2:]
        # numbered on from the run, the ms rounded half to even as round() rounds
        assert frames == [
            TelemetryFrame(3, 2, 20, (4090, 4091, 4092, 4093, 4094)),
            TelemetryFrame(3, 3, 30, (4095, 4096, 4097, 4098, 4099)),
            TelemetryFrame(3, 4, 32, (4100, 4101, 4102, 4103, 4104)),
        ]
        assert transport.sends == 2

    @pytest.mark.parametrize(
        "times, codes",
        [
            (np.zeros(3), np.zeros((3, 4), int)),
            (np.zeros(3), np.zeros((2, 5), int)),
            (np.zeros(3), np.zeros((3, 5))),
            (np.zeros((3, 1)), np.zeros((3, 5), int)),
        ],
    )
    def test_send_counts_refuses_a_block_that_is_not_n_by_5_integers(self, times, codes):
        transport = _MemoryTransport()
        emitter = Emitter(lambda: transport, PROFILE, DIVIDER)
        with pytest.raises(ValueError, match="integer counts"):
            emitter.send_counts(times, codes)
        assert emitter.sent == 0 and transport.sends == 0

    def test_paced_waits_carry_across_calls(self, monkeypatch):
        clock, transport = _Clock(monkeypatch), _MemoryTransport()
        emitter = Emitter(lambda: transport, PROFILE, DIVIDER, pace=True, sleep=clock.sleep)
        codes = np.full((2, 5), 4095)
        emitter.send_counts(np.array([0.0, 0.01]), codes)
        emitter.send_counts(np.array([0.03, 0.04]), codes)
        assert clock.sleeps == pytest.approx([0.01, 0.02, 0.01])
        assert transport.sends == 4

    def test_paced_rows_leave_on_an_absolute_schedule(self, monkeypatch):
        # every sleep overshoots by 1 ms: sleeping each row's delta from the
        # row before would let row k leave about k ms late
        clock, transport = _Clock(monkeypatch, overshoot=0.001), _MemoryTransport()
        emitter = Emitter(lambda: transport, PROFILE, DIVIDER, pace=True, sleep=clock.sleep)
        times = np.arange(300) * 0.01
        emitter.send_counts(times[:100], np.full((100, 5), 7))
        emitter.send_counts(times[100:], np.full((200, 5), 7))  # the schedule carries across calls
        late = np.array(transport.sent_at) - (transport.sent_at[0] + times)
        assert late.min() >= 0.0 and late.max() <= 0.001 + 1e-9

    def test_paced_rows_due_during_a_reconnect_leave_in_a_burst(self, monkeypatch):
        # the link drops at row 50 and two connects are refused (backoff 0.1
        # + 0.2 s): rows due meanwhile go at once, and the schedule holds
        clock, transports, refused = _Clock(monkeypatch), [], []

        class _FlakyOnce(_MemoryTransport):
            def sendall(self, data):
                if len(transports) == 1 and self.sends == 50:
                    raise ConnectionResetError("link dropped")
                super().sendall(data)

        def connect():
            if len(transports) == 1 and len(refused) < 2:
                refused.append(1)
                raise ConnectionRefusedError
            transports.append(_FlakyOnce())
            return transports[-1]

        emitter = Emitter(connect, PROFILE, DIVIDER, pace=True, sleep=clock.sleep)
        times = np.arange(100) * 0.01
        assert emitter.send_counts(times, np.full((100, 5), 7)) == 100
        sent_at = np.array(transports[0].sent_at + transports[1].sent_at)
        late = sent_at - (sent_at[0] + times)
        assert clock.sleeps[50:52] == pytest.approx([0.1, 0.2])  # the backoff, then no wait until row 81
        assert late[50] == pytest.approx(0.3) and late[80] == pytest.approx(0.0, abs=1e-9)
        assert (np.diff(sent_at[50:80]) == 0).all() and np.abs(late[80:]).max() < 1e-9

    def test_frames_from_samples_pure(self):
        samples = self._samples(10)
        frames = list(frames_from_samples(samples, PROFILE, DIVIDER, device_id=9))
        assert [f.sequence for f in frames] == list(range(10))
        assert all(f.device_id == 9 for f in frames)
        assert frames[3].timestamp_ms == round(samples[3].timestamp * 1000)


def _frames(device_id, sequence, stamps, counts):
    """The TelemetryFrame of each row, numbered from ``sequence``."""
    return [TelemetryFrame(device_id, sequence + k, s, tuple(c)) for k, (s, c) in enumerate(zip(stamps, counts))]


def _decoded(wire):
    """decode() of each frame of ``wire``, whole frames back to back: the
    scalar parser, with its own CRC, reads what the block framer packed."""
    assert len(wire) % FRAME_LENGTH == 0
    return [decode(wire[offset : offset + FRAME_LENGTH]) for offset in range(0, len(wire), FRAME_LENGTH)]


class TestBlockFramer:
    @pytest.mark.parametrize("n", [1, 2, 255, 256])
    def test_decodes_row_by_row(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            device_id, sequence = int(rng.integers(256)), int(rng.integers((1 << 32) - n + 1))
            stamps, counts = rng.integers(1 << 48, size=n), rng.integers(1 << 16, size=(n, 5))
            wire = telemetry._pack_block(device_id, sequence, stamps, counts)
            assert _decoded(wire) == _frames(device_id, sequence, stamps.tolist(), counts.tolist())

    @pytest.mark.parametrize("device_id", [0, 255])
    def test_edge_rows(self, device_id):
        stamps = np.array([0, TIMESTAMP_MAX_MS, 0, TIMESTAMP_MAX_MS])
        counts = np.array([[0] * 5, [65535] * 5, [0, 65535, 0, 65535, 0], [65535, 0, 65535, 0, 65535]])
        sequence = (1 << 32) - 4  # the block ends at sequence 2**32 - 1
        wire = telemetry._pack_block(device_id, sequence, stamps, counts)
        assert _decoded(wire) == _frames(device_id, sequence, stamps.tolist(), counts.tolist())

    def test_paced_and_unpaced_send_the_same_bytes(self):
        times, codes = np.arange(600) * 0.004, np.random.default_rng(6).integers(4096, size=(600, 5))
        wires = []
        for pace in (False, True):
            transport = _MemoryTransport()
            emitter = Emitter(lambda: transport, PROFILE, DIVIDER, device_id=5, pace=pace, sleep=lambda s: None)
            assert emitter.send_counts(times, codes) == 600
            assert transport.sends == (3 if not pace else 600)
            wires.append(bytes(transport.buffer))
        assert wires[0] == wires[1]
        assert _decoded(wires[0]) == _frames(5, 0, np.rint(times * 1000).astype(int).tolist(), codes.tolist())

    def test_a_block_failed_mid_send_is_resent_whole(self):
        transports = []

        class _Recording(_MemoryTransport):
            def __init__(self):
                super().__init__()
                self.payloads = []

            def sendall(self, data):
                self.payloads.append(bytes(data))
                if len(transports) == 1 and len(self.payloads) == 2:
                    raise ConnectionResetError("link dropped mid-block")
                super().sendall(data)

        def connect():
            transports.append(_Recording())
            return transports[-1]

        times, codes = np.arange(600) * 0.01, np.random.default_rng(7).integers(4096, size=(600, 5))
        emitter = Emitter(connect, PROFILE, DIVIDER, sleep=lambda s: None)
        assert emitter.send_counts(times, codes) == 600 and emitter.retries == 1
        block = _frames(1, 256, np.rint(times[256:512] * 1000).astype(int).tolist(), codes[256:512].tolist())
        assert transports[0].payloads[1] == transports[1].payloads[0]
        assert _decoded(transports[1].payloads[0]) == block
        assert [len(p) for p in transports[1].payloads] == [256 * FRAME_LENGTH, 88 * FRAME_LENGTH]


class _ListSink:
    def __init__(self):
        self.samples = {}
        self.lock = threading.Lock()

    def __call__(self, device_id, sample):
        with self.lock:
            self.samples.setdefault(device_id, []).append(sample)


class TestCollector:
    def _start(self, sink):
        collector = Collector(sink, PROFILE, DIVIDER, host="127.0.0.1", port=0)
        collector.start()
        return collector

    # 2001:db8::/32 is reserved for documentation, so no machine holds the address
    @pytest.mark.parametrize("host", ["127.0.0.1", "2001:db8::1"], ids=["port taken", "an IPv6 host not on this machine"])
    def test_an_address_it_cannot_listen_on_leaves_no_socket_open(self, host):
        # a leaked socket warns when it is collected, which fails the test
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            collector = Collector(lambda device_id, sample: None, PROFILE, DIVIDER, host, taken.getsockname()[1])
            with pytest.raises(OSError):
                collector.start()
        with pytest.raises(RuntimeError, match="not started"):
            collector.address

    def test_two_devices_stream_concurrently(self):
        sink = _ListSink()
        collector = self._start(sink)
        host, port = collector.address
        params = GaitParams(body_mass_kg=70, cycles=2, sample_rate_hz=100)
        samples = list(synthesize(params))

        def stream(device_id):
            emitter = Emitter(
                lambda: socket.create_connection((host, port), timeout=5),
                PROFILE,
                DIVIDER,
                device_id=device_id,
            )
            emitter.run(samples)
            emitter.close()

        threads = [threading.Thread(target=stream, args=(d,)) for d in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with sink.lock:
                if all(len(sink.samples.get(d, [])) == len(samples) for d in (1, 2)):
                    break
            time.sleep(0.02)
        collector.stop()

        for device in (1, 2):
            got = sink.samples[device]
            assert len(got) == len(samples)
            stamps = [s.timestamp for s in got]
            assert stamps == sorted(stamps)  # per-device arrival order preserved
            assert collector.stats[device].frames == len(samples)
            assert collector.stats[device].gaps == 0

    def test_empty_connection(self):
        sink = _ListSink()
        collector = self._start(sink)
        host, port = collector.address
        conn = socket.create_connection((host, port), timeout=5)
        conn.close()
        assert collector.connection_closed.wait(timeout=5.0)
        collector.stop()
        assert sink.samples == {}
        assert all(s.decode_errors == 0 for s in collector.stats.values())

    def test_corruption_counted_and_survivors_recovered(self):
        sink = _ListSink()
        collector = self._start(sink)
        host, port = collector.address
        params = GaitParams(body_mass_kg=70, cycles=1, sample_rate_hz=100)
        frames = list(frames_from_samples(synthesize(params), PROFILE, DIVIDER))
        wire = bytearray()
        for i, frame in enumerate(frames):
            encoded = bytearray(encode(frame))
            if i in (10, 20, 30):
                encoded[16] ^= 0x02
            wire += encoded
        conn = socket.create_connection((host, port), timeout=5)
        conn.sendall(bytes(wire))
        conn.close()
        assert collector.connection_closed.wait(timeout=5.0)
        collector.stop()
        got = sink.samples[frames[0].device_id]
        assert len(got) == len(frames) - 3
        stats = collector.stats[frames[0].device_id]
        assert stats.decode_errors == 3
        assert stats.gaps == 3  # the corrupted sequence numbers never arrived

    def test_out_of_range_count_counted_and_connection_kept(self):
        sink = _ListSink()
        collector = self._start(sink)
        host, port = collector.address
        counts = (4095, 4000, 3950, 3500, 3000)
        frames = [TelemetryFrame(7, seq, 10 * seq, counts) for seq in range(5)]
        # CRC-valid, but 4096 is beyond the 12-bit ADC
        frames[2] = TelemetryFrame(7, 2, 20, (4095, 4096, 3950, 3500, 3000))
        conn = socket.create_connection((host, port), timeout=5)
        conn.sendall(b"".join(encode(f) for f in frames))
        conn.close()
        assert collector.connection_closed.wait(timeout=5.0)
        collector.stop()
        assert [s.timestamp for s in sink.samples[7]] == [0.0, 0.01, 0.03, 0.04]
        stats = collector.stats[7]
        assert (stats.frames, stats.decode_errors, stats.gaps) == (4, 1, 0)
        assert collector.connections_closed == 1

    def test_a_reset_connection_closes_as_the_end_of_the_stream_does(self):
        # a close with SO_LINGER 0 resets the connection, so the collector's
        # recv raises once it has read what came before: those frames reach
        # the sink, the deframer's errors land and the close is counted. The
        # collector keeps serving: a second device's frames still reach the sink
        sink = _ListSink()
        collector = self._start(sink)
        frames = [TelemetryFrame(7, seq, 10 * seq, (4000, 3900, 3800, 3700, 3600)) for seq in range(4)]
        corrupted = bytearray(encode(frames[3]))
        corrupted[16] ^= 0x02
        conn = socket.create_connection(collector.address, timeout=5)
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        conn.sendall(b"".join(encode(f) for f in frames[:3]) + bytes(corrupted))
        conn.close()
        assert collector.connection_closed.wait(timeout=5.0)
        collector.connection_closed.clear()
        with socket.create_connection(collector.address, timeout=5) as conn:
            conn.sendall(b"".join(encode(TelemetryFrame(8, f.sequence, f.timestamp_ms, f.counts)) for f in frames[:2]))
        assert collector.connection_closed.wait(timeout=5.0)
        collector.stop()
        assert [s.timestamp for s in sink.samples[7]] == [0.0, 0.01, 0.02]
        stats = collector.stats[7]
        assert (stats.frames, stats.decode_errors, stats.gaps) == (3, 1, 0)
        assert [s.timestamp for s in sink.samples[8]] == [0.0, 0.01]
        assert collector.connections_closed == 2

    def test_end_to_end_conservation_in_memory(self):
        # lossless transport: collector output equals the acquisition
        # round-trip of the emitter input, sample for sample
        params = GaitParams(body_mass_kg=70, cycles=2, sample_rate_hz=100)
        samples = list(synthesize(params))
        frames = list(frames_from_samples(samples, PROFILE, DIVIDER))
        wire = b"".join(encode(f) for f in frames)
        out = [
            counts_to_sample(f.timestamp_ms / 1000.0, f.counts, PROFILE, DIVIDER)
            for f in Deframer().feed(wire)
        ]
        assert len(out) == len(samples)
        for sample, frame, decoded in zip(samples, frames, out):
            assert decoded.timestamp == sample.timestamp
            expected = counts_to_sample(sample.timestamp, frame.counts, PROFILE, DIVIDER)
            assert decoded.as_row() == expected.as_row()

    def test_resent_frame_is_dropped_and_counted(self):
        sink = _ListSink()
        collector = self._start(sink)
        params = GaitParams(body_mass_kg=70, cycles=1, sample_rate_hz=100)
        frames = list(frames_from_samples(synthesize(params), PROFILE, DIVIDER))[:10]
        conn = socket.create_connection(collector.address, timeout=5)
        # an at-least-once resend: frame 4 arrives again after frame 5
        conn.sendall(b"".join(encode(f) for f in frames[:6] + frames[4:5] + frames[6:]))
        conn.close()
        assert collector.connection_closed.wait(timeout=5.0)
        collector.stop()
        expected = [counts_to_sample(f.timestamp_ms / 1000.0, f.counts, PROFILE, DIVIDER) for f in frames]
        assert sink.samples[frames[0].device_id] == expected
        stats = collector.stats[frames[0].device_id]
        assert (stats.frames, stats.duplicates, stats.gaps, stats.decode_errors) == (10, 1, 0, 0)

    def test_resend_on_a_new_connection_reaches_the_sink_once(self, capsys):
        # the emitter retries a frame that died mid-flight on its next connection
        analyzer = Analyzer()
        sunk = []

        def sink(device_id, sample):
            analyzer.update(sample)
            sunk.append(sample)

        collector = self._start(sink)
        params = GaitParams(body_mass_kg=70, cycles=1, sample_rate_hz=100)
        frames = list(frames_from_samples(synthesize(params), PROFILE, DIVIDER))[:10]
        for part in (frames[:5], frames[4:]):
            collector.connection_closed.clear()
            conn = socket.create_connection(collector.address, timeout=5)
            conn.sendall(b"".join(encode(f) for f in part))
            conn.close()
            assert collector.connection_closed.wait(timeout=5.0)
        collector.stop()
        assert "Traceback" not in capsys.readouterr().err
        assert sunk == [counts_to_sample(f.timestamp_ms / 1000.0, f.counts, PROFILE, DIVIDER) for f in frames]
        stats = collector.stats[frames[0].device_id]
        assert (stats.frames, stats.stale_timestamps, stats.decode_errors) == (10, 1, 0)
        assert collector.connections_closed == 2

    def test_colliding_millisecond_timestamps_are_dropped_and_counted(self, capsys):
        # above 1 kHz, round(t * 1000) repeats: the analyzer must never see it
        params = GaitParams(body_mass_kg=70, cycles=1, sample_rate_hz=2000)
        samples = list(synthesize(params))
        stamps = [f.timestamp_ms for f in frames_from_samples(samples, PROFILE, DIVIDER)]
        colliding = sum(1 for a, b in zip(stamps, stamps[1:]) if b <= a)
        analyzer = Analyzer()
        sunk = []

        def sink(device_id, sample):
            analyzer.update(sample)
            sunk.append(sample.timestamp)

        collector = self._start(sink)
        emitter = Emitter(lambda: socket.create_connection(collector.address, timeout=5), PROFILE, DIVIDER)
        emitter.run(samples)
        emitter.close()
        assert collector.connection_closed.wait(timeout=5.0)
        collector.stop()
        assert len(samples) == 2000 and colliding > 0
        assert collector.connections_closed == 1 and emitter.retries == 0
        assert "Traceback" not in capsys.readouterr().err
        assert all(a < b for a, b in zip(sunk, sunk[1:]))
        stats = collector.stats[1]
        assert stats.stale_timestamps == colliding
        assert stats.frames == len(sunk) == len(samples) - colliding

    def test_receive_path_builds_no_frame_and_no_per_sample_decode(self, monkeypatch):
        params = GaitParams(body_mass_kg=70, cycles=10, sample_rate_hz=100)
        frames = list(frames_from_samples(synthesize(params), PROFILE, DIVIDER))
        assert len(frames) == 1000
        want = [counts_to_sample(f.timestamp_ms / 1000.0, f.counts, PROFILE, DIVIDER) for f in frames]
        # the public constructor, handed the channels in reverse order
        table = acquisition.decode_table(PROFILE, DIVIDER)
        reversed_channels = [
            {c: Pressure(table[k]) for c, k in reversed(list(zip(CHANNEL_ORDER, f.counts)))} for f in frames
        ]
        public = [PressureSample(f.timestamp_ms / 1000.0, ch) for f, ch in zip(frames, reversed_channels)]
        wire = b"".join(encode(f) for f in frames)
        sink = _ListSink()
        collector = self._start(sink)
        decoded = _count_calls(monkeypatch, "counts_to_sample")
        built = _count_frames_built(monkeypatch)
        checked = []  # each sample is built once, unchecked
        init = PressureSample.__init__
        monkeypatch.setattr(PressureSample, "__init__", lambda self, *args: checked.append(1) or init(self, *args))
        pressures = []  # a sample is a float row: no Pressure is built
        pressure_init = Pressure.__init__
        monkeypatch.setattr(Pressure, "__init__", lambda self, *args: pressures.append(1) or pressure_init(self, *args))
        conn = socket.create_connection(collector.address, timeout=5)
        conn.sendall(wire)
        conn.close()
        assert collector.connection_closed.wait(timeout=5.0)
        collector.stop()
        assert (len(decoded), len(built), len(checked), len(pressures)) == (0, 0, 0, 0)
        assert sink.samples[1] == want == public
        for sample in sink.samples[1]:
            assert list(sample.channels) == list(CHANNEL_ORDER)
            with pytest.raises(TypeError):
                sample.channels[CHANNEL_ORDER[0]] = Pressure(table[0])
        assert collector.stats[1].frames == 1000

    def test_stop_is_prompt_and_leaves_no_thread(self):
        before = set(threading.enumerate())
        sink = _ListSink()
        collector = self._start(sink)
        frame = TelemetryFrame(5, 0, 0, (4095, 4095, 4095, 4095, 4095))
        conn = socket.create_connection(collector.address, timeout=5)
        try:
            conn.sendall(encode(frame))
            deadline = time.monotonic() + 5.0
            while 5 not in sink.samples and time.monotonic() < deadline:
                time.sleep(0.01)
            t0 = time.perf_counter()
            collector.stop()  # the connection is still open and idle
            elapsed = time.perf_counter() - t0
            assert conn.recv(1) == b""  # the collector closed its end
        finally:
            conn.close()
        assert elapsed < 0.5
        assert [t for t in threading.enumerate() if t not in before and t.is_alive()] == []
        assert collector.connections_closed == 1
        collector.stop()  # a second stop is a no-op

    def test_raising_sink_ends_only_its_own_connection(self, capsys):
        calls = {}

        def sink(device_id, sample):
            calls[device_id] = calls.get(device_id, 0) + 1
            if device_id == 3:
                raise RuntimeError("sink failed")
            good.append(sample)

        good = []
        collector = self._start(sink)
        counts = (4095, 4000, 3950, 3500, 3000)
        wires = {d: [encode(TelemetryFrame(d, seq, 10 * seq, counts)) for seq in range(20)] for d in (3, 4)}
        bad_conn = socket.create_connection(collector.address, timeout=5)
        good_conn = socket.create_connection(collector.address, timeout=5)
        good_conn.sendall(b"".join(wires[4][:10]))
        bad_conn.sendall(b"".join(wires[3]))
        good_conn.sendall(b"".join(wires[4][10:]))
        bad_conn.close()
        good_conn.close()
        deadline = time.monotonic() + 5.0
        while collector.connections_closed < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        collector.stop()
        assert [s.timestamp for s in good] == [seq / 100 for seq in range(20)]
        assert calls == {3: 1, 4: 20}
        assert collector.connections_closed == 2
        assert "RuntimeError: sink failed" in capsys.readouterr().err


def _receive_schedule(rng):
    """A seeded session of 1-3 connections, each a list of received chunks,
    with every fault the receive path handles; and the sink call to raise on."""
    fault = rng.choice([0.0, 0.01, 0.05, 0.2])  # share of frames with a ledger fault
    damage = rng.choice([0.0, 0.0, 0.01, 0.05])  # share of frames damaged on the wire
    # chunk sizes in frames: few, around the array crossing, or up to a block
    # or more, as a bulk link's recv takes them
    spans = rng.choice([(1, 3), (20, 30), (10, 160), (1, 160), (200, 600)])
    devices = [rng.randrange(256) for _ in range(rng.choice([1, 2]))]
    state = {d: [rng.choice([0, rng.randrange(1 << 31)]), rng.choice([0, rng.randrange(1 << 47)])] for d in devices}
    sent = {d: [] for d in devices}
    connections = []
    for _ in range(rng.randint(1, 3)):
        wire = bytearray()
        for _ in range(rng.choice([0, rng.randint(1, 250)])):
            d = rng.choice(devices)
            seq, ms = state[d]
            counts = [rng.randrange(4096) for _ in range(5)]
            kinds = ["gap", "resend", "replay", "stray", "same_ms", "back_ms", "bad_code"]
            kind = "next" if rng.random() >= fault else rng.choice(kinds)
            if kind == "resend" and sent[d]:
                frames = [rng.choice(sent[d][-8:])]
            elif kind == "replay":  # the last frames again, in order
                frames = sent[d][-rng.randint(1, 40) :]
            elif kind == "stray":  # an old sequence number with a later timestamp
                frames = [TelemetryFrame(d, max(0, seq - rng.randint(1, 5)), ms + rng.randint(1, 40), tuple(counts))]
            else:
                seq += rng.randint(2, 6) if kind == "gap" else 1
                ms = {"same_ms": ms, "back_ms": max(0, ms - rng.randint(1, 50))}.get(kind, ms + rng.randint(1, 20))
                if kind == "bad_code":
                    counts[rng.randrange(5)] = rng.choice([4096, rng.randrange(4096, 1 << 16)])
                frames = [TelemetryFrame(d, seq, ms, tuple(counts))]
                state[d] = [seq, ms]
                sent[d].extend(frames)
            for frame in frames:
                encoded = bytearray(encode(frame))
                if rng.random() < damage:
                    harm = rng.choice(["junk", "crc", "version", "cut", "foreign"])
                    if harm == "junk":
                        encoded[:0] = bytes(rng.choice(b"SL\x01\x00\xff") for _ in range(rng.randint(1, 30)))
                    elif harm == "crc":
                        encoded[rng.randrange(3, FRAME_LENGTH)] ^= 1 << rng.randrange(8)
                    elif harm == "version":
                        encoded[2] = rng.choice([0, 2, 255])
                    elif harm == "cut":
                        del encoded[rng.randrange(1, FRAME_LENGTH) :]
                    else:  # another protocol's magic or version, under a valid CRC
                        encoded[rng.choice([0, 2])] ^= 0x04
                        encoded[CRC_SPAN:] = crc16_ccitt_false(bytes(encoded[:CRC_SPAN])).to_bytes(2, "little")
                wire += encoded
        chunks, start = [], 0
        while start < len(wire):
            stop = start + rng.randint(*spans) * FRAME_LENGTH + rng.randrange(-25, 26)
            stop = min(stop, start + telemetry._RECV_BYTES)
            stop = max(stop, start + 1)
            chunks.append(bytes(wire[start:stop]))
            start = stop
        connections.append(chunks)
    total = sum(map(len, sum(connections, []))) // FRAME_LENGTH
    raise_at = rng.randrange(total) if total and rng.random() < 0.3 else None
    return connections, raise_at


def _receives_as_reference(connections, raise_at=None, context=""):
    """Run each connection's chunks through a Collector's receive step and
    through ReferenceReceiver's, with a sink that raises on call ``raise_at``,
    and assert that both agree on everything; returns the collector and the
    sink calls."""
    table = acquisition.decode_table(PROFILE, DIVIDER)

    def sink_into(sunk):
        def sink(device_id, sample):
            if len(sunk) == raise_at:
                sunk.append("raised")
                raise RuntimeError("sink failed")
            sunk.append((device_id, sample))

        return sink

    want, got = [], []
    reference = ReferenceReceiver(sink_into(want), table)
    collector = Collector(sink_into(got), PROFILE, DIVIDER)
    for chunks in connections:
        ref_deframer, ref_expected = receive(reference, chunks, ReferenceDeframer())
        deframer, expected = receive(collector, chunks)
        assert list(expected.items()) == list(ref_expected.items()), context
        counters = ("frames", "bad_crc", "bad_version", "skipped_bytes")
        got_counters = [getattr(deframer, c) for c in counters]
        assert got_counters == [getattr(ref_deframer, c) for c in counters], context
    assert got == want, context
    stats = {d: dataclasses.astuple(s) for d, s in collector.stats.items()}
    assert stats == {d: dataclasses.astuple(s) for d, s in reference.stats.items()}, context
    assert list(collector._last_ms.items()) == list(reference._last_ms.items()), context
    assert collector.connections_closed == reference.connections_closed
    return collector, got


_IN_TABLE = (4095, 4000, 3950, 3500, 3000)


def _wire(frames) -> bytes:
    return b"".join(encode(TelemetryFrame(*frame)) for frame in frames)


def _run(first, n, device=1):
    """(device, sequence, ms, codes) of n frames of a clean run from sequence
    ``first``, 10 ms apart."""
    return [(device, seq, 10 * seq, _IN_TABLE) for seq in range(first, first + n)]


# one flaw that breaks a run or drops frames from it, on the kth frame of a run
# that follows another: each maps (k, frame) to the frame sent
_FLAWS = {
    "other device": lambda k, d, seq, ms, codes: (2 if k == 12 else d, seq, ms, codes),
    "gap inside": lambda k, d, seq, ms, codes: (d, seq + (k >= 12), ms, codes),
    "below expected": lambda k, d, seq, ms, codes: (d, seq - 10, ms, codes),  # renumbered, timed on
    "stale first": lambda k, d, seq, ms, codes: (d, seq, ms - 10, codes),  # from the last kept ms
    "equal ms": lambda k, d, seq, ms, codes: (d, seq, ms - 10 * (k == 12), codes),
    "code out of table": lambda k, d, seq, ms, codes: (d, seq, ms, (4095, 1 << 15, 4095, 4095, 4095) if k == 12 else codes),
}


class TestReceiveEquivalence:
    def test_chunked_receive_equals_one_frame_at_a_time(self, monkeypatch):
        checks = {"valid": 0, "invalid": 0}
        all_valid = telemetry._all_valid

        def checked(frames):
            valid = all_valid(frames)
            checks["valid" if valid else "invalid"] += 1
            return valid

        monkeypatch.setattr(telemetry, "_all_valid", checked)

        for seed in range(200):
            connections, raise_at = _receive_schedule(random.Random(seed))
            _receives_as_reference(connections, raise_at, f"seed {seed}")
        assert min(checks.values()) > 0, checks  # both scan checks

    def test_reconnect_resending_a_block_is_dropped_as_stale(self):
        # 300 frames, then a new connection resends the last 256 with their
        # stale timestamps before going on
        sent = _run(0, 350)
        collector, sunk = _receives_as_reference([[_wire(sent[:300])], [_wire(sent[44:300]), _wire(sent[300:])]])
        stats = collector.stats[1]
        assert (stats.frames, stats.stale_timestamps, stats.duplicates, stats.gaps) == (350, 256, 0, 0)
        assert len(sunk) == 350

    def test_two_devices_in_one_chunk_are_told_apart(self):
        # numbered and timed as one run, so only the device tells them apart
        frames = [(1 + seq % 2, seq, ms, codes) for _d, seq, ms, codes in _run(0, 30)]
        collector, sunk = _receives_as_reference([[_wire(frames)]])
        assert [(s.frames, s.gaps) for s in collector.stats.values()] == [(15, 14), (15, 14)]
        assert [d for d, _sample in sunk] == [1 + k % 2 for k in range(30)]

    def test_gap_before_a_clean_run_is_counted(self):
        collector, sunk = _receives_as_reference([[_wire(_run(0, 30)), _wire(_run(40, 40))]])
        stats = collector.stats[1]
        assert (stats.frames, stats.gaps) == (70, 10)
        assert collector._last_ms[1] == 790

    def test_sink_raising_in_a_clean_run_counts_up_to_that_frame(self, capsys):
        collector, sunk = _receives_as_reference([[_wire(_run(5, 100)), _wire(_run(105, 30))]], raise_at=37)
        assert "RuntimeError: sink failed" in capsys.readouterr().err
        assert len(sunk) == 38 and sunk[-1] == "raised"
        stats = collector.stats[1]
        assert (stats.frames, stats.gaps) == (38, 0)
        assert collector._last_ms[1] == 10 * (5 + 37)

    @pytest.mark.parametrize("raise_at", [0, 99], ids=["first frame", "last frame"])
    def test_sink_raising_at_either_end_of_a_clean_run(self, capsys, raise_at):
        collector, sunk = _receives_as_reference([[_wire(_run(5, 100)), _wire(_run(105, 30))]], raise_at=raise_at)
        assert "RuntimeError: sink failed" in capsys.readouterr().err
        assert len(sunk) == raise_at + 1 and sunk[-1] == "raised"
        stats = collector.stats[1]
        assert (stats.frames, stats.gaps) == (raise_at + 1, 0)
        assert collector._last_ms[1] == 10 * (5 + raise_at)

    @pytest.mark.parametrize("flaw", _FLAWS)
    def test_a_run_with_one_flaw_is_received_as_the_reference_receives_it(self, flaw):
        flawed = [_FLAWS[flaw](k, *frame) for k, frame in enumerate(_run(30, 30))]
        _receives_as_reference([[_wire(_run(0, 30)), _wire(flawed)]], context=flaw)

