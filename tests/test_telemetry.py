import dataclasses
import errno
import random
import socket
import subprocess
import sys
import threading
import time

import pytest
from helpers import ReferenceReceiver, receive

from solesense import acquisition, telemetry
from solesense.acquisition import DividerConfig, counts_to_sample
from solesense.analysis import Analyzer
from solesense.sensor import measured_profile
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
    TelemetryFrame,
    Truncated,
    crc16_ccitt_false,
    decode,
    encode,
    frames_from_samples,
)
from solesense.units import CHANNEL_ORDER, Pressure, PressureSample

PROFILE = measured_profile()
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

    def test_field_validation(self):
        with pytest.raises(ValueError):
            TelemetryFrame(256, 0, 0, (0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            TelemetryFrame(0, 1 << 32, 0, (0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            TelemetryFrame(0, 0, 1 << 48, (0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            TelemetryFrame(0, 0, 0, (0, 0, 0, 0))


class TestDeframer:
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
                    frames.append(decode(wire, pos))
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
        self.closed = False

    def sendall(self, data):
        self.buffer.extend(data)
        self.sends += 1

    def close(self):
        self.closed = True


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

    def test_pace_sleeps_by_timestamp_deltas(self):
        transport = _MemoryTransport()
        sleeps = []
        emitter = Emitter(lambda: transport, PROFILE, DIVIDER, pace=True, sleep=sleeps.append)
        emitter.run(self._samples(5))
        assert sleeps == pytest.approx([0.01, 0.01, 0.01, 0.01])

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

    def test_paced_run_sends_each_frame_before_the_next_pull(self):
        log = []

        def pulled(samples):
            for k, sample in enumerate(samples):
                log.append(("pull", k))
                yield sample

        class _Logging(_MemoryTransport):
            def sendall(self, data):
                log.append(("send", Deframer().feed(data)[0].sequence))
                super().sendall(data)

        transport = _Logging()
        emitter = Emitter(lambda: transport, PROFILE, DIVIDER, pace=True, sleep=lambda s: None)
        assert emitter.run(pulled(_session(300))) == 300
        assert log == [event for k in range(300) for event in (("pull", k), ("send", k))]

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

    def test_frames_from_samples_pure(self):
        samples = self._samples(10)
        frames = list(frames_from_samples(samples, PROFILE, DIVIDER, device_id=9))
        assert [f.sequence for f in frames] == list(range(10))
        assert all(f.device_id == 9 for f in frames)
        assert frames[3].timestamp_ms == round(samples[3].timestamp * 1000)


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
        post_init = Pressure.__post_init__
        monkeypatch.setattr(Pressure, "__post_init__", lambda self: pressures.append(1) or post_init(self))
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


class TestReceiveEquivalence:
    def test_chunked_receive_equals_one_frame_at_a_time(self, monkeypatch):
        table = acquisition.decode_table(PROFILE, DIVIDER)
        routes = {"block": 0, "frames": 0, "valid": 0, "invalid": 0}
        for name, route in (("_ingest_block", "block"), ("_ingest_frames", "frames")):
            original = getattr(Collector, name)

            def counted(self, *args, _original=original, _route=route):
                routes[_route] += 1
                return _original(self, *args)

            monkeypatch.setattr(Collector, name, counted)
        all_valid = telemetry._all_valid

        def checked(frames):
            valid = all_valid(frames)
            routes["valid" if valid else "invalid"] += 1
            return valid

        monkeypatch.setattr(telemetry, "_all_valid", checked)

        for seed in range(200):
            connections, raise_at = _receive_schedule(random.Random(seed))

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
                ref_conn = reference.connection()
                for chunk in chunks + [b""]:
                    if not reference.read(ref_conn, chunk):
                        break
                (ref_deframer, ref_expected), (deframer, expected) = ref_conn, receive(collector, chunks)
                assert list(expected.items()) == list(ref_expected.items()), f"seed {seed}"
                counters = ("frames", "bad_crc", "bad_version", "skipped_bytes")
                got_counters = [getattr(deframer, c) for c in counters]
                assert got_counters == [getattr(ref_deframer, c) for c in counters], f"seed {seed}"
            assert got == want, f"seed {seed}"
            stats = {d: dataclasses.astuple(s) for d, s in collector.stats.items()}
            assert stats == {d: dataclasses.astuple(s) for d, s in reference.stats.items()}, f"seed {seed}"
            assert list(collector._last_ms.items()) == list(reference._last_ms.items()), f"seed {seed}"
            assert collector.connections_closed == reference.connections_closed
        assert min(routes.values()) > 0, routes  # both receive routes, both scan checks
