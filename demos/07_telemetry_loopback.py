"""Telemetry over a real loopback TCP socket.

The emitter packs each sample into a 26-byte CRC-protected frame; the
collector deframes, converts raw ADC counts back to pressures, and feeds an
online gait analyzer. With a lossless transport the collected stream equals
the acquisition round-trip of the input exactly.
"""

import socket

from solesense.acquisition import DividerConfig
from solesense.analysis import Analyzer
from solesense.sensor import builtin_profile
from solesense.synth import GaitParams, synthesize
from solesense.telemetry import Collector, Emitter, TelemetryFrame, encode

profile = builtin_profile("measured")
divider = DividerConfig()

frame = TelemetryFrame(device_id=1, sequence=0, timestamp_ms=0, counts=(4095, 4095, 4095, 4095, 4095))
print(f"one frame on the wire ({len(encode(frame))} bytes): {encode(frame).hex(' ')}\n")

received = []
analyzer = Analyzer()

def sink(device_id, sample):  # runs on the collector's one thread: no lock needed
    received.append(sample)
    analyzer.update(sample)

collector = Collector(sink, profile=profile, divider=divider, host="127.0.0.1", port=0)
collector.start()
host, port = collector.address
print(f"collector listening on {host}:{port}")

samples = list(synthesize(GaitParams(body_mass_kg=70, cycles=8)))
emitter = Emitter(lambda: socket.create_connection((host, port), timeout=5), profile, divider)
sent = emitter.run(samples)
emitter.close()
print(f"emitter sent {sent} frames")

collector.connection_closed.wait(timeout=10)  # set after the connection's last frame is sunk
collector.stop()

stats = collector.stats[1]
print(
    f"collector got {stats.frames} frames, {stats.gaps} gaps, {stats.duplicates} duplicates,"
    f" {stats.decode_errors} decode errors"
)
report = analyzer.report()
print(f"online report: {report.cycles} cycles, cadence {report.cadence_spm:.1f} steps/min")
