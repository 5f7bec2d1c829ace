"""Generator child of the ``live`` workload: two devices feeding one collector.

Started by ``live.py`` with pipes on stdin and stdout. It reads one pickled
job, opens one paced connection per device and answers "ready". The job is a
list of segments, paced windows and unpaced rounds in turn; each ``next`` line
on stdin runs the next segment and is answered with one pickled reply:

* paced: send the segment's pre-built frames of every device on an absolute
  schedule, ``paced_rate`` frames per second per device, on the paced
  connections. Replies with the schedule start and each tick's lateness.
  After the last paced window those connections close.
* bulk: replay each device's samples unpaced through ``Emitter.run`` on a new
  connection, one thread per device, as ``solesense stream`` does. The
  connections close when the round is done, except that of the last device
  in the last round, which stays connected and idle. Replies with the start
  time, frames sent and, if the job asks, the bytes put on each wire.

A final ``release`` closes the idle connection and ends the process. Times
are ``time.monotonic_ns()``, CLOCK_MONOTONIC, which the parent shares.
"""

from __future__ import annotations

import os
import pickle
import socket
import sys
import threading
import time

from common import import_solesense

import_solesense()

from solesense.acquisition import DividerConfig  # noqa: E402
from solesense.sensor import builtin_profile  # noqa: E402
from solesense.telemetry import FRAME_LENGTH, Emitter  # noqa: E402
from solesense.units import PressureSample  # noqa: E402

LEAD_NS = 20_000_000  # a window's schedule starts this long after its command


class Recording:
    """Transport wrapper that keeps a copy of every byte sent."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.sent = bytearray()

    def sendall(self, data: bytes) -> None:
        self.sock.sendall(data)
        self.sent += data

    def close(self) -> None:
        self.sock.close()


def main() -> None:
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer

    def reply(obj) -> None:
        pickle.dump(obj, stdout)
        stdout.flush()

    def expect(command: bytes) -> None:
        line = stdin.readline().strip()
        if line != command:
            raise SystemExit(f"expected {command!r}, got {line!r}")

    job = pickle.load(stdin)
    if job["cpu"] is not None:
        os.sched_setaffinity(0, {job["cpu"]})  # threads started later inherit it
    address = tuple(job["addr"])
    devices = job["devices"]
    profile = builtin_profile(job["profile"])
    period_ns = 1e9 / job["paced_rate"]
    segments = [
        (kind, {d: [PressureSample.from_row(t, row) for t, row in rows] for d, rows in payload.items()}
         if kind == "bulk" else payload)
        for kind, payload in job["segments"]
    ]
    last_paced = max(i for i, (kind, _p) in enumerate(segments) if kind == "paced")
    last_bulk = max(i for i, (kind, _p) in enumerate(segments) if kind == "bulk")
    conns = {d: socket.create_connection(address, timeout=10.0) for d in devices}
    reply("ready")

    def paced(frames: dict[int, bytes]) -> dict:
        late_ns = []
        t0 = time.monotonic_ns() + LEAD_NS
        for k in range(len(frames[devices[0]]) // FRAME_LENGTH):
            due = t0 + round(k * period_ns)
            now = time.monotonic_ns()
            if now < due:
                time.sleep((due - now) / 1e9)
                now = time.monotonic_ns()
            late_ns.append(now - due)
            for d in devices:
                conns[d].sendall(frames[d][k * FRAME_LENGTH : (k + 1) * FRAME_LENGTH])
        return {"t0_ns": t0, "late_ns": late_ns}

    def bulk(samples: dict[int, list], keep_last: bool) -> dict:
        transports: dict[int, Recording] = {}

        def connector(device: int):
            def connect():
                sock = socket.create_connection(address, timeout=10.0)
                if not job["capture"]:
                    return sock
                transports[device] = Recording(sock)
                return transports[device]

            return connect

        emitters = {
            d: Emitter(connector(d), profile=profile, divider=DividerConfig(), device_id=d)
            for d in devices
        }
        sent: dict[int, int] = {}

        def send(device: int) -> None:
            sent[device] = emitters[device].run(samples[device])
            if not (keep_last and device == devices[-1]):
                emitters[device].close()

        threads = [threading.Thread(target=send, args=(d,)) for d in devices]
        t_start = time.monotonic_ns()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        idle.append(emitters[devices[-1]])
        return {
            "t_start_ns": t_start,
            "sent": sent,
            "wire": {d: bytes(t.sent) for d, t in transports.items()},
        }

    idle: list[Emitter] = []
    for i, (kind, payload) in enumerate(segments):
        expect(b"next")
        if kind == "paced":
            result = paced(payload)
            if i == last_paced:
                for conn in conns.values():
                    conn.close()
        else:
            result = bulk(payload, keep_last=i == last_bulk)
        reply(result)

    expect(b"release")
    idle[-1].close()
    reply("released")


if __name__ == "__main__":
    main()
