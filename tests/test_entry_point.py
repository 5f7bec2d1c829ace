"""``solesense`` in child processes, on the package the tests import (an installed
one, run from outside the checkout with ``-o pythonpath=``): argv, piped input, a
signal, the system's resolver, and links into a ``collect`` on port 0."""

import signal
import subprocess
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import pytest

from solesense import store
from solesense.acquisition import counts_from_pascals
from solesense.cli import main
from solesense.sensor import builtin_profile

from helpers import packed, run_cli, send_until_closed


@dataclass(frozen=True)
class Leg:
    """``solesense ARGV`` in the module's directory, with the file ``stdin``
    piped in, exits with ``code`` within 60 s and prints the file ``prints``.
    With ``collect``, ``solesense collect --addr 127.0.0.1:0 COLLECT`` listens
    first, ARGV's ``{addr}`` is its address, and it exits 0 after ARGV. Then
    in each (A, B) of ``same``, file A, or what ``solesense A`` prints when A
    starts with ``analyze``, has B's bytes; each (F, L) of ``lines`` has F
    hold the line L, and no file of ``absent`` exists."""

    argv: str
    code: int = 0
    stdin: str | None = None
    prints: str | None = None
    collect: str | None = None
    same: tuple[tuple[str, str], ...] = ()
    lines: tuple[tuple[str, str], ...] = ()
    absent: tuple[str, ...] = ()


def _link(flags, output, text="s.txt", **checks) -> Leg:
    """``stream FLAGS`` into a ``collect --once -o OUTPUT`` that analyzes as ``text``."""
    argv, analyzed = f"stream {flags} --addr {{addr}}", (f"analyze {output}", text)
    return Leg(argv, collect=f"--once -o {output}", same=(analyzed,), **checks)


COMMANDS = ("simulate", "stream", "collect", "analyze", "calibrate", "compare")
LEGS = {
    **{f"{name} --help": Leg(f"{name} --help") for name in COMMANDS},
    "analyze piped csv": Leg("analyze /dev/stdin", stdin="s.csv", prints="s.txt"),
    "analyze piped jsonl": Leg("analyze /dev/stdin", stdin="s.jsonl", prints="s.txt"),
    "analyze jsonl": Leg("analyze s.jsonl", prints="s.txt"),
    "analyze crlf": Leg("analyze crlf.csv", prints="s.txt"),
    "analyze jsonl of a profile named with brackets": Leg("analyze left.jsonl", prints="left.txt"),
    "analyze json onto a plots twin": Leg("analyze s.csv --plots d --json d/time_vs_pressure.csv", 1, absent=("d",)),
    # the exit status of a usage error that must come before collect listens, or the leg times out
    "collect --report without --analyze": Leg("collect --once --addr 127.0.0.1:0 -o nr.csv --report nr.json", 1,
                                              absent=("nr.csv", "nr.json")),
    # the system's own resolver: an .invalid name never resolves
    "stream to a host that does not resolve": Leg("stream --simulate --cycles 1 --addr nosuchhost.invalid:7332", 4),
    "link --once": _link("--simulate", "c.csv"),
    "link --pace": _link("--simulate --cycles 2 --pace", "p.csv", "s2.txt"),
    "link -i csv": _link("-i s.csv", "ri.csv"),
    "link -i jsonl": _link("-i s.jsonl", "rj.csv"),
    "link -i piped": _link("-i /dev/stdin", "rp.csv", stdin="s.csv"),
    "link -i 10-bit header": _link("-i s10.csv", "r10.csv"),
    "link --analyze --report": Leg(
        "stream --simulate --addr {addr}", collect="--once --analyze --report e2.json -o e2.jsonl",
        same=(("analyze e2.jsonl", "s.txt"), ("e2.json", "s.txt"))),
    "link --cycles 0": Leg(
        "stream --simulate --cycles 0 --addr {addr}", collect="--once --analyze --report e.json -o e.csv",
        same=(("analyze e.csv", "e.json"),), lines=(("e.csv", "# sample_rate_hz: 0.0"),)),
}


def _output(directory, argv) -> bytes:
    """What ``solesense ARGV`` prints, exiting 0."""
    result = run_cli(argv.split(), cwd=directory, capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


@contextmanager
def _collect(directory, flags):
    """A ``collect`` with ``flags`` on port 0, and the address it listens on."""
    argv = ["collect", "--addr", "127.0.0.1:0", *flags.split()]
    with run_cli(argv, start=subprocess.Popen, cwd=directory, stdout=subprocess.PIPE, text=True) as collect:
        try:
            yield collect, collect.stdout.readline().split()[-1]
        finally:
            collect.kill()  # one that already exited is left as it is


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    """The files the legs read: sessions, and what ``analyze`` prints for them."""
    d = tmp_path_factory.mktemp("entry_point")
    (d / "cal.csv").write_text("pressure_pa,resistance_ohm\n200000.0,150000.0\n400000.0,20000.0\n750000.0,200.0\n")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(d)
        for argv in ("simulate -o s.csv", "simulate -o s.jsonl", "simulate --cycles 2 -o s2.csv",
                     "calibrate cal.csv --name sole[L] -o left.json", "simulate --profile left.json -o left.csv",
                     "simulate --profile left.json -o left.jsonl"):
            assert main(argv.split()) == 0
    for session in ("s", "s2", "left"):
        (d / f"{session}.txt").write_bytes(_output(d, f"analyze {session}.csv"))
    session = (d / "s.csv").read_text()
    (d / "crlf.csv").write_bytes(session.replace("\n", "\r\n").encode())
    (d / "s10.csv").write_text(session.replace("\n# adc_bits: 12\n", "\n# adc_bits: 10\n"))
    assert "# adc_bits: 10" in (d / "s10.csv").read_text().splitlines()
    return d


@pytest.mark.parametrize("leg", LEGS.values(), ids=LEGS.keys())
def test_leg(leg, directory):
    stdin = {"input": (directory / leg.stdin).read_bytes()} if leg.stdin else {"stdin": subprocess.DEVNULL}
    with _collect(directory, leg.collect) if leg.collect else nullcontext((None, None)) as (collect, addr):
        argv = leg.argv.format(addr=addr).split()
        result = run_cli(argv, cwd=directory, capture_output=True, timeout=60, **stdin)
        assert result.returncode == leg.code, result.stderr
        assert collect is None or collect.wait(timeout=30) == 0
    if leg.prints is not None:
        assert result.stdout == (directory / leg.prints).read_bytes()
    for a, b in leg.same:
        got = _output(directory, a) if a.startswith("analyze ") else (directory / a).read_bytes()
        assert got == (directory / b).read_bytes()
    for name, line in leg.lines:
        assert line in (directory / name).read_text().splitlines()
    for name in leg.absent:
        assert not (directory / name).exists()


def test_a_terminated_collect_writes_what_it_received(directory):
    # the frames stream -i s.csv sends, from the test's own socket: once
    # collect hangs up it has read them all, and SIGTERM comes
    header, times, pascals = store.read_columns(directory / "s.csv")
    frames = packed(header.device_id, times, counts_from_pascals(pascals, builtin_profile(header.profile_name)))
    with _collect(directory, "-o k.csv") as (collect, addr):
        send_until_closed(addr, frames)
        collect.send_signal(signal.SIGTERM)
        assert collect.wait(timeout=30) == 0
    assert _output(directory, "analyze k.csv") == (directory / "s.txt").read_bytes()
