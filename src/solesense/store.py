"""Persist and replay sessions: decoded samples, gait events, reports.

Two formats carry the same sample sequence:

* CSV for spreadsheet interop -- a ``#``-prefixed key/value header block,
  then ``t_s,forefoot_pa,midfoot_medial_pa,midfoot_central_pa,
  midfoot_lateral_pa,heel_pa``. Events and reports are not representable
  here.
* JSON Lines for the full typed log -- first line a header object, then one
  object per sample, event, and (optionally) the final report.

One writer takes a log's rows (write_session) or columns (write_columns) and
has one sample-line builder per format. Writing goes by extension (``.jsonl``,
else CSV), reading by content, so a file reads whatever it is named.

The report object's field names are fixed: ``cycles``, ``cadence_spm``,
``stance_fraction_mean``, ``stance_fraction_std``, ``peak_pressure_pa``
(keyed ``forefoot``/``midfoot``/``heel``), ``phase_mean_durations_s`` (keyed
by phase name) and ``sequence_violations``.

Floats are serialized in shortest round-trip form, so read(write(x)) is
exact. Samples are written in blocks of whole lines, each block written and
flushed whole, so the file grows by whole records and a concurrent reader of
a growing file never sees a torn one.

read_columns() reads a session as numpy columns (timestamps and (n, 5)
pascals) for consumers that fold whole blocks, such as ``solesense
analyze``: a CSV body is parsed in one array pass and validated at once
(six fields, every pressure finite and >= 0). A file that pass cannot take
whole goes back through read_csv, so the columns always equal read_csv's
samples and a malformed file raises the same ``path:line`` error.

A third, single-channel legacy layout (``time_s,pressure_pa,resistance_ohm``)
is read only, to replay old bench recordings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .acquisition import DividerConfig
from .analysis import GaitEvent, GaitEventKind, GaitReport
from .telemetry import SessionHeader
from .units import CHANNEL_ORDER, GaitPhase, PressureSample, Resistance, Voltage, samples_to_columns

SAMPLE_COLUMNS = ("t_s",) + tuple(f"{c.value}_pa" for c in CHANNEL_ORDER)
LEGACY_COLUMNS = ("time_s", "pressure_pa", "resistance_ohm")

DEFAULT_EPOCH = "1970-01-01T00:00:00Z"


class SessionFormatError(ValueError):
    """Parse failure; message carries the file path and line number."""


@dataclass
class SessionLog:
    header: SessionHeader
    samples: list[PressureSample] = field(default_factory=list)
    events: list[GaitEvent] = field(default_factory=list)
    report: GaitReport | None = None


def default_header(epoch: str = DEFAULT_EPOCH, profile_name: str = "measured") -> SessionHeader:
    """Device 1 at 100 Hz behind the default divider."""
    return SessionHeader(1, epoch, profile_name, 100.0)


# --- CSV ---------------------------------------------------------------------


def _header_lines(header: SessionHeader) -> list[str]:
    d = header.divider
    return [
        f"# device_id: {header.device_id}",
        f"# epoch: {header.epoch}",
        f"# profile: {header.profile_name}",
        f"# sample_rate_hz: {header.sample_rate_hz!r}",
        f"# v_in: {d.v_in.volts!r}",
        f"# r1_ohm: {d.r1.ohms!r}",
        f"# adc_bits: {d.adc_bits}",
        f"# v_ref: {d.v_ref.volts!r}",
    ]


def _parse_header_block(pairs: dict[str, str], path, line: int) -> SessionHeader:
    try:
        divider = DividerConfig(
            v_in=Voltage(float(pairs.get("v_in", "3.3"))),
            r1=Resistance(float(pairs.get("r1_ohm", "150000.0"))),
            adc_bits=int(pairs.get("adc_bits", "12")),
            v_ref=Voltage(float(pairs["v_ref"])) if "v_ref" in pairs else None,
        )
        return SessionHeader(
            device_id=int(pairs.get("device_id", "1")),
            epoch=pairs.get("epoch", DEFAULT_EPOCH),
            profile_name=pairs.get("profile", "measured"),
            sample_rate_hz=float(pairs.get("sample_rate_hz", "0")),
            divider=divider,
        )
    except (KeyError, ValueError) as exc:
        raise SessionFormatError(f"{path}:{line}: bad header block: {exc}") from exc


def _add_header_pair(pairs: dict[str, str], line: str) -> None:
    key, _, value = line[1:].partition(":")
    pairs[key.strip()] = value.strip()


def _read_column_line(fh, path) -> tuple[dict[str, str], int, int]:
    """Read through the column header line, parsing the ``#`` lines before it.

    Returns the key/value pairs, the number of the last ``#`` line and the
    number of the column line.
    """
    pairs: dict[str, str] = {}
    header_line = 0
    for lineno, raw in enumerate(iter(fh.readline, ""), start=1):
        line = raw.rstrip("\n")
        if line.startswith("#"):
            _add_header_pair(pairs, line)
            header_line = lineno
        elif line:
            if tuple(line.split(",")) != SAMPLE_COLUMNS:
                raise SessionFormatError(
                    f"{path}:{lineno}: expected columns {','.join(SAMPLE_COLUMNS)!r}, got {line!r}"
                )
            return pairs, header_line, lineno
    raise SessionFormatError(f"{path}: missing column header line")


def read_csv(path) -> SessionLog:
    samples: list[PressureSample] = []
    with open(path, "r", encoding="utf-8") as fh:
        pairs, header_line, columns_line = _read_column_line(fh, path)
        for lineno, raw in enumerate(fh, start=columns_line + 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                _add_header_pair(pairs, line)
                header_line = lineno
                continue
            parts = line.split(",")
            if len(parts) != len(SAMPLE_COLUMNS):
                raise SessionFormatError(
                    f"{path}:{lineno}: expected {len(SAMPLE_COLUMNS)} fields, got {len(parts)}"
                )
            try:
                samples.append(PressureSample.from_row(float(parts[0]), map(float, parts[1:])))
            except ValueError as exc:
                raise SessionFormatError(f"{path}:{lineno}: {exc}") from exc
    return SessionLog(header=_parse_header_block(pairs, path, header_line), samples=samples)


def _read_csv_columns(path) -> tuple[SessionHeader, np.ndarray, np.ndarray]:
    """read_csv in one array pass; raises ValueError on anything read_csv
    might read differently or reject."""
    with open(path, "r", encoding="utf-8") as fh:
        pairs, header_line, _ = _read_column_line(fh, path)
        rows = np.empty((0, len(SAMPLE_COLUMNS)))
        for first in iter(fh.readline, ""):
            if first != "\n":  # loadtxt warns on a body of blank lines
                rows = np.loadtxt(chain([first], fh), delimiter=",", comments=None, ndmin=2)
                break
    if rows.shape[1] != len(SAMPLE_COLUMNS):
        raise ValueError(f"expected {len(SAMPLE_COLUMNS)} fields, got {rows.shape[1]}")
    pascals = rows[:, 1:]
    if not (np.isfinite(pascals).all() and (pascals >= 0).all()):
        raise ValueError("pressure must be finite and >= 0")
    return _parse_header_block(pairs, path, header_line), rows[:, 0], pascals


# --- JSONL -------------------------------------------------------------------


def _header_to_json(header: SessionHeader) -> dict:
    d = header.divider
    return {
        "type": "header",
        "device_id": header.device_id,
        "epoch": header.epoch,
        "profile": header.profile_name,
        "sample_rate_hz": header.sample_rate_hz,
        "divider": {
            "v_in": d.v_in.volts,
            "r1_ohm": d.r1.ohms,
            "adc_bits": d.adc_bits,
            "v_ref": d.v_ref.volts,
        },
    }


def _header_from_json(obj: dict) -> SessionHeader:
    d = obj.get("divider", {})
    return SessionHeader(
        device_id=obj["device_id"],
        epoch=obj["epoch"],
        profile_name=obj["profile"],
        sample_rate_hz=obj["sample_rate_hz"],
        divider=DividerConfig(
            v_in=Voltage(d.get("v_in", 3.3)),
            r1=Resistance(d.get("r1_ohm", 150000.0)),
            adc_bits=d.get("adc_bits", 12),
            v_ref=Voltage(d["v_ref"]) if "v_ref" in d else None,
        ),
    )


def _event_to_json(event: GaitEvent) -> dict:
    body = {
        "type": "event",
        "kind": event.kind.value,
        "t_s": event.timestamp,
        "cycle_index": event.cycle_index,
    }
    if event.phase is not None:
        body["phase"] = event.phase.value
    return body


def _event_from_json(obj: dict) -> GaitEvent:
    return GaitEvent(
        kind=GaitEventKind(obj["kind"]),
        timestamp=obj["t_s"],
        cycle_index=obj["cycle_index"],
        phase=GaitPhase(obj["phase"]) if "phase" in obj else None,
    )


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def read_jsonl(path) -> SessionLog:
    header: SessionHeader | None = None
    samples: list[PressureSample] = []
    events: list[GaitEvent] = []
    report: GaitReport | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                kind = obj["type"]
                if kind == "header":
                    header = _header_from_json(obj)
                elif kind == "sample":
                    samples.append(PressureSample.from_row(obj["t_s"], (obj[c] for c in SAMPLE_COLUMNS[1:])))
                elif kind == "event":
                    events.append(_event_from_json(obj))
                elif kind == "report":
                    report = GaitReport.from_json_dict(obj)
                else:
                    raise ValueError(f"unknown record type {kind!r}")
            except (ValueError, KeyError, TypeError, AttributeError) as exc:  # the last two: a mistyped value
                raise SessionFormatError(f"{path}:{lineno}: {exc}") from exc
    if header is None:
        raise SessionFormatError(f"{path}: missing header line")
    return SessionLog(header=header, samples=samples, events=events, report=report)


def _is_jsonl(path) -> bool:
    """Whether a session file is JSON Lines: its first non-blank line starts
    with ``{``. Anything else, an empty file included, reads as CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        first = next((line for line in fh if line.strip()), "")
    return first.lstrip().startswith("{")


def read_session(path) -> SessionLog:
    """Read a session in either format, told apart by the file's content."""
    if _is_jsonl(path):
        return read_jsonl(path)
    return read_csv(path)


def read_columns(path) -> tuple[SessionHeader, np.ndarray, np.ndarray]:
    """Read a session as (header, timestamps, (n, 5) pascals in canonical
    channel order), without building a PressureSample per row.

    The format is told apart by content, as in read_session. CSV parses in
    one array pass. A file that pass cannot take whole is read again by
    read_csv, which either returns the same rows or raises the
    SessionFormatError naming the offending line. JSONL keeps its line parser.
    """
    if _is_jsonl(path):
        log = read_jsonl(path)
    else:
        try:
            return _read_csv_columns(path)
        except ValueError:
            log = read_csv(path)
    return (log.header, *samples_to_columns(log.samples))


BLOCK_LINES = 256


def _write(path, header: SessionHeader, rows, events=(), report: GaitReport | None = None) -> None:
    """Write a session of ``(timestamp, five pascals)`` rows, BLOCK_LINES lines
    at a time, flushing each block; events and the report go to JSONL only."""
    jsonl = str(path).endswith(".jsonl")
    if jsonl:
        head = _json_line(_header_to_json(header))
        lines = (_json_line(dict(zip(SAMPLE_COLUMNS, (t, *row)), type="sample")) for t, row in rows)
    else:
        head = "\n".join([*_header_lines(header), ",".join(SAMPLE_COLUMNS), ""])
        lines = (",".join(map(repr, (t, *row))) + "\n" for t, row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        while block := list(islice(lines, BLOCK_LINES)):
            fh.write("".join(block))
            fh.flush()
        if jsonl:
            fh.writelines(_json_line(_event_to_json(event)) for event in events)
            if report is not None:
                fh.write(_json_line({"type": "report", **report.to_json_dict()}))


def write_session(log: SessionLog, path) -> None:
    """Write a log, in the format its path's extension names."""
    _write(path, log.header, ((s.timestamp, s.as_row()) for s in log.samples), log.events, log.report)


def write_columns(header: SessionHeader, times: np.ndarray, pascals: np.ndarray, path) -> None:
    """Write the columns read_columns returns, as write_session writes the same rows."""
    _write(path, header, zip(times.tolist(), pascals.tolist()))


# --- legacy single-channel bench recordings ----------------------------------


@dataclass(frozen=True)
class LegacyRecord:
    time_s: float
    pressure_pa: float
    resistance_ohm: float


def read_legacy_csv(path) -> list[LegacyRecord]:
    """Read the single-channel ``time_s,pressure_pa,resistance_ohm`` layout."""
    records: list[LegacyRecord] = []
    saw_header = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if not saw_header:
                if tuple(line.split(",")) != LEGACY_COLUMNS:
                    raise SessionFormatError(
                        f"{path}:{lineno}: expected columns {','.join(LEGACY_COLUMNS)!r}, got {line!r}"
                    )
                saw_header = True
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise SessionFormatError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
            try:
                records.append(LegacyRecord(float(parts[0]), float(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise SessionFormatError(f"{path}:{lineno}: {exc}") from exc
    if not saw_header:
        raise SessionFormatError(f"{path}: missing column header line")
    return records


def sniff_kind(path) -> str:
    """Classify a file as 'session', 'session_jsonl', 'legacy' or 'calibration'."""
    text = Path(path).open("r", encoding="utf-8")
    with text as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("{"):
                return "session_jsonl"
            if line.startswith("#"):
                continue
            columns = tuple(line.split(","))
            if columns == SAMPLE_COLUMNS:
                return "session"
            if columns == LEGACY_COLUMNS:
                return "legacy"
            if columns == ("pressure_pa", "resistance_ohm"):
                return "calibration"
            break
    raise SessionFormatError(f"{path}: unrecognized file layout")
