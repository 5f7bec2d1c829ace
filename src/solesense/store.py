"""Persist and replay sessions: decoded samples, gait events, reports.

Two formats carry the same sample sequence:

* CSV for spreadsheet interop -- a ``#``-prefixed key/value header block,
  then ``t_s,forefoot_pa,midfoot_medial_pa,midfoot_central_pa,
  midfoot_lateral_pa,heel_pa``. Events and reports are not representable
  here.
* JSON Lines for the full typed log -- first line a header object, then one
  object per sample, event, and (optionally) the final report.

The session header is described once, in one table of its eight fields
(_HEADER_FIELDS, four of the session, then four of the divider) that both
writers and both readers go through; SessionHeader and DividerConfig check
the values, and a divider field left out takes DividerConfig's default.

One writer, write_columns, takes timestamps and (n, 5) pascals, refuses any
that no reader takes back (_check_columns, the array readers' check too) and
writes them in blocks; write_session turns its log's samples into such
columns. It has one sample-line builder per format. Both call repr once per
distinct bit pattern in a block (_cells), and look the strings up: the CSV
one for the pressures, which repeat, and the JSONL one for every value,
which it fills into one fixed line, the bytes json.dumps writes with its keys
sorted. The CSV one writes a row whose five pressures are all +0.0 (told
apart by bits, so a -0.0 is not one) as one constant text and looks up only
the other rows' cells: in a simulated session those are the swing rows and
the stance rows in which every sensor reads 0 Pa, about 71% of the rows of
the benchmark's 10-cycle, 2 kPa noise session. Writing goes by extension
(``.jsonl``, else CSV), reading by content, so a file reads whatever it is
named.

The report object's field names are fixed: ``cycles``, ``cadence_spm``,
``stance_fraction_mean``, ``stance_fraction_std``, ``peak_pressure_pa``
(keyed ``forefoot``/``midfoot``/``heel``), ``phase_mean_durations_s`` (keyed
by phase name) and ``sequence_violations``.

Floats are serialized in shortest round-trip form, so read(write(x)) is
exact. Samples are written in blocks of whole lines, each block written and
flushed whole, so the file grows by whole records and a concurrent reader of
a growing file never sees a torn one.

One reader, _read, reads every file: it opens it once, tells its kind by
its first line (JSON Lines if that starts with ``{``, else the CSV layout
its column line names) and parses the rest on that handle; an input that
cannot seek, a pipe, is read into memory once. A session goes through its
format's array pass, with no Python step per line: a CSV body by numpy's C
reader, given the path, or the open handle where numpy cannot open the file
again by its name; a JSONL file in one pass, BLOCK_LINES lines per
json.loads, its samples typed a block at a time. Both are validated at once
(six fields, JSON numbers in JSONL, every timestamp finite, every pressure
finite and >= 0). What the array pass refuses, a CSV body or one JSONL
block, goes through the format's line path, which checks each row by
_session_row, so the columns always equal the line path's rows and a
malformed file raises the same ``path:line`` error. The JSONL reader types
every field of every record by one rule set (_number, _integer, _number_map).

Every CSV table is read by one grammar, its rows by one loop, _rows:
``#`` lines hold ``key: value`` pairs, on either side of the column line
(only the session header uses them); empty lines are skipped, and so are
lines of spaces before the column line; the first other line is the column
line, whose cells, spaces stripped, must name the table's layout; every
later line holds one float per column. Anything else raises an error naming
``path:line``. The four tables are the session CSV above and three
read-only ones: legacy single-channel bench recordings
(``time_s,pressure_pa,resistance_ohm``), calibration sweeps
(``pressure_pa,resistance_ohm``) and comparison stimuli
(``time_s,sensor_pa,fsr_pa`` or ``time_s,pressure_pa``).
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, count, islice
from operator import itemgetter
from typing import Iterator

import numpy as np

from .acquisition import DividerConfig
from .analysis import GaitEvent, GaitEventKind, GaitReport
from .sensor import CalibrationError, CalibrationPoint
from .telemetry import SessionHeader
from .units import (
    CHANNEL_ORDER,
    FootRegion,
    GaitPhase,
    Pressure,
    PressureSample,
    Resistance,
    Voltage,
    samples_to_columns,
)

SAMPLE_COLUMNS = ("t_s",) + tuple(f"{c.value}_pa" for c in CHANNEL_ORDER)
LEGACY_COLUMNS = ("time_s", "pressure_pa", "resistance_ohm")
CALIBRATION_HEADER = ("pressure_pa", "resistance_ohm")
STIMULUS_LAYOUTS = (("time_s", "sensor_pa", "fsr_pa"), ("time_s", "pressure_pa"))

DEFAULT_EPOCH = "1970-01-01T00:00:00Z"

# the rows the writers write, and the lines the JSONL array pass parses, at a time
BLOCK_LINES = 256


class SessionFormatError(ValueError):
    """Parse failure; message carries the file path and line number."""


@dataclass
class SessionLog:
    header: SessionHeader
    samples: list[PressureSample] = field(default_factory=list)
    events: list[GaitEvent] = field(default_factory=list)
    report: GaitReport | None = None


# --- the session header ------------------------------------------------------

# The header's fields in file order, each with the converter that reads its
# CSV text: four of the session, then four of the divider.
_HEADER_FIELDS = {"device_id": int, "epoch": str, "profile": str, "sample_rate_hz": float,
                  "v_in": float, "r1_ohm": float, "adc_bits": int, "v_ref": float}
_SESSION_FIELDS = tuple(_HEADER_FIELDS)[:4]
# What a CSV header reads for a session field it leaves out.
_CSV_DEFAULTS = {"device_id": 1, "epoch": DEFAULT_EPOCH, "profile": "measured", "sample_rate_hz": 0.0}


def _header_fields(header: SessionHeader) -> dict:
    """A header's fields, keyed and ordered as _HEADER_FIELDS."""
    d = header.divider
    values = (header.device_id, header.epoch, header.profile_name, header.sample_rate_hz,
              d.v_in.volts, d.r1.ohms, d.adc_bits, d.v_ref.volts)
    return dict(zip(_HEADER_FIELDS, values))


def _header_from_fields(fields: dict) -> SessionHeader:
    """The header of ``fields``, keyed as _HEADER_FIELDS: each session field
    must be there (KeyError), and a divider field left out takes
    DividerConfig's own default."""
    default = DividerConfig()
    divider = DividerConfig(
        Voltage(fields["v_in"]) if "v_in" in fields else default.v_in,
        Resistance(fields["r1_ohm"]) if "r1_ohm" in fields else default.r1,
        fields.get("adc_bits", default.adc_bits),
        Voltage(fields["v_ref"]) if "v_ref" in fields else None,
    )
    return SessionHeader(*(fields[name] for name in _SESSION_FIELDS), divider)


# --- CSV ---------------------------------------------------------------------


def _parse_header_block(pairs: dict[str, str], path, line: int) -> SessionHeader:
    try:
        given = {name: convert(pairs[name]) for name, convert in _HEADER_FIELDS.items() if name in pairs}
        return _header_from_fields({**_CSV_DEFAULTS, **given})
    except ValueError as exc:
        raise SessionFormatError(f"{path}:{line}: bad header block: {exc}") from exc


def _add_header_pair(pairs: dict[str, str], line: str) -> None:
    key, _, value = line[1:].partition(":")
    pairs[key.strip()] = value.strip()


def _first_line(fh, pairs: dict[str, str]) -> tuple[int, int, str]:
    """Read through a file's first line that is neither blank nor ``#``: a
    table's column line, or a JSONL file's first record. Returns the number of
    the last ``#`` line before it (0 if none), its own number and its text,
    stripped ("" at the end of the file); the ``#`` lines go into ``pairs``."""
    pairs_line = lineno = 0
    for lineno, raw in enumerate(iter(fh.readline, ""), start=1):
        if raw.startswith("#"):
            _add_header_pair(pairs, raw)
            pairs_line = lineno
        elif raw.strip():
            return pairs_line, lineno, raw.strip()
    return pairs_line, lineno, ""


def _layout(path, lineno: int, line: str, layouts, error) -> tuple[str, ...]:
    """The layout a column line (see _first_line) names: one of ``layouts``,
    with its cells' spaces stripped."""
    if not line:
        raise error(f"{path}:{lineno + 1}: missing column header line")
    columns = tuple(cell.strip() for cell in line.split(","))
    if columns not in layouts:
        expected = " or ".join(repr(",".join(layout)) for layout in layouts)
        raise error(f"{path}:{lineno}: expected header {expected}, got {line!r}")
    return columns


def _rows(path, lines, columns_line: int, columns, record, pairs: dict[str, str], pairs_line: int, error):
    """The rows ``record(*floats)`` builds from the ``lines`` after a CSV
    table's column line, line ``columns_line``, and the number of the last
    ``#`` line, whose pair goes into ``pairs``; a break raises ``error``."""
    rows = []
    for lineno, raw in enumerate(lines, start=columns_line + 1):
        line = raw.rstrip("\n")
        if line.startswith("#"):
            _add_header_pair(pairs, line)
            pairs_line = lineno
        elif line:
            fields = line.split(",")
            if len(fields) != len(columns):
                raise error(f"{path}:{lineno}: expected {len(columns)} fields, got {len(fields)}")
            try:
                rows.append(record(*map(float, fields)))
            except ValueError as exc:
                raise error(f"{path}:{lineno}: {exc}") from exc
    return rows, pairs_line


def _session_row(t: float, *pascals: float) -> tuple[float, ...]:
    """A session row, checked: a finite timestamp, pressures finite and >= 0."""
    if not math.isfinite(t):
        raise ValueError(f"timestamp must be finite, got {t!r}")
    for p in pascals:
        Pressure(p)
    return (t, *pascals)


def _check_columns(times: np.ndarray, pascals: np.ndarray) -> None:
    """Raise ValueError unless a reader takes the columns back: (n,) finite
    timestamps and (n, 5) pressures, each finite and >= 0."""
    if times.ndim != 1 or pascals.shape != (len(times), len(CHANNEL_ORDER)):
        raise ValueError(f"expected (n,) timestamps and (n, 5) pascals, got {times.shape} and {pascals.shape}")
    if not np.isfinite(times).all():
        raise ValueError("timestamp must be finite")
    if not (np.isfinite(pascals).all() and (pascals >= 0).all()):
        raise ValueError("pressure must be finite and >= 0")


def _checked_columns(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The timestamps and pascals of (n, 6) sample rows, as _check_columns
    takes them. Each is a contiguous copy: the checks, and a fold after them,
    run several times faster over it than over a view of the rows."""
    times, pascals = rows[:, 0].copy(), np.ascontiguousarray(rows[:, 1:])
    _check_columns(times, pascals)
    return times, pascals


# What a bad record or row raises, which a line path names by its line and an
# array pass takes as a refusal: TypeError and AttributeError for a mistyped
# value, OverflowError for an integer too large for a float
_BAD_RECORD = (ValueError, KeyError, TypeError, AttributeError, OverflowError)

# the suffixes by which numpy opens a path through a decompressor
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _csv_array_pass(path, fh, body, by_name: bool, pairs: dict[str, str], header_line: int, columns_line: int):
    """A CSV session's log and columns, ``fh`` read through its column line,
    which ends at ``body``; raises one of _BAD_RECORD on anything the line
    path might read differently or reject.

    loadtxt reads the body ``by_name`` where numpy can open the file again,
    skipping the lines through the column line: given a str path and no
    comment character, its C reader pulls the file in chunks, where a file
    object costs a Python call per line. The path is made absolute so that
    numpy never takes it for a URL. Otherwise (a pipe, read into memory, or
    a name numpy would open through a decompressor) it reads ``fh``."""
    if not any(line != "\n" for line in fh):  # loadtxt warns on a body of blank lines
        rows = np.empty((0, len(SAMPLE_COLUMNS)))
    else:
        fh.seek(body)
        source, skip = (os.path.abspath(path), columns_line) if by_name else (fh, 0)
        rows = np.loadtxt(source, delimiter=",", comments=None, ndmin=2, skiprows=skip, encoding="utf-8")
    return SessionLog(_parse_header_block(pairs, path, header_line)), *_checked_columns(rows)


# --- JSONL -------------------------------------------------------------------


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


# what json.loads makes of a JSON number; bool, a subclass of int, is not one
_JSON_NUMBERS = frozenset((int, float))


# The typing rules of every record's fields, each called as rule(name, value):
# a number field takes a JSON number and reads it as a float, a count a JSON
# integer, a map a JSON object of numbers keyed by an enum's values.
def _json_typed(name: str, value, types, what: str):
    if type(value) not in types:
        raise TypeError(f"{name} must be a JSON {what}, got {type(value).__name__} {value!r}")
    return value


def _number(name: str, value) -> float:
    return float(_json_typed(name, value, _JSON_NUMBERS, "number"))


def _integer(name: str, value) -> int:
    return _json_typed(name, value, (int,), "integer")


def _number_map(keys, name: str, value) -> dict:
    numbers = _json_typed(name, value, (dict,), "object")
    return {keys(key): _number(f"{name}.{key}", number) for key, number in numbers.items()}


def _event_from_json(obj: dict) -> GaitEvent:
    return GaitEvent(
        GaitEventKind(obj["kind"]),
        _number("t_s", obj["t_s"]),
        _integer("cycle_index", obj["cycle_index"]),
        GaitPhase(obj["phase"]) if "phase" in obj else None,
    )


_REPORT_FIELDS = {
    "cycles": _integer,
    "cadence_spm": _number,
    "stance_fraction_mean": _number,
    "stance_fraction_std": _number,
    "peak_pressure_pa": partial(_number_map, FootRegion),
    "phase_mean_durations_s": partial(_number_map, GaitPhase),
    "sequence_violations": _integer,
}


def _report_from_json(obj: dict) -> GaitReport:
    return GaitReport(**{name: rule(name, obj[name]) for name, rule in _REPORT_FIELDS.items()})


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _read_record(obj: dict, log: SessionLog) -> None:
    """Fold one JSON Lines record other than a sample into ``log``; a bad one
    raises one of _BAD_RECORD."""
    kind = obj["type"]
    if kind == "header":
        # the divider's keys, then the session's, which must all be there
        fields = {**obj.get("divider", {}), **{name: obj[name] for name in _SESSION_FIELDS}}
        # adc_bits is left to DividerConfig, whose message says it must be an integer
        fields.update({name: _number(name, fields[name]) for name in ("v_in", "r1_ohm", "v_ref") if name in fields})
        log.header = _header_from_fields(fields)
    elif kind == "event":
        log.events.append(_event_from_json(obj))
    elif kind == "report":
        log.report = _report_from_json(obj)
    else:
        raise ValueError(f"unknown record type {kind!r}")


_TYPE = itemgetter("type")
_SAMPLE_VALUES = itemgetter(*SAMPLE_COLUMNS)


def _jsonl_array_pass(lines: list[str], log: SessionLog) -> np.ndarray:
    """The (n, 6) sample rows of a block of JSON Lines, by one json.loads;
    raises one of _BAD_RECORD on anything the line path might read
    differently or reject, before it folds the other records into ``log``.

    The block's non-blank lines, stripped, are parsed as one JSON array of
    them joined by commas. A block that holds a ``[``, or a line after its
    first that starts with ``"``, is refused: then no joining comma can fall
    inside a value (an array would take it, an object would need a key after
    it), so the array has one record per line only if each line holds exactly
    one JSON value, as the line path requires. The samples are typed by
    _number's rule and checked by _check_columns at once; if a record that
    _read_record folds raises, the line path raises on it too."""
    lines = list(filter(None, map(str.strip, lines)))
    text = ",\n".join(lines)
    if "[" in text or '\n"' in text:
        raise ValueError("a block whose lines the array pass cannot tell apart")
    records = json.loads(f"[{text}]")
    if len(records) != len(lines):
        raise ValueError("a line that holds other than one JSON value")
    kinds = list(map(_TYPE, records))
    others = [] if kinds.count("sample") == len(records) else [obj for obj, k in zip(records, kinds) if k != "sample"]
    if others:
        records = [obj for obj, kind in zip(records, kinds) if kind == "sample"]
    values = list(map(_SAMPLE_VALUES, records))
    if not set(map(type, chain.from_iterable(values))) <= _JSON_NUMBERS:
        raise TypeError("a sample value that is no JSON number")
    rows = np.array(values, dtype=float).reshape(-1, len(SAMPLE_COLUMNS))
    _check_columns(rows[:, 0], rows[:, 1:])
    for obj in others:
        _read_record(obj, log)
    return rows


def _jsonl_lines(path, lines: list[str], first: int, log: SessionLog) -> list[tuple[float, ...]]:
    """The line path on a JSONL block numbered from line ``first``: its rows,
    the other records folded into ``log``; a bad record names its line."""
    rows = []
    for lineno, raw in enumerate(lines, start=first):
        line = raw.strip()
        if line:
            try:
                obj = json.loads(line)
                if obj["type"] == "sample":
                    rows.append(_session_row(*map(_number, SAMPLE_COLUMNS, _SAMPLE_VALUES(obj))))
                else:
                    _read_record(obj, log)
            except _BAD_RECORD as exc:
                raise SessionFormatError(f"{path}:{lineno}: {exc}") from exc
    return rows


def _jsonl(path, fh) -> tuple[SessionLog, np.ndarray, np.ndarray]:
    """A JSON Lines session's log and columns, in one pass over ``fh``: each
    block of BLOCK_LINES lines by the array pass, or the line path if refused."""
    log, blocks = SessionLog(header=None), []
    for first, lines in zip(count(1, BLOCK_LINES), iter(lambda: list(islice(fh, BLOCK_LINES)), [])):
        try:
            blocks.append(_jsonl_array_pass(lines, log))
        except _BAD_RECORD:
            blocks.append(np.reshape(_jsonl_lines(path, lines, first, log), (-1, len(SAMPLE_COLUMNS))))
    if log.header is None:
        raise SessionFormatError(f"{path}: missing header line")
    return log, *_checked_columns(np.concatenate(blocks))


# --- either format -------------------------------------------------------------


def _read(path, records: dict, error=SessionFormatError) -> tuple[tuple[str, ...] | None, object]:
    """Read a table file (see the module docstring) whose layout is one of
    ``records``'s keys, or JSON Lines if they hold the session's. Returns the
    layout (None for JSON Lines) and a session's log (no samples) and
    columns, or the rows ``records[layout]`` builds (not read where that is
    None). A break raises ``error``, a session's SessionFormatError."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        by_name = fh.seekable() and os.path.splitext(path)[1] not in _COMPRESSED_SUFFIXES
        if not fh.seekable():  # a pipe: read it once
            fh = io.StringIO(fh.read())
        pairs: dict[str, str] = {}
        header_line, columns_line, line = _first_line(fh, pairs)
        if line.startswith("{") and SAMPLE_COLUMNS in records:
            fh.seek(0)
            return None, _jsonl(path, fh)
        columns = _layout(path, columns_line, line, records, error)
        if records[columns] is None:
            return columns, None
        if columns == SAMPLE_COLUMNS:
            body = fh.tell()
            try:
                return columns, _csv_array_pass(path, fh, body, by_name, pairs, header_line, columns_line)
            except _BAD_RECORD:  # the line path, from the body again
                fh.seek(body)
        rows, header_line = _rows(path, fh, columns_line, columns, records[columns], pairs, header_line, error)
        if columns != SAMPLE_COLUMNS:
            return columns, rows
        log = SessionLog(_parse_header_block(pairs, path, header_line))
    return columns, (log, *_checked_columns(np.reshape(rows, (-1, len(SAMPLE_COLUMNS)))))


def read_session(path) -> SessionLog:
    """Read a session in either format, told apart by content: the columns
    read_columns reads, as samples, and a JSONL file's events and report."""
    log, times, pascals = _read(path, {SAMPLE_COLUMNS: _session_row})[1]
    log.samples = PressureSample._of_rows(times.tolist(), map(tuple, pascals.tolist()))
    return log


def read_columns(path) -> tuple[SessionHeader, np.ndarray, np.ndarray]:
    """Read a session in either format as (header, timestamps, (n, 5) pascals
    in canonical channel order), without building a PressureSample per row."""
    log, times, pascals = _read(path, {SAMPLE_COLUMNS: _session_row})[1]
    return log.header, times, pascals


def _cells(block: np.ndarray) -> Iterator[str]:
    """repr of each value of a float block, row by row. The pressures repeat
    (256 rows of a simulated session hold about 60 distinct ones in 1,280),
    so repr runs once per distinct value, told apart by bit pattern so that
    -0.0 is not 0.0, and the cells look its strings up. A dict finds the
    distinct values, not np.unique: its first call maps about 0.6 MiB of sort
    code into the process."""
    bits = block.view(np.int64).ravel().tolist()
    distinct = list(dict.fromkeys(bits))
    text = dict(zip(distinct, map(repr, np.array(distinct, dtype=np.int64).view(float).tolist())))
    return map(text.__getitem__, bits)


# the pressures of a row whose five values are all +0.0: a swing row, or a
# stance row whose every sensor reads 0 Pa
_ZERO_ROW = ",".join([repr(0.0)] * len(CHANNEL_ORDER))


def _csv_block(times: np.ndarray, pascals: np.ndarray) -> str:
    """The CSV lines of a block of rows. A row of five +0.0, told apart by
    its bits so that a -0.0 goes through _cells, is the one constant text
    _ZERO_ROW; only the other rows' cells are looked up."""
    loaded = pascals.view(np.int64).any(axis=1)
    cells = _cells(pascals[loaded])
    rows = map(",".join, zip(*[cells] * pascals.shape[1]))  # one loaded row's cells at a time
    return "".join([f"{t!r},{next(rows) if load else _ZERO_ROW}\n" for t, load in zip(times.tolist(), loaded.tolist())])


# the order of SAMPLE_COLUMNS that _jsonl_block's line takes the values in: its keys', sorted
_JSONL_ORDER = [SAMPLE_COLUMNS.index(name) for name in sorted(SAMPLE_COLUMNS)]


def _jsonl_block(times: np.ndarray, pascals: np.ndarray) -> str:
    """The JSON Lines sample records of a block of rows, as _json_line writes
    them (keys sorted, and json.dumps of a finite float is its repr), from
    one fixed line."""
    cells = _cells(np.column_stack((times, pascals))[:, _JSONL_ORDER])
    return "".join([
        f'{{"forefoot_pa": {fore}, "heel_pa": {heel}, "midfoot_central_pa": {central}, '
        f'"midfoot_lateral_pa": {lateral}, "midfoot_medial_pa": {medial}, "t_s": {t}, "type": "sample"}}\n'
        for fore, heel, central, lateral, medial, t in zip(*[cells] * len(SAMPLE_COLUMNS))
    ])


def write_columns(header: SessionHeader, times, pascals, path, events=(), report: GaitReport | None = None) -> None:
    """Write a session's columns in the format its path's extension names,
    BLOCK_LINES rows at a time, each block flushed; events and the report go
    to JSONL only. Columns no reader takes raise ValueError before the file
    is opened."""
    times = np.asarray(times, dtype=float)
    pascals = np.ascontiguousarray(pascals, dtype=float)
    _check_columns(times, pascals)
    jsonl = str(path).endswith(".jsonl")
    fields = _header_fields(header)
    if jsonl:
        session = {name: fields.pop(name) for name in _SESSION_FIELDS}
        head, lines = _json_line({"type": "header", **session, "divider": fields}), _jsonl_block
    else:  # str(float) is repr(float), the shortest round-trip form
        head = "".join([f"# {name}: {value}\n" for name, value in fields.items()]) + ",".join(SAMPLE_COLUMNS) + "\n"
        lines = _csv_block
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        for k in range(0, len(times), BLOCK_LINES):
            fh.write(lines(times[k : k + BLOCK_LINES], pascals[k : k + BLOCK_LINES]))
            fh.flush()
        if jsonl:
            fh.writelines(_json_line(_event_to_json(event)) for event in events)
            if report is not None:
                fh.write(_json_line({"type": "report", **report.to_json_dict()}))


def write_session(log: SessionLog, path) -> None:
    """Write a log, in the format its path's extension names."""
    write_columns(log.header, *samples_to_columns(log.samples), path, log.events, log.report)


# --- the other tables: legacy bench recordings, calibration sweeps, stimuli ----


@dataclass(frozen=True, slots=True)
class LegacyRecord:
    time_s: float
    pressure_pa: float
    resistance_ohm: float


def read_calibration_csv(path) -> list[CalibrationPoint]:
    """Read ``pressure_pa,resistance_ohm`` rows; open circuit is not
    representable here (the profile's onset pressure covers it)."""
    return _read(path, {CALIBRATION_HEADER: CalibrationPoint}, CalibrationError)[1]


def _stimulus_rows():
    """A stimulus row builder that checks each row as the sensor model reads
    it: a finite time, not below the row before's, and pressures finite and
    >= 0."""
    last = -math.inf

    def row(t: float, *pascals: float) -> tuple[float, ...]:
        nonlocal last
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got {t!r}")
        if t < last:
            raise ValueError(f"time went backwards, from {last!r} to {t!r}")
        for p in pascals:
            Pressure(p)
        last = t
        return (t, *pascals)

    return row


def read_stimulus_csv(path) -> tuple[list[float], list[list[float]]]:
    """Read a comparison stimulus: its times and [sensor_series, fsr_series],
    each device's own (``time_s,sensor_pa,fsr_pa``) or one column for both
    (``time_s,pressure_pa``). Times may repeat but never fall; no rows at all
    is an error that names the file."""
    rows = _read(path, dict.fromkeys(STIMULUS_LAYOUTS, _stimulus_rows()))[1]
    if not rows:
        raise SessionFormatError(f"{path}: empty time base: a comparison needs at least one stimulus row")
    times, *series = map(list, zip(*rows))
    return times, series if len(series) == 2 else series * 2


# each layout read_any takes, and the record of its rows: a stimulus's are not read
_RECORDS = {SAMPLE_COLUMNS: _session_row, LEGACY_COLUMNS: LegacyRecord, CALIBRATION_HEADER: CalibrationPoint,
            **dict.fromkeys(STIMULUS_LAYOUTS)}
_KINDS = {None: "session_jsonl", SAMPLE_COLUMNS: "session", LEGACY_COLUMNS: "legacy", CALIBRATION_HEADER: "calibration"}
_KINDS.update(dict.fromkeys(STIMULUS_LAYOUTS, "stimulus"))


def read_any(path) -> tuple[str, object]:
    """A file of any kind and what it holds: 'session_jsonl' or 'session'
    with its log (no samples) and columns, 'legacy' with its LegacyRecords,
    'calibration' with its CalibrationPoints, or 'stimulus' with None
    (read_stimulus_csv reads it). Any break raises SessionFormatError."""
    columns, content = _read(path, _RECORDS)
    return _KINDS[columns], content
