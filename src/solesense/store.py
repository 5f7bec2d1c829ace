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
that no reader takes back (_check_columns, the array reader's check too) and
writes them in blocks; write_session turns its log's samples into such
columns. It has one sample-line builder per format; the CSV one calls repr
once per distinct bit pattern in a block's pressures, which repeat, and looks
the strings up. Writing goes by extension (``.jsonl``, else CSV), reading by
content, so a file reads whatever it is named.

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
(six fields, every timestamp finite, every pressure finite and >= 0). A file
that pass cannot take whole goes back through read_csv, so the columns always
equal read_csv's samples and a malformed file raises the same ``path:line``
error. Both line readers refuse a non-finite timestamp at its line.

One line reader, _read_table, reads every CSV table, with one grammar:
``#`` lines hold ``key: value`` pairs, on either side of the column line
(only the session header uses them); empty lines are skipped, and so are
lines of spaces before the column line; the first other line is the column
line, whose cells, spaces stripped, must name the table's layout; every
later line holds one float per column. Anything else raises an error naming
``path:line``. The four tables are the session CSV above and three
read-only ones: legacy single-channel bench recordings
(``time_s,pressure_pa,resistance_ohm``), calibration sweeps
(``pressure_pa,resistance_ohm``) and comparison stimuli
(``time_s,sensor_pa,fsr_pa`` or ``time_s,pressure_pa``). sniff_kind, and
the test for JSON Lines, find a file's first line as the readers do.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .acquisition import DividerConfig
from .analysis import GaitEvent, GaitEventKind, GaitReport
from .sensor import CalibrationError, CalibrationPoint
from .telemetry import SessionHeader
from .units import CHANNEL_ORDER, GaitPhase, Pressure, PressureSample, Resistance, Voltage, samples_to_columns

SAMPLE_COLUMNS = ("t_s",) + tuple(f"{c.value}_pa" for c in CHANNEL_ORDER)
LEGACY_COLUMNS = ("time_s", "pressure_pa", "resistance_ohm")
CALIBRATION_HEADER = ("pressure_pa", "resistance_ohm")
STIMULUS_LAYOUTS = (("time_s", "sensor_pa", "fsr_pa"), ("time_s", "pressure_pa"))

DEFAULT_EPOCH = "1970-01-01T00:00:00Z"


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


def _read_column_line(fh, path, layouts=(SAMPLE_COLUMNS,), error=SessionFormatError):
    """Read through a table's column line, which must name one of ``layouts``
    with its cells' spaces stripped. Returns the ``#`` pairs before it, the
    number of the last of them, the column line's number and its layout."""
    pairs: dict[str, str] = {}
    pairs_line, lineno, line = _first_line(fh, pairs)
    if not line:
        raise error(f"{path}:{lineno + 1}: missing column header line")
    columns = tuple(cell.strip() for cell in line.split(","))
    if columns not in layouts:
        expected = " or ".join(repr(",".join(layout)) for layout in layouts)
        raise error(f"{path}:{lineno}: expected header {expected}, got {line!r}")
    return pairs, pairs_line, lineno, columns


def _read_table(path, layouts, record, error=SessionFormatError):
    """Read a CSV table (see the module docstring): ``record(*floats)`` builds
    each row. Returns the layout, the rows, the ``#`` pairs and the number of
    the last ``#`` line; a break raises ``error("path:line: ...")``."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        pairs, pairs_line, columns_line, columns = _read_column_line(fh, path, layouts, error)
        for lineno, raw in enumerate(fh, start=columns_line + 1):
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
    return columns, rows, pairs, pairs_line


def _session_sample(t, *row) -> PressureSample:
    """PressureSample.from_row for a session file, whose timestamps must also be finite."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"timestamp must be finite, got {t!r}")
    return PressureSample.from_row(t, row)


def _check_columns(times: np.ndarray, pascals: np.ndarray) -> None:
    """Raise ValueError unless a reader takes the columns back: (n,) finite
    timestamps and (n, 5) pressures, each finite and >= 0."""
    if times.ndim != 1 or pascals.shape != (len(times), len(CHANNEL_ORDER)):
        raise ValueError(f"expected (n,) timestamps and (n, 5) pascals, got {times.shape} and {pascals.shape}")
    if not np.isfinite(times).all():
        raise ValueError("timestamp must be finite")
    if not (np.isfinite(pascals).all() and (pascals >= 0).all()):
        raise ValueError("pressure must be finite and >= 0")


def read_csv(path) -> SessionLog:
    _, samples, pairs, line = _read_table(path, (SAMPLE_COLUMNS,), _session_sample)
    return SessionLog(header=_parse_header_block(pairs, path, line), samples=samples)


def _read_csv_columns(path) -> tuple[SessionHeader, np.ndarray, np.ndarray]:
    """read_csv in one array pass; raises ValueError on anything read_csv
    might read differently or reject."""
    with open(path, "r", encoding="utf-8") as fh:
        pairs, header_line, *_ = _read_column_line(fh, path)
        rows = np.empty((0, len(SAMPLE_COLUMNS)))
        for first in iter(fh.readline, ""):
            if first != "\n":  # loadtxt warns on a body of blank lines
                rows = np.loadtxt(chain([first], fh), delimiter=",", comments=None, ndmin=2)
                break
    times, pascals = rows[:, 0], rows[:, 1:]
    _check_columns(times, pascals)
    return _parse_header_block(pairs, path, header_line), times, pascals


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


def _event_from_json(obj: dict) -> GaitEvent:
    return GaitEvent(
        kind=GaitEventKind(obj["kind"]),
        timestamp=obj["t_s"],
        cycle_index=obj["cycle_index"],
        phase=GaitPhase(obj["phase"]) if "phase" in obj else None,
    )


# what json.loads makes of a JSON number; bool, a subclass of int, is not one
_JSON_NUMBERS = frozenset((int, float))


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
                    # the divider's keys, then the session's, which must all be there
                    fields = {**obj.get("divider", {}), **{name: obj[name] for name in _SESSION_FIELDS}}
                    header = _header_from_fields(fields)
                elif kind == "sample":
                    values = [obj[c] for c in SAMPLE_COLUMNS]
                    for name, value in zip(SAMPLE_COLUMNS, values):
                        if type(value) not in _JSON_NUMBERS:  # a string, a bool, null, ...
                            raise TypeError(f"{name} must be a JSON number, got {type(value).__name__} {value!r}")
                    samples.append(_session_sample(*values))
                elif kind == "event":
                    events.append(_event_from_json(obj))
                elif kind == "report":
                    report = GaitReport.from_json_dict(obj)
                else:
                    raise ValueError(f"unknown record type {kind!r}")
            # TypeError and AttributeError: a mistyped value; OverflowError: an
            # integer too large for a float
            except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
                raise SessionFormatError(f"{path}:{lineno}: {exc}") from exc
    if header is None:
        raise SessionFormatError(f"{path}: missing header line")
    return SessionLog(header=header, samples=samples, events=events, report=report)


def _is_jsonl(path) -> bool:
    """Whether a session file is JSON Lines: its first line (see _first_line)
    starts with ``{``. Anything else, an empty file included, reads as CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        return _first_line(fh, {})[2].startswith("{")


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


def _csv_block(times: np.ndarray, pascals: np.ndarray) -> str:
    """The CSV lines of a block of rows. The pressures repeat (256 rows of a
    simulated session hold about 60 distinct ones in 1,280), so repr runs
    once per distinct value, told apart by bit pattern so that -0.0 is not
    0.0, and the cells look its strings up. A dict finds the distinct values,
    not np.unique: its first call maps about 0.6 MiB of sort code into the
    process."""
    bits = pascals.view(np.int64).ravel().tolist()
    distinct = list(dict.fromkeys(bits))
    text = dict(zip(distinct, map(repr, np.array(distinct, dtype=np.int64).view(float).tolist())))
    cells = map(text.__getitem__, bits)
    rows = map(",".join, zip(*[cells] * pascals.shape[1]))  # one row's cells at a time
    return "".join([f"{t!r},{row}\n" for t, row in zip(times.tolist(), rows)])


def _jsonl_block(times: np.ndarray, pascals: np.ndarray) -> str:
    """The JSON Lines sample records of a block of rows."""
    rows = zip(times.tolist(), pascals.tolist())
    return "".join([_json_line(dict(zip(SAMPLE_COLUMNS, (t, *row)), type="sample")) for t, row in rows])


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


@dataclass(frozen=True)
class LegacyRecord:
    time_s: float
    pressure_pa: float
    resistance_ohm: float


def read_legacy_csv(path) -> list[LegacyRecord]:
    """Read the single-channel ``time_s,pressure_pa,resistance_ohm`` layout."""
    return _read_table(path, (LEGACY_COLUMNS,), LegacyRecord)[1]


def read_calibration_csv(path) -> list[CalibrationPoint]:
    """Read ``pressure_pa,resistance_ohm`` rows; open circuit is not
    representable here (the profile's onset pressure covers it)."""
    return _read_table(path, (CALIBRATION_HEADER,), CalibrationPoint, CalibrationError)[1]


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


def read_stimulus_csv(path) -> tuple[list[float], list[list[float]] | list[float]]:
    """Read a comparison stimulus: its times, and one pressure series per
    device (``time_s,sensor_pa,fsr_pa``) or one for both (``time_s,pressure_pa``).
    Times may repeat but never fall."""
    columns, rows, _, _ = _read_table(path, STIMULUS_LAYOUTS, _stimulus_rows())
    times, *series = ([row[k] for row in rows] for k in range(len(columns)))
    return times, series if len(series) > 1 else series[0]


_KINDS = {SAMPLE_COLUMNS: "session", LEGACY_COLUMNS: "legacy", CALIBRATION_HEADER: "calibration"}
_KINDS.update(dict.fromkeys(STIMULUS_LAYOUTS, "stimulus"))


def sniff_kind(path) -> str:
    """Classify a file as 'session_jsonl', or by the layout its column line
    names, read as the readers read it: 'session', 'legacy', 'calibration' or
    'stimulus'."""
    if _is_jsonl(path):
        return "session_jsonl"
    with open(path, "r", encoding="utf-8") as fh:
        return _KINDS[_read_column_line(fh, path, _KINDS)[3]]
