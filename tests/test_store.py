import json
import math
import random
import re
import warnings

import numpy as np
import pytest

from solesense import store
from solesense.acquisition import DividerConfig
from solesense.analysis import analyze
from solesense.sensor import CalibrationError
from solesense.store import (
    BLOCK_LINES,
    CALIBRATION_HEADER,
    DEFAULT_EPOCH,
    LEGACY_COLUMNS,
    SAMPLE_COLUMNS,
    STIMULUS_LAYOUTS,
    LegacyRecord,
    SessionFormatError,
    SessionLog,
    read_any,
    read_columns,
    read_calibration_csv,
    read_session,
    read_stimulus_csv,
    write_columns,
    write_session,
)
from solesense.synth import GaitParams, synthesize
from solesense.telemetry import SessionHeader
from solesense.units import Resistance, Voltage

from helpers import BENCH_TIME_LOG, piped, write_legacy_csv


def _refuse(*args):
    raise ValueError("refused, so that the line path reads the file")


def _by_line(path) -> SessionLog:
    """read_session on ``path`` with both array passes patched to refuse, so
    that the file goes through its format's line path: the reference each
    array pass must equal."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(store, "_csv_array_pass", _refuse)
        patch.setattr(store, "_jsonl_array_pass", _refuse)
        return read_session(path)


def _bits(values):
    """The bit patterns of floats, so that -0.0 differs from 0.0."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _assert_columns_equal_rows(path):
    """read_columns equals the line path on ``path``, bit for bit."""
    header, times, pascals = read_columns(path)
    log = _by_line(path)
    assert header == log.header
    assert _bits(times) == _bits([s.timestamp for s in log.samples])
    assert pascals.shape == (len(log.samples), 5)
    assert _bits(pascals) == _bits([s.as_row() for s in log.samples])


def _assert_columns_as_line_path(path):
    """read_columns equals the line path on ``path``, or raises its error."""
    try:
        _by_line(path)
    except SessionFormatError as exc:
        with pytest.raises(SessionFormatError) as info:
            read_columns(path)
        assert str(info.value) == str(exc)
    else:
        _assert_columns_equal_rows(path)


def _array_pass_only(monkeypatch):
    """Make a read fail if it falls back to either line path (a session
    CSV's is the row loop of every CSV table, _rows)."""
    for name in ("_rows", "_jsonl_lines"):
        monkeypatch.setattr(store, name, lambda path, *args: pytest.fail(f"{path} fell back to the line path"))


def read_legacy(path):
    """A legacy bench log's records, as read_any reads them."""
    kind, records = read_any(path)
    assert kind == "legacy"
    return records


def _session(cycles=2, noise=0.0, with_analysis=False):
    params = GaitParams(body_mass_kg=70, cycles=cycles, noise_sigma_pa=noise, seed=13)
    log = SessionLog(header=SessionHeader(1, DEFAULT_EPOCH, "measured", 100.0), samples=list(synthesize(params)))
    if with_analysis:
        log.events, log.report = analyze(log.samples)
    return log


def _written(path, log):
    write_session(log, path)
    return path


class TestCsv:
    def test_roundtrip_identity(self, tmp_path):
        log = _session(cycles=10, noise=3_000.0)
        path = tmp_path / "session.csv"
        write_session(log, path)
        back = read_session(path)
        assert back.header == log.header
        assert len(back.samples) == len(log.samples) == 1000
        for a, b in zip(log.samples, back.samples):
            assert a.timestamp == b.timestamp
            assert a.as_row() == b.as_row()

    def test_empty_log_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_session(SessionLog(header=SessionHeader(1, DEFAULT_EPOCH, "measured", 100.0)), path)
        lines = path.read_text().splitlines()
        assert lines[-1].startswith("t_s,")
        assert all(line.startswith("#") for line in lines[:-1])
        assert read_session(path).samples == []
        _assert_columns_equal_rows(path)

    def test_schema_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# epoch: x\nt_s,nope\n")
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match=":2"):
                reader(path)

    def test_bad_value_reports_line(self, tmp_path):
        log = _session(cycles=1)
        path = tmp_path / "session.csv"
        write_session(log, path)
        text = path.read_text().splitlines()
        text[10] = text[10].replace(",", ",junk", 1)
        path.write_text("\n".join(text) + "\n")
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match=":11"):
                reader(path)

    @pytest.mark.parametrize(
        "line, message",
        [("0.5,1,2,3,4,-5", ">= 0"), ("0.5,1,2,3,4,inf", "finite"), ("0.5,1,2,3,4", "fields"), ("   ", "fields")],
    )
    def test_rows_the_array_pass_rejects_are_named_by_line(self, tmp_path, line, message):
        path = tmp_path / "session.csv"
        write_session(_session(cycles=1), path)
        text = path.read_text().splitlines()
        text[20] = line
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(SessionFormatError, match=f":21: .*{message}"):
            read_columns(path)

    @pytest.mark.parametrize("edit", ["# note: mid-session", "", "1_0.5,1,2,3,4,5"])
    def test_unusual_lines_read_alike(self, tmp_path, edit):
        # a header line among the samples, a blank line, a digit separator the
        # array pass rejects
        path = tmp_path / "session.csv"
        write_session(_session(cycles=1), path)
        text = path.read_text().splitlines()
        text.insert(20, edit)
        path.write_text("\n".join(text) + "\n")
        _assert_columns_equal_rows(path)

    def test_every_line_prefix_is_readable(self, tmp_path):
        # writes are line-atomic: a reader that catches the file mid-growth
        # sees only whole records
        log = _session(cycles=1)
        log.samples = log.samples[:10]
        path = tmp_path / "grow.csv"
        write_session(log, path)
        lines = path.read_text().splitlines(keepends=True)
        partial = tmp_path / "partial.csv"
        for upto in range(10, len(lines) + 1):
            partial.write_text("".join(lines[:upto]))
            read_session(partial)  # must never raise
            _assert_columns_equal_rows(partial)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace("\n", "\r\n"),
            lambda text: text.replace("\n", "\r"),
            lambda text: text.replace("heel_pa\n", "heel_pa\n\n\n", 1),
            lambda text: text.replace("heel_pa\n", "heel_pa\n   \n", 1),
            lambda text: text.replace("\n0.5", "\n# note: mid-session\n0.5", 1),
            lambda text: text.rstrip("\n"),
            lambda text: text[: text.index("heel_pa\n") + 8] + "\n\n\n",
        ],
        ids=[
            "crlf", "cr only", "blank lines before the first row", "spaces before the first row",
            "a # line in the body", "no final newline", "a header and blank lines only",
        ],
    )
    def test_the_array_pass_reads_as_the_line_path(self, tmp_path, edit):
        path = _written(tmp_path / "s.csv", _session(cycles=1))
        path.write_bytes(edit(path.read_text()).encode())
        _assert_columns_as_line_path(path)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_a_plain_session_named_as_compressed_reads_as_written(self, tmp_path, suffix):
        # numpy would open a path of this name through a decompressor
        log = _session(cycles=1)
        path = _written(tmp_path / f"s{suffix}", log)
        _assert_columns_equal_rows(path)
        assert read_columns(path)[1].tolist() == [s.timestamp for s in log.samples]

    def test_a_session_named_as_compressed_takes_the_array_pass(self, tmp_path, monkeypatch):
        plain = _written(tmp_path / "s.csv", _session(cycles=2, noise=1_000.0))
        named = tmp_path / "s.gz"
        named.write_bytes(plain.read_bytes())
        want = read_columns(plain)
        _array_pass_only(monkeypatch)
        header, times, pascals = read_columns(named)
        assert header == want[0] and _bits(times) == _bits(want[1]) and _bits(pascals) == _bits(want[2])

    def test_blocks_write_the_lines_one_by_one_would(self, tmp_path):
        log = _session(cycles=6, noise=1_000.0)
        assert len(log.samples) > 2 * BLOCK_LINES
        write_session(log, tmp_path / "s.csv")
        body = "".join(",".join(map(repr, (s.timestamp, *s.as_row()))) + "\n" for s in log.samples)
        assert (tmp_path / "s.csv").read_text().endswith("heel_pa\n" + body)
        write_session(log, tmp_path / "s.jsonl")
        columns = ("forefoot_pa", "midfoot_medial_pa", "midfoot_central_pa", "midfoot_lateral_pa", "heel_pa")
        body = "".join(
            json.dumps({"type": "sample", "t_s": s.timestamp, **dict(zip(columns, s.as_row()))}, sort_keys=True) + "\n"
            for s in log.samples
        )
        text = (tmp_path / "s.jsonl").read_text()
        assert text.endswith(body) and text.count("\n") == 1 + len(log.samples)


    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_each_value_is_written_as_repr_gives_it(self, tmp_path, ext):
        # signed zeros are distinct bit patterns, and one value may sit in the
        # time column and a pressure column of the same row; a row of five
        # +0.0 is the CSV writer's constant text, between rows that are not
        tricky = 0.1 + 0.2
        times = np.array([tricky, 1.0, 2.0, 3.0, 4.0, 5.0])
        pascals = np.array(
            [
                [0.0, -0.0, tricky, 0.3, 5e-324],
                [-0.0, 0.0, 0.3, tricky, 1e300],
                [0.0, 0.0, 0.0, 0.0, 0.0],
                [tricky, tricky, -0.0, -0.0, 0.0],
                [-0.0, -0.0, -0.0, -0.0, -0.0],
                [0.0, 0.0, 0.0, 7.5, 0.0],
            ]
        )
        path = tmp_path / f"s.{ext}"
        write_columns(SessionHeader(1, DEFAULT_EPOCH, "measured", 100.0), times, pascals, path)
        rows = list(zip(times.tolist(), pascals.tolist()))
        if ext == "csv":
            body = "".join(",".join(map(repr, (t, *row))) + "\n" for t, row in rows)
        else:
            body = "".join(
                json.dumps({"type": "sample", **dict(zip(SAMPLE_COLUMNS, (t, *row)))}, sort_keys=True) + "\n"
                for t, row in rows
            )
        assert path.read_text().endswith(body)
        again = tmp_path / f"again.{ext}"
        write_session(read_session(path), again)
        assert again.read_bytes() == path.read_bytes()


class TestJsonl:
    def test_roundtrip_with_events_and_report(self, tmp_path):
        log = _session(cycles=5, with_analysis=True)
        path = tmp_path / "session.jsonl"
        write_session(log, path)
        back = read_session(path)
        assert back.header == log.header
        assert back.events == log.events
        assert back.report == log.report
        for a, b in zip(log.samples, back.samples):
            assert a.timestamp == b.timestamp
            assert a.as_row() == b.as_row()

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_session(SessionLog(header=SessionHeader(1, DEFAULT_EPOCH, "measured", 100.0)), path)
        back = read_session(path)
        assert back.samples == [] and back.events == [] and back.report is None
        _assert_columns_equal_rows(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "sample", "t_s": 0.0}\n')
        with pytest.raises(SessionFormatError, match=":1"):
            read_session(path)

    def test_malformed_line_reports_number(self, tmp_path):
        log = _session(cycles=1)
        path = tmp_path / "bad.jsonl"
        write_session(log, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3][:-1]  # chop the closing brace
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SessionFormatError, match=":4"):
            read_session(path)

    def test_csv_and_jsonl_carry_identical_samples(self, tmp_path):
        log = _session(cycles=3, noise=1_000.0)
        write_session(log, tmp_path / "s.csv")
        write_session(log, tmp_path / "s.jsonl")
        a = read_session(tmp_path / "s.csv").samples
        b = read_session(tmp_path / "s.jsonl").samples
        assert [(s.timestamp, s.as_row()) for s in a] == [(s.timestamp, s.as_row()) for s in b]
        _assert_columns_equal_rows(tmp_path / "s.csv")
        _assert_columns_equal_rows(tmp_path / "s.jsonl")

    @pytest.mark.parametrize(
        "line, message",
        [
            (json.dumps({"type": "sample", "t_s": None, **{c: 1.0 for c in SAMPLE_COLUMNS[1:]}}), "NoneType"),
            ("[1, 2]", "list indices"),
            ('{"type": "header", "device_id": 1, "epoch": "e", "profile": "p", "sample_rate_hz": 1, "divider": 5}', "int"),
        ],
        ids=["null timestamp", "not an object", "divider not an object"],
    )
    def test_record_of_the_wrong_type_reports_line(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        write_session(_session(cycles=1), path)
        lines = path.read_text().splitlines()
        lines[3] = line
        path.write_text("\n".join(lines) + "\n")
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match=f":4: .*{message}"):
                reader(path)


    @pytest.mark.parametrize(
        "field, value",
        [("t_s", "0.0"), ("heel_pa", "0.0"), ("forefoot_pa", True), ("midfoot_central_pa", False)],
        ids=["string timestamp", "string pressure", "true pressure", "false pressure"],
    )
    def test_sample_value_that_is_no_json_number_reports_line(self, tmp_path, field, value):
        path = tmp_path / "bad.jsonl"
        write_session(_session(cycles=1), path)
        lines = path.read_text().splitlines()
        sample = json.loads(lines[3])
        assert sample["type"] == "sample"
        lines[3] = json.dumps({**sample, field: value})
        path.write_text("\n".join(lines) + "\n")
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match=f":4: {field} must be a JSON number, got {type(value).__name__}"):
                reader(path)

    @pytest.mark.parametrize("line", [3, 0], ids=["sample pressure", "header rate"])
    def test_integer_too_large_for_a_float_reports_line(self, tmp_path, line):
        path = tmp_path / "big.jsonl"
        write_session(_session(cycles=1), path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[line])
        record["heel_pa" if line else "sample_rate_hz"] = "big"
        lines[line] = json.dumps(record).replace('"big"', "1" + "0" * 400)  # an integer JSON reads exactly
        path.write_text("\n".join(lines) + "\n")
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match=f":{line + 1}: .*too large"):
                reader(path)

    def test_integer_sample_values_read_as_floats(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        write_session(_session(cycles=1), path)
        lines = path.read_text().splitlines()
        sample = json.loads(lines[3])
        lines[3] = json.dumps({**sample, "t_s": 0, "heel_pa": 25000})
        path.write_text("\n".join(lines) + "\n")
        back = read_session(path).samples[2]
        assert back.timestamp == 0.0 and type(back.timestamp) is float
        assert back.as_row()[-1] == 25000.0 and type(back.as_row()[-1]) is float

    @pytest.mark.parametrize(
        "samples", [0, 1, BLOCK_LINES - 2, BLOCK_LINES - 1, BLOCK_LINES, BLOCK_LINES + 1, 2 * BLOCK_LINES + 3]
    )
    def test_the_array_pass_reads_what_the_line_parser_reads(self, tmp_path, monkeypatch, samples):
        # events and blank lines among the samples, and on either side of a
        # block boundary of the array pass
        log = _session(cycles=6, noise=1_000.0, with_analysis=True)
        log.samples = log.samples[:samples]
        path = _written(tmp_path / "s.jsonl", log)
        lines = path.read_text().splitlines()
        event = lines[1 + samples]
        for k in (BLOCK_LINES + 1, BLOCK_LINES, BLOCK_LINES - 1, 100, 1):
            lines[k:k] = [event, ""] if k <= samples else []
        path.write_text("\n".join(lines) + "\n")
        back = _by_line(path)
        _array_pass_only(monkeypatch)
        header, times, pascals = read_columns(path)
        assert header == back.header
        assert _bits(times) == _bits([s.timestamp for s in back.samples])
        assert _bits(pascals) == _bits([s.as_row() for s in back.samples])
        assert pascals.shape == (samples, 5)

    def test_the_array_pass_takes_numbers_as_the_line_parser_does(self, tmp_path, monkeypatch):
        path = _written(tmp_path / "s.jsonl", _session(cycles=1))
        lines = path.read_text().splitlines()
        changes = {
            3: {"heel_pa": -0.0, "forefoot_pa": 0},
            4: {"t_s": 1, "heel_pa": 25000},
            5: {"midfoot_medial_pa": 2**53 + 1, "midfoot_central_pa": 2**63 + 1, "midfoot_lateral_pa": 10**30},
            6: {"heel_pa": 1e-320, "forefoot_pa": 1.7976931348623157e308},
        }
        for k, change in changes.items():
            lines[k] = json.dumps({**json.loads(lines[k]), **change})
        path.write_text("\n".join(lines) + "\n")
        back = _by_line(path).samples
        _array_pass_only(monkeypatch)
        _, times, pascals = read_columns(path)
        assert _bits(times) == _bits([s.timestamp for s in back])
        assert _bits(pascals) == _bits([s.as_row() for s in back])
        assert math.copysign(1.0, pascals[2, 4]) == -1.0

    @pytest.mark.parametrize(
        "first, second",
        [
            ('1},{"a": 2', None),
            ("{SAMPLE}, {SAMPLE}", None),
            ('{SAMPLE}, {"type": "sample", "t_s": 0.5', '"forefoot_pa": 1.0, "midfoot_medial_pa": 1.0, '
             '"midfoot_central_pa": 1.0, "midfoot_lateral_pa": 1.0, "heel_pa": 1.0}'),
            ('{SAMPLE}, {"type": "sample", "t_s": 0.5, "forefoot_pa": 1.0, "midfoot_medial_pa": 1.0, '
             '"midfoot_central_pa": 1.0, "midfoot_lateral_pa": 1.0, "heel_pa": 1.0, "notes": [{}', "{}]}"),
        ],
        ids=["a value's end and start", "two records", "two records, one split at a key", "two records, one split in an array"],
    )
    def test_lines_of_other_than_one_value_are_the_line_parser_error(self, tmp_path, first, second):
        # joined by commas, the last two make as many records as lines
        path = _written(tmp_path / "s.jsonl", _session(cycles=1))
        lines = path.read_text().splitlines()
        lines[3] = first.replace("{SAMPLE}", lines[3])
        if second is not None:
            lines[4] = second
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SessionFormatError) as expected:
            _by_line(path)
        assert str(expected.value).startswith(f"{path}:4: ")
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError) as info:
                reader(path)
            assert str(info.value) == str(expected.value)

    def test_a_file_the_array_pass_declines_reads_by_line(self, tmp_path):
        # a "[" in a string, which the array pass does not tell from an array
        log = _session(cycles=1)
        log.header = SessionHeader(1, DEFAULT_EPOCH, "[lab]", 100.0)
        path = _written(tmp_path / "s.jsonl", log)
        _assert_columns_equal_rows(path)
        assert read_columns(path)[0].profile_name == "[lab]"

    def test_only_the_refused_block_reads_by_line(self, tmp_path, monkeypatch):
        # the header's "[" refuses the first block, and no other
        log = _session(cycles=6, noise=1_000.0)
        log.header = SessionHeader(1, DEFAULT_EPOCH, "sole[L]", 100.0)
        path = _written(tmp_path / "s.jsonl", log)
        assert len(log.samples) > 2 * BLOCK_LINES
        _assert_columns_equal_rows(path)
        rows, session_row = [], store._session_row
        monkeypatch.setattr(store, "_session_row", lambda *row: rows.append(row) or session_row(*row))
        header, times, _ = read_columns(path)
        assert header.profile_name == "sole[L]" and len(times) == len(log.samples)
        assert 0 < len(rows) <= BLOCK_LINES

    # blank lines, records the array pass refuses and records the line path rejects
    ODD_LINES = [
        "",
        "   ",
        json.dumps({"type": "event", "kind": "heel_strike", "t_s": 0.1, "cycle_index": 0}),
        json.dumps({"type": "event", "kind": "jump", "t_s": 0.1, "cycle_index": 0}),
        json.dumps({"type": "header", "device_id": 2, "epoch": DEFAULT_EPOCH, "profile": "[L]", "sample_rate_hz": 5.0}),
        json.dumps({"type": "report", "cycles": "many"}),
        '{"type": "sample", "t_s": 0.5',
        '"a string"',
        "[1, 2]",
        "{}",
    ] + [
        json.dumps({"type": "sample", "t_s": 0.5, **dict.fromkeys(SAMPLE_COLUMNS[1:], 1.0), **change})
        for change in ({}, {"heel_pa": -1.0}, {"heel_pa": "1"}, {"t_s": True}, {"notes": [1]})
    ]

    @pytest.mark.parametrize("seed", range(24))
    def test_odd_lines_at_block_edges_read_as_the_line_path(self, tmp_path, seed):
        rng = random.Random(seed)
        path = _written(tmp_path / "s.jsonl", _session(cycles=6, noise=1_000.0, with_analysis=True))
        lines = path.read_text().splitlines()
        for _ in range(rng.randint(1, 3)):
            k = rng.choice([0, 1, 2, 254, 255, 256, 510, 511, 512])  # at line 1-3, 255-257 or 511-513
            lines[k : k + rng.randint(0, 1)] = [rng.choice(self.ODD_LINES)]
        path.write_text("\n".join(lines) + "\n")
        try:
            want = _by_line(path)
        except SessionFormatError as exc:
            for reader in (read_session, read_columns):
                with pytest.raises(SessionFormatError) as info:
                    reader(path)
                assert str(info.value) == str(exc)
        else:
            assert read_session(path) == want
            _assert_columns_equal_rows(path)

    @pytest.mark.parametrize(
        "record, change, message",
        [
            ("event", {"t_s": "soon"}, "t_s must be a JSON number, got str 'soon'"),
            ("event", {"t_s": False}, "t_s must be a JSON number, got bool False"),
            ("event", {"cycle_index": "x"}, "cycle_index must be a JSON integer, got str 'x'"),
            ("event", {"cycle_index": 1.0}, "cycle_index must be a JSON integer, got float 1.0"),
            ("event", {"kind": "jump"}, "'jump' is not a valid GaitEventKind"),
            ("event", {"phase": "flight"}, "'flight' is not a valid GaitPhase"),
            ("report", {"cycles": "many"}, "cycles must be a JSON integer, got str 'many'"),
            ("report", {"sequence_violations": True}, "sequence_violations must be a JSON integer, got bool True"),
            ("report", {"cadence_spm": None}, "cadence_spm must be a JSON number, got NoneType None"),
            ("report", {"peak_pressure_pa": {"toe": 1.0}}, "'toe' is not a valid FootRegion"),
            ("report", {"peak_pressure_pa": {"heel": "1"}}, "peak_pressure_pa.heel must be a JSON number, got str '1'"),
            ("report", {"phase_mean_durations_s": {"flight": 0.1}}, "'flight' is not a valid GaitPhase"),
            ("report", {"phase_mean_durations_s": [0.1]}, "phase_mean_durations_s must be a JSON object, got list [0.1]"),
        ],
        ids=[
            "string event time", "false event time", "string cycle index", "float cycle index", "unknown kind",
            "unknown phase", "string cycles", "true violations", "null cadence", "unknown region",
            "string peak", "unknown phase key", "durations not an object",
        ],
    )
    def test_event_and_report_fields_must_have_their_types(self, tmp_path, record, change, message):
        path = _written(tmp_path / "s.jsonl", _session(cycles=3, with_analysis=True))
        lines = path.read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if json.loads(line)["type"] == record)
        lines[k] = json.dumps({**json.loads(lines[k]), **change})
        path.write_text("\n".join(lines) + "\n")
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError) as info:
                reader(path)
            assert str(info.value) == f"{path}:{k + 1}: {message}"


class TestColumns:
    @pytest.mark.parametrize("name", ["s.csv", "s.jsonl"])
    def test_write_columns_reads_back(self, tmp_path, name):
        log = _session(cycles=3, noise=1_000.0)
        header, times, pascals = read_columns(_written(tmp_path / f"log-{name}", log))
        path = tmp_path / name
        write_columns(header, times, pascals, path)
        back = read_columns(path)
        assert back[0] == header
        assert back[1].tolist() == times.tolist() and back[2].tolist() == pascals.tolist()
        # the same rows give the same file, from a log or from columns
        assert path.read_bytes() == (tmp_path / f"log-{name}").read_bytes()

    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "times, pascals, message",
        [
            (np.zeros(3), np.zeros((5, 5)), r"\(n,\) timestamps and \(n, 5\) pascals"),
            (np.zeros(3), np.zeros((3, 4)), r"\(n,\) timestamps and \(n, 5\) pascals"),
            (np.zeros((3, 1)), np.zeros((3, 5)), r"\(n,\) timestamps and \(n, 5\) pascals"),
            (np.zeros(3), np.array([[0.0] * 5, [0.0, 0.0, -1.0, 0.0, 0.0], [0.0] * 5]), "finite and >= 0"),
            (np.zeros(3), np.array([[0.0] * 5, [0.0] * 5, [math.nan] * 5]), "finite and >= 0"),
            (np.zeros(3), np.array([[math.inf] * 5, [0.0] * 5, [0.0] * 5]), "finite and >= 0"),
        ],
        ids=["more rows than times", "four channels", "times not 1-d", "negative", "nan", "inf"],
    )
    def test_columns_no_reader_takes_are_refused_before_the_file_opens(self, tmp_path, ext, times, pascals, message):
        path = tmp_path / f"s.{ext}"
        path.write_text("kept\n")
        with pytest.raises(ValueError, match=message):
            write_columns(SessionHeader(1, DEFAULT_EPOCH, "measured", 100.0), times, pascals, path)
        assert path.read_text() == "kept\n"

    def test_csv_has_no_place_for_events_or_the_report(self, tmp_path):
        log = _session(cycles=3, with_analysis=True)
        assert log.events and log.report is not None
        text = _written(tmp_path / "s.csv", log).read_text()
        assert "{" not in text and text.count("\n") == len(log.samples) + 9


class TestOneReader:
    """read_session and read_columns read a file by the same passes."""

    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_the_samples_hold_the_columns_bit_for_bit(self, tmp_path, monkeypatch, ext):
        times = np.array([0.0, 0.1 + 0.2, 5e-324])
        pascals = np.array([[0.0, -0.0, 1e300, 0.3, 5e-324], [-0.0] * 5, [0.1 + 0.2, 0.0, 0.0, 7.5, 0.0]])
        path = tmp_path / f"s.{ext}"
        write_columns(SessionHeader(1, DEFAULT_EPOCH, "measured", 100.0), times, pascals, path)
        _array_pass_only(monkeypatch)
        header, got_times, got_pascals = read_columns(path)
        log = read_session(path)
        assert log.header == header
        assert _bits([s.timestamp for s in log.samples]) == _bits(got_times) == _bits(times)
        assert _bits([s.as_row() for s in log.samples]) == _bits(got_pascals) == _bits(pascals)

    @pytest.mark.parametrize("reader", [read_session, _by_line], ids=["array pass", "line path"])
    def test_a_jsonl_session_keeps_its_events_and_report(self, tmp_path, reader):
        log = _session(cycles=3, with_analysis=True)
        assert log.events and log.report is not None
        back = reader(_written(tmp_path / "s.jsonl", log))
        assert back.events == log.events and back.report == log.report
        assert back.samples == log.samples

    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_the_first_line_is_read_once(self, tmp_path, monkeypatch, ext):
        path = _written(tmp_path / f"s.{ext}", _session(cycles=1))
        passes = []
        first_line = store._first_line
        monkeypatch.setattr(store, "_first_line", lambda fh, pairs: passes.append(1) or first_line(fh, pairs))
        read_columns(path)
        assert len(passes) == 1


class TestByteOrderMark:
    """A session file that starts with a UTF-8 byte-order mark reads as the
    same file without it, by its format's array pass; no writer writes one."""

    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_a_session_with_a_bom_reads_as_without(self, tmp_path, monkeypatch, ext):
        plain = _written(tmp_path / f"s.{ext}", _session(cycles=2, with_analysis=True))
        assert not plain.read_bytes().startswith(b"\xef\xbb\xbf")
        marked = tmp_path / f"bom.{ext}"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert read_any(marked)[0] == read_any(plain)[0]
        assert read_session(marked) == read_session(plain)  # a JSONL file's events and report too
        _array_pass_only(monkeypatch)  # the JSONL pass reads the file again from its start
        header, times, pascals = read_columns(marked)
        want = read_columns(plain)
        assert header == want[0] and _bits(times) == _bits(want[1]) and _bits(pascals) == _bits(want[2])


class TestFormatByContent:
    """Readers tell CSV from JSONL by content; only writers go by extension."""

    def test_misnamed_files_read_as_what_they_hold(self, tmp_path):
        log = _session(cycles=2, noise=1_000.0)
        write_session(log, tmp_path / "csv.csv")
        write_session(log, tmp_path / "jsonl.jsonl")
        (tmp_path / "csv.csv").rename(tmp_path / "csv_as.jsonl")
        (tmp_path / "jsonl.jsonl").rename(tmp_path / "jsonl_as.csv")
        for path in (tmp_path / "csv_as.jsonl", tmp_path / "jsonl_as.csv"):
            back = read_session(path)
            assert back.header == log.header
            assert [(s.timestamp, s.as_row()) for s in back.samples] == [(s.timestamp, s.as_row()) for s in log.samples]
            _assert_columns_equal_rows(path)

    def test_blank_lines_before_the_first_record(self, tmp_path):
        log = _session(cycles=1)
        write_session(log, tmp_path / "s.jsonl")
        path = tmp_path / "s.csv"
        path.write_text("\n  \n" + (tmp_path / "s.jsonl").read_text())
        assert read_session(path).header == log.header
        _assert_columns_equal_rows(path)

    @pytest.mark.parametrize("name", ["empty.jsonl", "empty.csv"])
    def test_empty_file_keeps_the_csv_error(self, tmp_path, name):
        path = tmp_path / name
        path.write_text("")
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match="missing column header line"):
                reader(path)


class TestLegacy:
    def test_bench_log_roundtrip(self, tmp_path):
        records = [LegacyRecord(t, p, r) for t, p, r in BENCH_TIME_LOG]
        path = tmp_path / "bench.csv"
        write_legacy_csv(path, records)
        back = read_legacy(path)
        assert len(back) == 15
        assert back[0] == LegacyRecord(0.0, 428589.8, 3342900.0)
        assert back == records

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2\n")
        with pytest.raises(SessionFormatError):
            read_any(path)


class TestReadAny:
    def test_kinds(self, tmp_path):
        write_session(_session(cycles=1), tmp_path / "a.csv")
        write_session(_session(cycles=1), tmp_path / "a.jsonl")
        write_legacy_csv(tmp_path / "legacy.csv", [LegacyRecord(0.0, 1.0, 2.0)])
        (tmp_path / "cal.csv").write_text("pressure_pa,resistance_ohm\n1,2\n")
        assert read_any(tmp_path / "a.csv")[0] == "session"
        assert read_any(tmp_path / "a.jsonl")[0] == "session_jsonl"
        assert read_any(tmp_path / "legacy.csv")[0] == "legacy"
        assert read_any(tmp_path / "cal.csv")[0] == "calibration"
        (tmp_path / "junk.txt").write_text("hello\n")
        with pytest.raises(SessionFormatError):
            read_any(tmp_path / "junk.txt")

    def test_each_kind_holds_what_its_reader_reads(self, tmp_path):
        session = _written(tmp_path / "s.jsonl", _session(cycles=2, noise=1_000.0, with_analysis=True))
        log, times, pascals = read_any(session)[1]
        want = read_session(session)
        assert (log.header, log.samples, log.events, log.report) == (want.header, [], want.events, want.report)
        assert _bits(times) == _bits(read_columns(session)[1]) and _bits(pascals) == _bits(read_columns(session)[2])
        cal = tmp_path / "cal.csv"
        cal.write_text("pressure_pa,resistance_ohm\n200000.0,150000.0\n400000.0,20000.0\n")
        assert read_any(cal) == ("calibration", read_calibration_csv(cal))

    def test_a_stimulus_is_told_but_its_rows_are_not_read(self, tmp_path):
        path = tmp_path / "stim.csv"
        path.write_text("time_s,pressure_pa\n1.0,1.0\n0.0,x\n")
        assert read_any(path) == ("stimulus", None)


class TestPipes:
    """An input that cannot seek, such as a pipe, reads as the file it carries."""

    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_a_piped_session_reads_as_the_file(self, tmp_path, ext):
        path = _written(tmp_path / f"s.{ext}", _session(cycles=2, noise=1_000.0, with_analysis=True))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on a body it finds empty
            header, times, pascals = piped(path, read_columns)
            log = piped(path, read_session)
        want = read_columns(path)
        assert header == want[0] and _bits(times) == _bits(want[1]) and _bits(pascals) == _bits(want[2])
        assert log == read_session(path)

    def test_a_piped_csv_session_takes_the_array_pass(self, tmp_path, monkeypatch):
        path = _written(tmp_path / "s.csv", _session(cycles=2, noise=1_000.0))
        want = read_columns(path)
        _array_pass_only(monkeypatch)
        header, times, pascals = piped(path, read_columns)
        assert header == want[0] and _bits(times) == _bits(want[1]) and _bits(pascals) == _bits(want[2])

    def test_a_broken_piped_session_names_its_line(self, tmp_path):
        path = _written(tmp_path / "s.csv", _session(cycles=1))
        lines = path.read_text().splitlines()
        lines[12] = "0.5,x,0.0,0.0,0.0,0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SessionFormatError) as want:
            read_columns(path)
        with pytest.raises(SessionFormatError) as got:
            piped(path, read_columns)
        assert re.sub(r"^/dev/fd/\d+", str(path), str(got.value)) == str(want.value)

    def test_piped_tables_read_as_their_files(self, tmp_path):
        cal, stim = tmp_path / "cal.csv", tmp_path / "stim.csv"
        cal.write_text("# bench 3\npressure_pa,resistance_ohm\n200000.0,150000.0\n400000.0,20000.0\n")
        stim.write_text("time_s,sensor_pa,fsr_pa\n0.0,0.0,0.0\n1.0,500000.0,469052.1\n")
        assert piped(cal, read_calibration_csv) == read_calibration_csv(cal)
        assert piped(stim, read_stimulus_csv) == read_stimulus_csv(stim)
        assert piped(cal, read_any) == read_any(cal)


# each CSV table: its reader, the error that reader raises, its column line,
# a valid row and the kind read_any gives it
TABLES = {
    "session": (read_session, SessionFormatError, SAMPLE_COLUMNS, "0.5,1.0,2.0,3.0,4.0,5.0"),
    "legacy": (read_legacy, SessionFormatError, LEGACY_COLUMNS, "0.5,428589.8,3342900.0"),
    "calibration": (read_calibration_csv, CalibrationError, CALIBRATION_HEADER, "200000.0,150000.0"),
    "stimulus": (read_stimulus_csv, SessionFormatError, STIMULUS_LAYOUTS[0], "0.5,1.0,2.0"),
}


class TestTables:
    """One grammar for every CSV table, and read_any finds the layout the readers find."""

    @pytest.fixture(params=sorted(TABLES))
    def table(self, request, tmp_path):
        reader, error, columns, row = TABLES[request.param]
        plain = tmp_path / "plain.csv"
        plain.write_text("\n".join([",".join(columns), row, row]) + "\n")
        return request.param, reader, error, columns, row, reader(plain)

    @pytest.mark.parametrize(
        "lines",
        [
            lambda head, row: ["# note: bench 3", head, row, row],
            lambda head, row: [head, row, "# note: bench 3", row],
            lambda head, row: [" " + head.replace(",", " , ") + " ", row, row],
            lambda head, row: [head, row, "", row],
            lambda head, row: ["", "  ", head, row, row],
            lambda head, row: ["\ufeff" + head, row, row],  # what a spreadsheet's "CSV UTF-8" export writes
        ],
        ids=[
            "note before the header", "note after the header", "spaced header cells", "empty line", "blank lines first",
            "utf-8 byte-order mark",
        ],
    )
    def test_valid_variants_read_as_the_plain_table(self, tmp_path, table, lines):
        kind, reader, _error, columns, row, plain = table
        path = tmp_path / "variant.csv"
        path.write_text("\n".join(lines(",".join(columns), row)) + "\n")
        assert reader(path) == plain
        assert read_any(path)[0] == kind

    @pytest.mark.parametrize(
        "bad",
        [
            lambda row: "   ",
            lambda row: row.rsplit(",", 1)[0],
            lambda row: row + ",1.0",
            lambda row: "x," + row.split(",", 1)[1],
        ],
        ids=["line of spaces", "short row", "long row", "bad float"],
    )
    def test_a_broken_row_names_its_line(self, tmp_path, table, bad):
        _kind, reader, error, columns, row, _plain = table
        path = tmp_path / "broken.csv"
        path.write_text("\n".join([",".join(columns), row, bad(row), row]) + "\n")
        with pytest.raises(error, match=re.escape(f"{path}:3: ")):
            reader(path)

    def test_a_wrong_header_names_its_line(self, tmp_path, table):
        _kind, reader, error, _columns, row, _plain = table
        path = tmp_path / "wrong.csv"
        path.write_text(f"# note\n\nwho,what\n{row}\n")
        with pytest.raises(error, match=re.escape(f"{path}:3: expected header")):
            reader(path)

    def test_an_empty_table_names_where_its_header_is_missing(self, tmp_path, table):
        _kind, reader, error, *_ = table
        path = tmp_path / "empty.csv"
        path.write_text("# note\n\n")
        with pytest.raises(error, match=re.escape(f"{path}:3: missing column header line")):
            reader(path)


class TestTableRegressions:
    """Files the separate CSV readers took differently from each other."""

    def test_calibration_note_before_the_header(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("# bench 3\npressure_pa,resistance_ohm\n200000.0,150000.0\n")
        assert read_any(path)[0] == "calibration"
        assert [(p.pressure_pa, p.resistance_ohm) for p in read_calibration_csv(path)] == [(200000.0, 150000.0)]

    def test_spaced_calibration_header_is_sniffed(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text(" pressure_pa , resistance_ohm\n200000.0,150000.0\n")
        assert read_any(path)[0] == "calibration"
        assert len(read_calibration_csv(path)) == 1

    def test_calibration_row_with_three_fields_is_rejected(self, tmp_path):
        path = tmp_path / "cal.csv"
        path.write_text("pressure_pa,resistance_ohm\n200000.0,150000.0,7\n")
        with pytest.raises(CalibrationError, match=re.escape(f"{path}:2: expected 2 fields, got 3")):
            read_calibration_csv(path)

    def test_short_stimulus_row_names_its_line(self, tmp_path):
        path = tmp_path / "stim.csv"
        path.write_text("time_s,sensor_pa,fsr_pa\n0.0,1.0,2.0\n1.0,1.0\n")
        with pytest.raises(SessionFormatError, match=re.escape(f"{path}:3: expected 3 fields, got 2")):
            read_stimulus_csv(path)

    def test_bad_stimulus_value_names_its_line(self, tmp_path):
        path = tmp_path / "stim.csv"
        path.write_text("time_s,pressure_pa\n0.0,1.0\n1.0,heavy\n")
        with pytest.raises(SessionFormatError, match=re.escape(f"{path}:3: ")):
            read_stimulus_csv(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("time_s,pressure_pa\n0.0,1.0\n1.0,nan\n", "pressure must be finite, got nan"),
            ("time_s,pressure_pa\n0.0,1.0\n1.0,-5\n", "pressure must be >= 0, got -5.0"),
            ("time_s,sensor_pa,fsr_pa\n0.0,1.0,2.0\n1.0,1.0,inf\n", "pressure must be finite, got inf"),
            ("time_s,sensor_pa,fsr_pa\n0.0,1.0,2.0\n1.0,-0.5,1.0\n", "pressure must be >= 0, got -0.5"),
            ("time_s,pressure_pa\n0.0,1.0\nnan,1.0\n", "time must be finite, got nan"),
            ("time_s,pressure_pa\n0.0,1.0\n-inf,1.0\n", "time must be finite, got -inf"),
            ("time_s,pressure_pa\n2.0,1.0\n1.0,1.0\n", "time went backwards, from 2.0 to 1.0"),
        ],
        ids=["nan pressure", "negative pressure", "infinite fsr pressure", "negative sensor pressure", "nan time",
             "infinite time", "time backwards"],
    )
    def test_stimulus_value_the_model_cannot_take_names_its_line(self, tmp_path, body, message):
        path = tmp_path / "stim.csv"
        path.write_text(body)
        with pytest.raises(SessionFormatError, match=re.escape(f"{path}:3: {message}")):
            read_stimulus_csv(path)

    def test_stimulus_layouts(self, tmp_path):
        path = tmp_path / "stim.csv"
        path.write_text("time_s,sensor_pa,fsr_pa\n0.0,1.0,2.0\n1.0,3.0,4.0\n")
        assert read_stimulus_csv(path) == ([0.0, 1.0], [[1.0, 3.0], [2.0, 4.0]])
        path.write_text("time_s,pressure_pa\n0.0,1.0\n1.0,3.0\n")
        assert read_stimulus_csv(path) == ([0.0, 1.0], [[1.0, 3.0], [1.0, 3.0]])  # one column presses both
        path.write_text("time_s,pressure_pa\n0.0,1.0\n0.0,3.0\n")  # a time may repeat
        assert read_stimulus_csv(path) == ([0.0, 0.0], [[1.0, 3.0], [1.0, 3.0]])


def _with_jsonl_header(tmp_path, change):
    """A one-cycle JSONL session whose header object went through ``change``."""
    path = tmp_path / "s.jsonl"
    write_session(_session(cycles=1), path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    change(header)
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    return path


def _header_read_by_all(path):
    """The header every reader of a session reads from ``path``, checked equal."""
    header = read_session(path).header
    assert read_columns(path)[0] == header
    return header


class TestHeaderFields:
    """The fields each format's header holds, and what one that leaves a field out reads."""

    HEADER = SessionHeader(
        7, "2024-05-01T10:00:00Z", "bench", 250.0, DividerConfig(Voltage(5.0), Resistance(47000.0), 10, Voltage(4.096))
    )

    def test_a_header_round_trips_csv_jsonl_csv(self, tmp_path):
        first, middle, last = tmp_path / "a.csv", tmp_path / "b.jsonl", tmp_path / "c.csv"
        write_columns(self.HEADER, np.array([0.0, 0.004]), np.full((2, 5), 1000.0), first)
        for source, target in ((first, middle), (middle, last)):
            write_columns(*read_columns(source), target)
        assert first.read_text().startswith(
            "# device_id: 7\n# epoch: 2024-05-01T10:00:00Z\n# profile: bench\n# sample_rate_hz: 250.0\n"
            "# v_in: 5.0\n# r1_ohm: 47000.0\n# adc_bits: 10\n# v_ref: 4.096\nt_s,"
        )
        assert json.loads(middle.read_text().splitlines()[0]) == {
            "type": "header", "device_id": 7, "epoch": "2024-05-01T10:00:00Z", "profile": "bench",
            "sample_rate_hz": 250.0, "divider": {"v_in": 5.0, "r1_ohm": 47000.0, "adc_bits": 10, "v_ref": 4.096},
        }
        for path in (first, middle, last):
            header = _header_read_by_all(path)
            d = header.divider
            assert (header.device_id, header.epoch, header.profile_name, header.sample_rate_hz) == (
                7, "2024-05-01T10:00:00Z", "bench", 250.0
            )
            assert (d.v_in.volts, d.r1.ohms, d.adc_bits, d.v_ref.volts) == (5.0, 47000.0, 10, 4.096)
        assert last.read_bytes() == first.read_bytes()

    def test_csv_without_a_header_block_reads_the_defaults(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(",".join(SAMPLE_COLUMNS) + "\n0.0,1.0,2.0,3.0,4.0,5.0\n")
        header = _header_read_by_all(path)
        assert header == SessionHeader(1, DEFAULT_EPOCH, "measured", 0.0, DividerConfig())
        assert read_session(path).header == header and type(header.sample_rate_hz) is float

    def test_csv_divider_fields_left_out_read_the_default_divider(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# v_in: 5.0\n# adc_bits: 10\n" + ",".join(SAMPLE_COLUMNS) + "\n")
        assert _header_read_by_all(path).divider == DividerConfig(v_in=Voltage(5.0), adc_bits=10)  # v_ref follows v_in

    def test_jsonl_without_a_divider_reads_the_default_divider(self, tmp_path):
        path = _with_jsonl_header(tmp_path, lambda header: header.pop("divider"))
        assert _header_read_by_all(path) == SessionHeader(1, DEFAULT_EPOCH, "measured", 100.0)

    def test_jsonl_divider_may_leave_out_any_key(self, tmp_path):
        path = _with_jsonl_header(tmp_path, lambda header: header.update(divider={"r1_ohm": 47000.0}))
        assert _header_read_by_all(path).divider == DividerConfig(r1=Resistance(47000.0))

    @pytest.mark.parametrize("field", ["device_id", "epoch", "profile", "sample_rate_hz"])
    def test_jsonl_header_must_hold_each_session_field(self, tmp_path, field):
        path = _with_jsonl_header(tmp_path, lambda header: header.pop(field))
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match=re.escape(f"{path}:1: '{field}'")):
                reader(path)


class TestHeaderFieldTypes:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("device_id", None),
            ("device_id", 300),
            ("device_id", -1),
            ("device_id", True),
            ("device_id", 1.0),
            ("profile", [1]),
            ("sample_rate_hz", "x"),
            ("sample_rate_hz", -1.0),
            ("sample_rate_hz", None),
            ("epoch", 5),
            ("epoch", "2024-05-01T10:00:00"),
        ],
    )
    def test_mistyped_jsonl_header_names_its_line(self, tmp_path, field, value):
        path = tmp_path / "s.jsonl"
        write_session(_session(cycles=1), path)
        lines = path.read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), field: value})
        path.write_text("\n".join(lines) + "\n")
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match=re.escape(f"{path}:1: ")):
                reader(path)

    @pytest.mark.parametrize("bits", [12.5, True])
    def test_jsonl_adc_bits_must_be_an_integer(self, tmp_path, bits):
        path = _with_jsonl_header(tmp_path, lambda header: header["divider"].update(adc_bits=bits))
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match=re.escape(f"{path}:1: adc_bits must be an integer")):
                reader(path)

    @pytest.mark.parametrize("value", [True, "3.3"])
    @pytest.mark.parametrize("field", ["v_in", "r1_ohm", "v_ref"])
    def test_jsonl_divider_numbers_must_be_json_numbers(self, tmp_path, field, value):
        path = _with_jsonl_header(tmp_path, lambda header: header["divider"].update({field: value}))
        message = f"{path}:1: {field} must be a JSON number, got {type(value).__name__} {value!r}"
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match=re.escape(message)):
                reader(path)

    def test_jsonl_v_ref_must_be_above_zero(self, tmp_path):
        path = _with_jsonl_header(tmp_path, lambda header: header["divider"].update(v_ref=0))
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match=re.escape(f"{path}:1: v_ref must be > 0")):
                reader(path)

    @pytest.mark.parametrize(
        "line",
        [
            "# device_id: 300",
            "# device_id: -1",
            "# sample_rate_hz: nan",
            "# sample_rate_hz: inf",
            "# v_ref: 0.0",
            "# epoch: 2024-05-01",
        ],
    )
    def test_out_of_range_csv_header_names_its_line(self, tmp_path, line):
        path = tmp_path / "s.csv"
        write_session(_session(cycles=1), path)
        lines = path.read_text().splitlines()
        key = line.split(":")[0]
        lines = [line if text.startswith(key + ":") else text for text in lines]
        path.write_text("\n".join(lines) + "\n")
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match=re.escape(f"{path}:8: bad header block")):
                reader(path)

    @pytest.mark.parametrize(
        "changes",
        [
            {"device_id": 256},
            {"device_id": False},
            {"profile_name": None},
            {"sample_rate_hz": math.inf},
            {"sample_rate_hz": "100"},
            {"sample_rate_hz": True},
            {"epoch": 5},
            {"epoch": None},
            {"epoch": b"1970-01-01T00:00:00Z"},
            {"epoch": "yesterday"},
            {"epoch": "2024-05-01t10:00:00Z"},  # the separator is "T"
            {"epoch": "2024-05-01 10:00:00Z"},
            {"epoch": "2024-05-01T10:00Z"},  # seconds are not optional
            {"epoch": "2024-05-01T10:00:00.Z"},
            {"epoch": "2024-05-01T10:00:00z"},
            {"epoch": "2024-05-01T10:00:00+0200"},
            {"epoch": "2024-05-01T10:00:00+05:60"},
            {"epoch": "2024-05-01T10:00:00+24:00"},
            {"epoch": "2024-04-31T10:00:00Z"},
            {"epoch": "2024-05-01T24:00:00Z"},
        ],
    )
    def test_session_header_checks_its_fields(self, changes):
        fields = {"device_id": 1, "epoch": "1970-01-01T00:00:00Z", "profile_name": "measured", "sample_rate_hz": 100.0}
        SessionHeader(**fields)
        with pytest.raises(ValueError, match=next(iter(changes))):
            SessionHeader(**{**fields, **changes})
        SessionHeader(**{**fields, "device_id": 255, "sample_rate_hz": 0})

    @pytest.mark.parametrize(
        "epoch", ["2024-05-01T10:00:00.5Z", "2024-05-01T10:00:00.123456789-05:30", "2024-05-01T23:59:59+23:59"]
    )
    def test_session_header_takes_a_fraction_of_any_length_and_any_offset(self, epoch):
        assert SessionHeader(1, epoch, "measured", 100.0).epoch == epoch


class TestFiniteTimestamps:
    """A session's timestamps are finite: both line readers refuse another at
    its line, the array reader hands such a file to them, and the writer
    refuses one before it opens the file."""

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_a_csv_row_with_a_non_finite_time_names_its_line(self, tmp_path, time):
        path = tmp_path / "s.csv"
        write_session(_session(cycles=1), path)
        text = path.read_text().splitlines()
        text[20] = ",".join([time, *text[20].split(",")[1:]])
        path.write_text("\n".join(text) + "\n")
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match=f":21: timestamp must be finite, got {time}"):
                reader(path)

    @pytest.mark.parametrize("time", ["NaN", "Infinity", "-Infinity"])
    def test_a_jsonl_sample_with_a_non_finite_time_names_its_line(self, tmp_path, time):
        path = tmp_path / "s.jsonl"
        write_session(_session(cycles=1), path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace(f'"t_s": {json.loads(lines[3])["t_s"]!r}', f'"t_s": {time}')
        assert time in lines[3]
        path.write_text("\n".join(lines) + "\n")
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match=":4: timestamp must be finite"):
                reader(path)

    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_the_writer_refuses_a_non_finite_time_before_the_file_opens(self, tmp_path, ext, time):
        path = tmp_path / f"s.{ext}"
        path.write_text("kept\n")
        times = np.array([0.0, time, 0.02])
        with pytest.raises(ValueError, match="timestamp must be finite"):
            write_columns(SessionHeader(1, DEFAULT_EPOCH, "measured", 100.0), times, np.zeros((3, 5)), path)
        assert path.read_text() == "kept\n"


class TestUnreadSessionErrors:
    def test_a_csv_of_five_field_rows_names_its_first_line(self, tmp_path):
        # every row short alike, so the array pass reads them all and the column check refuses them
        path = tmp_path / "s.csv"
        write_session(_session(cycles=1), path)
        text = path.read_text().splitlines()
        body = 9  # the eight header lines and the column line
        text[body:] = [line.rsplit(",", 1)[0] for line in text[body:]]
        path.write_text("\n".join(text) + "\n")
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match=f":{body + 1}: expected 6 fields, got 5"):
                reader(path)

    def test_a_jsonl_record_of_unknown_type_names_its_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_session(_session(cycles=1), path)
        lines = path.read_text().splitlines()
        lines[2] = json.dumps({"type": "note", "text": "mid-session"})
        path.write_text("\n".join(lines) + "\n")
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match=":3: unknown record type 'note'"):
                reader(path)

    def test_a_jsonl_file_of_no_header_line_is_refused(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_session(_session(cycles=1, with_analysis=True), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line for line in lines if '"header"' not in line) + "\n")
        for reader in (read_session, read_columns):
            with pytest.raises(SessionFormatError, match=f"^{re.escape(str(path))}: missing header line$"):
                reader(path)
