import json

import pytest

from solesense.analysis import analyze
from solesense.store import (
    BLOCK_LINES,
    SAMPLE_COLUMNS,
    LegacyRecord,
    SessionFormatError,
    SessionLog,
    default_header,
    read_columns,
    read_csv,
    read_jsonl,
    read_legacy_csv,
    read_session,
    sniff_kind,
    write_columns,
    write_session,
)
from solesense.synth import GaitParams, synthesize

from helpers import BENCH_TIME_LOG, write_legacy_csv


def _assert_columns_equal_rows(path, reader):
    header, times, pascals = read_columns(path)
    log = reader(path)
    assert header == log.header
    assert times.tolist() == [s.timestamp for s in log.samples]
    assert pascals.shape == (len(log.samples), 5)
    assert pascals.tolist() == [list(s.as_row()) for s in log.samples]


def _session(cycles=2, noise=0.0, with_analysis=False):
    params = GaitParams(body_mass_kg=70, cycles=cycles, noise_sigma_pa=noise, seed=13)
    log = SessionLog(header=default_header(), samples=list(synthesize(params)))
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
        back = read_csv(path)
        assert back.header == log.header
        assert len(back.samples) == len(log.samples) == 1000
        for a, b in zip(log.samples, back.samples):
            assert a.timestamp == b.timestamp
            assert a.as_row() == b.as_row()

    def test_empty_log_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_session(SessionLog(header=default_header()), path)
        lines = path.read_text().splitlines()
        assert lines[-1].startswith("t_s,")
        assert all(line.startswith("#") for line in lines[:-1])
        assert read_csv(path).samples == []
        _assert_columns_equal_rows(path, read_csv)

    def test_schema_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# epoch: x\nt_s,nope\n")
        for reader in (read_csv, read_columns):
            with pytest.raises(SessionFormatError, match=":2"):
                reader(path)

    def test_bad_value_reports_line(self, tmp_path):
        log = _session(cycles=1)
        path = tmp_path / "session.csv"
        write_session(log, path)
        text = path.read_text().splitlines()
        text[10] = text[10].replace(",", ",junk", 1)
        path.write_text("\n".join(text) + "\n")
        for reader in (read_csv, read_columns):
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
        _assert_columns_equal_rows(path, read_csv)

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
            read_csv(partial)  # must never raise
            _assert_columns_equal_rows(partial, read_csv)


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


class TestJsonl:
    def test_roundtrip_with_events_and_report(self, tmp_path):
        log = _session(cycles=5, with_analysis=True)
        path = tmp_path / "session.jsonl"
        write_session(log, path)
        back = read_jsonl(path)
        assert back.header == log.header
        assert back.events == log.events
        assert back.report == log.report
        for a, b in zip(log.samples, back.samples):
            assert a.timestamp == b.timestamp
            assert a.as_row() == b.as_row()

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_session(SessionLog(header=default_header()), path)
        back = read_jsonl(path)
        assert back.samples == [] and back.events == [] and back.report is None
        _assert_columns_equal_rows(path, read_jsonl)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "sample", "t_s": 0.0}\n')
        with pytest.raises(SessionFormatError, match=":1"):
            read_jsonl(path)

    def test_malformed_line_reports_number(self, tmp_path):
        log = _session(cycles=1)
        path = tmp_path / "bad.jsonl"
        write_session(log, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3][:-1]  # chop the closing brace
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SessionFormatError, match=":4"):
            read_jsonl(path)

    def test_csv_and_jsonl_carry_identical_samples(self, tmp_path):
        log = _session(cycles=3, noise=1_000.0)
        write_session(log, tmp_path / "s.csv")
        write_session(log, tmp_path / "s.jsonl")
        a = read_csv(tmp_path / "s.csv").samples
        b = read_jsonl(tmp_path / "s.jsonl").samples
        assert [(s.timestamp, s.as_row()) for s in a] == [(s.timestamp, s.as_row()) for s in b]
        _assert_columns_equal_rows(tmp_path / "s.csv", read_csv)
        _assert_columns_equal_rows(tmp_path / "s.jsonl", read_jsonl)

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
        for reader in (read_jsonl, read_session, read_columns):
            with pytest.raises(SessionFormatError, match=f":4: .*{message}"):
                reader(path)


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

    def test_csv_has_no_place_for_events_or_the_report(self, tmp_path):
        log = _session(cycles=3, with_analysis=True)
        assert log.events and log.report is not None
        text = _written(tmp_path / "s.csv", log).read_text()
        assert "{" not in text and text.count("\n") == len(log.samples) + 9


class TestFormatByContent:
    """Readers tell CSV from JSONL by content; only writers go by extension."""

    def test_misnamed_files_read_as_what_they_hold(self, tmp_path):
        log = _session(cycles=2, noise=1_000.0)
        write_session(log, tmp_path / "csv.csv")
        write_session(log, tmp_path / "jsonl.jsonl")
        (tmp_path / "csv.csv").rename(tmp_path / "csv_as.jsonl")
        (tmp_path / "jsonl.jsonl").rename(tmp_path / "jsonl_as.csv")
        for path, reader in ((tmp_path / "csv_as.jsonl", read_csv), (tmp_path / "jsonl_as.csv", read_jsonl)):
            back = read_session(path)
            assert back.header == log.header
            assert [(s.timestamp, s.as_row()) for s in back.samples] == [(s.timestamp, s.as_row()) for s in log.samples]
            _assert_columns_equal_rows(path, reader)

    def test_blank_lines_before_the_first_record(self, tmp_path):
        log = _session(cycles=1)
        write_session(log, tmp_path / "s.jsonl")
        path = tmp_path / "s.csv"
        path.write_text("\n  \n" + (tmp_path / "s.jsonl").read_text())
        assert read_session(path).header == log.header
        _assert_columns_equal_rows(path, read_jsonl)

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
        back = read_legacy_csv(path)
        assert len(back) == 15
        assert back[0] == LegacyRecord(0.0, 428589.8, 3342900.0)
        assert back == records

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2\n")
        with pytest.raises(SessionFormatError):
            read_legacy_csv(path)


class TestSniff:
    def test_kinds(self, tmp_path):
        write_session(_session(cycles=1), tmp_path / "a.csv")
        write_session(_session(cycles=1), tmp_path / "a.jsonl")
        write_legacy_csv(tmp_path / "legacy.csv", [LegacyRecord(0.0, 1.0, 2.0)])
        (tmp_path / "cal.csv").write_text("pressure_pa,resistance_ohm\n1,2\n")
        assert sniff_kind(tmp_path / "a.csv") == "session"
        assert sniff_kind(tmp_path / "a.jsonl") == "session_jsonl"
        assert sniff_kind(tmp_path / "legacy.csv") == "legacy"
        assert sniff_kind(tmp_path / "cal.csv") == "calibration"
        (tmp_path / "junk.txt").write_text("hello\n")
        with pytest.raises(SessionFormatError):
            sniff_kind(tmp_path / "junk.txt")
