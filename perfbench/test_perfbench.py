"""Self-tests of the benchmark: every workload at smoke size, and its checks.

    python3 -m pytest perfbench -q

The live tests each wait out ``Collector.stop()``, about 10 s at the time of
writing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import batch
import common
import live
import run
from common import BENCH_DIR, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _assert_clean(outcome) -> None:
    assert outcome.correct, outcome.checks
    assert outcome.failed == 0 and outcome.attempted > 0
    assert all(outcome.checks.values()), outcome.checks
    assert all(v > 0 for k, v in outcome.end_to_end.items()), outcome.end_to_end


@pytest.mark.parametrize("run", [batch.run_simulate, batch.run_analyze, live.run_live])
def test_workload_smoke_traced(run, tmp_path):
    outcome = run(1, 1, True, tmp_path)
    _assert_clean(outcome)
    assert outcome.spans
    assert {"traced_equals_cli", "replay_equals_sunk"} & set(outcome.checks)


def test_tampered_simulate_output_fails(tmp_path):
    def tamper(i, path):
        if i == 1:  # change the last digit of the last value
            data = path.read_bytes()
            digit = b"1" if data[-2:-1] != b"1" else b"2"
            path.write_bytes(data[:-2] + digit + data[-1:])

    outcome = batch.run_simulate(1, 1, False, tmp_path, tamper=tamper)
    assert outcome.failed == 1
    assert not outcome.correct


def test_sink_dropping_one_frame_fails(tmp_path):
    dropped = 1.2  # timestamp of a sample in the first unpaced round at smoke size

    def drop(device, sample):
        return device == 2 and sample.timestamp == dropped

    outcome = live.run_live(1, 1, False, tmp_path, drop=drop)
    assert outcome.failed == 1
    assert outcome.failed / outcome.attempted > 0
    assert not outcome.correct


def test_units_are_scaled_by_the_reference_kernel_around_them(monkeypatch):
    kernel = iter([0.02, 0.04])  # the host slowed down during the unit
    monkeypatch.setattr(common, "reference_seconds", lambda: next(kernel))
    clock = common.Referenced()
    assert clock.unit(lambda: ("result", 0.3)) == "result"
    assert clock.walls == [0.3]
    assert clock.scaled == [pytest.approx(0.3 * common.REFERENCE_S / 0.03)]


def test_missing_layer_metric_fails_unless_not_driven():
    wanted = [{"name": "acquisition.decode_per_s", "unit": "1/s"},
              {"name": "telemetry.gaps", "unit": "count"}]
    with pytest.raises(RuntimeError, match="acquisition.decode_per_s"):
        run.select_metrics("simulate", wanted, {"telemetry.gaps": 0}, True)
    metrics = run.select_metrics("simulate", wanted, {"acquisition.decode_per_s": 5.0}, True)
    assert metrics["telemetry.gaps"] == {"value": 0.0, "unit": "count"}
    with pytest.raises(RuntimeError, match="telemetry.gaps"):
        run.select_metrics("live", wanted, {"acquisition.decode_per_s": 5.0}, True)


def _result(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_every_metric(trace, key):
    proc, lines = _result(["--workload", "simulate", "--seed", "3", "--seconds", "1",
                           "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == sorted(m["name"] for m in SPEC[key])
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = _result(["--workload", "simulate", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert not any('"correct"' in line for line in lines)
