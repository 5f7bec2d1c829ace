"""Benchmark entry point.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One workload per call. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Names and
units come from BENCHMARK.json. The line before it carries the environment,
the input properties and every output check. The exit code is 1 when an
output check failed. ``--workload all`` runs every workload untraced and
traced, prints every metric with its unit, and fails if any run failed.

Each run also writes its result to ``perfbench/out/`` and, when traced, its
spans.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

# Per-layer metrics of the layers a workload does not drive, by name prefix:
# they read 0 there (see README.md). Every other metric must be produced.
NOT_DRIVEN = {
    "simulate": ("telemetry.", "analysis.", "store.read_per_s"),
    "analyze": ("telemetry.", "analysis.sink_busy_share"),
    "live": ("store.", "cli."),
}


def load_spec() -> dict:
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def select_metrics(workload: str, wanted: list[dict], produced: dict, trace: bool) -> dict:
    """The ``wanted`` metrics with their units; raise if one the workload drives is missing."""
    not_driven = NOT_DRIVEN[workload] if trace else ()
    missing = [
        m["name"] for m in wanted
        if m["name"] not in produced and not m["name"].startswith(not_driven)
    ]
    if missing:
        raise RuntimeError(f"workload {workload} produced no value for {missing}")
    return {
        m["name"]: {"value": float(produced.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted
    }


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    from common import environment  # imports the package: fails without src/

    import batch
    import live

    runners = {"simulate": batch.run_simulate, "analyze": batch.run_analyze, "live": live.run_live}
    spec = load_spec()
    env = environment(seed)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{workload}-{seed}-{time.monotonic_ns()}"
    workdir.mkdir()
    try:
        outcome = runners[workload](seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    produced = dict(outcome.end_to_end)
    produced.update(outcome.layers)
    produced.update({f"input.{k}": v for k, v in outcome.inputs.items()})
    produced.update({f"acquisition.{k}": v for k, v in outcome.inputs.items() if k.endswith("_share")})
    metrics = select_metrics(workload, wanted, produced, trace)
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "trace": trace,
        "environment": env,
        "inputs": outcome.inputs,
        "checks": outcome.checks,
        "failed_share": outcome.failed / outcome.attempted,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }
    stem = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(
        json.dumps({**detail, **result, "timings": outcome.timings}, indent=2) + "\n"
    )
    if trace:
        stem.with_suffix(".spans.json").write_text(json.dumps(outcome.spans) + "\n")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if outcome.correct else 1


def run_all(seed: int, seconds: int) -> int:
    spec = load_spec()
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=BENCH_DIR.parent,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                status = 1
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            if len(lines) < 2:
                continue
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"failed_share={detail['failed_share']:.6g} "
                  f"({result['failed']}/{result['attempted']}) checks={detail['checks']}")
            if trace == 0:
                print(f"  inputs: {detail['inputs']}")
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in {w["name"] for w in load_spec()["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
