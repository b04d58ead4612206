"""The benchmark command: one workload, measured from outside the program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in fresh processes (``worker.py``).  With ``--trace 0``
telemetry is off; ``SETUP_SAMPLES - 1`` set-up-only processes come
first, and ``setup_s`` is the median over them and the measuring one.
With ``--trace 1`` the measuring process records spans and prints the
per-layer metrics instead.  The last line of standard output is the
record, checked against ``BENCHMARK.json`` before it is printed: a
malformed record exits non-zero and prints nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: processes whose set-up is timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: a worker that runs longer than this is stopped and the run fails.
WORKER_TIMEOUT_S = 150


def validate(record: dict, spec: dict, trace: bool) -> list[str]:
    """Problems with ``record`` as the output of one run under ``spec``."""
    problems = []
    if set(record) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"record keys {sorted(record)}")
        return problems
    if not isinstance(record["correct"], bool):
        problems.append("correct is not a boolean")
    attempted, failed = record["attempted"], record["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int)):
        problems.append("attempted and failed must be whole numbers")
    elif not (attempted >= 1 and 0 <= failed <= attempted):
        problems.append(f"attempted {attempted}, failed {failed}")
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    metrics = record["metrics"]
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        problems.append(f"metrics missing {missing}, unexpected {extra}")
    for name, unit in units.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif value < 0 or (value == 0 and not trace):
            problems.append(f"{name}: value {value} must be {'>= 0' if trace else '> 0'}")
    return problems


def assemble(reports: list[dict], spec: dict, trace: bool) -> dict:
    """The run's record from its worker reports (the last one measured)."""
    measured = reports[-1]
    if trace:
        layers = measured["layers"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "cloudlets_per_s": measured["cloudlets_per_s"],
            "peak_rss_mib": measured["peak_rss_mib"],
        }
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    return {
        "correct": not measured["problems"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            name: {"value": value, "unit": units.get(name, "?")} for name, value in values.items()
        },
    }


def run_worker(root: Path, args, setup_only: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    t0 = time.monotonic()
    done = subprocess.run(
        [*command, "--t0", repr(t0)], cwd=root, env=env, stdout=subprocess.PIPE,
        text=True, timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}: {' '.join(command)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    trace = bool(args.trace)
    try:
        reports = [run_worker(root, args, setup_only=True) for _ in range(0 if trace else SETUP_SAMPLES - 1)]
        reports.append(run_worker(root, args, setup_only=False))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for problem in reports[-1]["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    record = assemble(reports, spec, trace)
    problems = validate(record, spec, trace)
    if problems:
        for problem in problems:
            print(f"malformed record: {problem}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
