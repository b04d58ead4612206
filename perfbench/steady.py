"""Same-code steadiness: two interleaved sets of runs of one checkout.

Usage (from the repository root)::

    python3 perfbench/steady.py --seed 0 [--runs 10] [--workload NAME ...]

Run ``i`` of both sets uses seed ``seed + i``; the sets alternate run by
run, so drift in the host's load falls on both.  For every (workload,
end-to-end metric) it prints each set's median and quartiles, the spread
(interquartile range over median), and how far set B's median moved from
set A's, next to the metric's bound in ``BENCHMARK.json``; the bounds
were set from this output.  Exits non-zero if a spread (``setup_s`` aside) or a median shift
exceeds its bound, or if the two sets' shares of failed operations
differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """The record of one ``run.py`` run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=180,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py --trace {trace} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Two interleaved sets of runs of one checkout.")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first run")
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    records: dict[tuple[str, str], list[dict]] = {}
    for i in range(args.runs):
        for workload in workloads:
            for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
                record = one_run(workload, args.seed + i, args.seconds)
                records.setdefault((workload, side), []).append(record)
                values = {k: round(v["value"], 4) for k, v in record["metrics"].items()}
                print(f"# run {i} {workload} {side}: {values}", flush=True)

    ok = True
    print(f"{'workload':22s} {'metric':16s} {'set':3s} {'q1':>12s} {'median':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'shift':>7s} {'bound':>6s}")
    for workload in workloads:
        shares = []
        for side in ("A", "B"):
            runs = records[(workload, side)]
            shares.append((sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)))
        if shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            print(f"{workload}: failed shares differ: {shares}")
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for side in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in records[(workload, side)]]
                q1, median, q3 = statistics.quantiles(values, n=4)
                medians.append(median)
                spread = (q3 - q1) / median
                shift = ""
                if side == "B":
                    worse = medians[1] - medians[0]
                    if metric["better"] == "higher":
                        worse = -worse
                    shift = f"{worse / medians[0]:+.3f}"
                    ok &= worse / medians[0] <= bound
                if name != "setup_s":
                    ok &= spread <= bound
                print(f"{workload:22s} {name:16s} {side:3s} {q1:12.4f} {median:12.4f} "
                      f"{q3:12.4f} {spread:7.3f} {shift:>7s} {bound:6.2f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
