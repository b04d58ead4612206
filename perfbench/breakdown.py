"""Per-layer breakdown of every workload, with the tracing overhead.

Usage (from the repository root)::

    python3 perfbench/breakdown.py --seed 0 [--workload NAME ...]

For each workload it makes one untraced and one traced run with the same
seed, prints the layers the workload touched (self time or count per
round), and the tracing overhead: how much lower the traced
``cloudlets_per_s`` is than the untraced one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from steady import one_run


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Per-layer breakdown and tracing overhead.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        plain = one_run(workload, args.seed, args.seconds)["metrics"]
        traced = one_run(workload, args.seed, args.seconds, trace=1)["metrics"]
        untraced_rate = plain["cloudlets_per_s"]["value"]
        traced_rate = traced["trace.cloudlets_per_s"]["value"]
        print(f"## {workload} (seed {args.seed})")
        print(f"cloudlets_per_s untraced {untraced_rate:.6g}, traced {traced_rate:.6g}: "
              f"tracing overhead {1 - traced_rate / untraced_rate:+.1%}")
        round_s = 0.0
        for name, entry in traced.items():
            if entry["value"] and name != "trace.cloudlets_per_s":
                print(f"  {name:34s} {entry['value']:14.6g} {entry['unit']}")
                if entry["unit"] == "s/round":
                    round_s += entry["value"]
        print(f"  {'sum of self times':34s} {round_s:14.6g} s/round\n", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
