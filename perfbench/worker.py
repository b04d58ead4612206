"""One workload in a fresh process: set up, run rounds for a while, check, report.

Started by ``run.py``; prints one JSON object as its last line.  With
``--setup-only`` it stops after set-up and reports only ``setup_s``, the
time since ``--t0`` (the launcher's ``time.monotonic()`` just before it
started this process, so interpreter start and imports are included).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

#: where traced runs write their spans, under the checkout root.
TRACE_DIR = Path(".perfbench")


def _descendants(pid: int) -> list[int]:
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            children = (task / "children").read_text().split()
        except OSError:
            continue
        for child in map(int, children):
            found += [child, *_descendants(child)]
    return found


def peak_rss_mib(pids: list[int]) -> float:
    """Sum of VmHWM over ``pids`` and every live descendant of them, in MiB."""
    total_kib = 0
    for pid in [p for root in pids for p in (root, *_descendants(root))]:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


def fast_rounds(rates: list[float]) -> float:
    """The 90th percentile of per-round throughput.

    Load from outside the run only ever slows a round down: on the
    2-vCPU reference host a fixed loop ran 0.08-0.20 s from one sample to
    the next, and its 5-second means drifted by +-13 %.  The fast rounds
    are the ones the host left alone, so they vary least between runs.
    """
    if len(rates) == 1:
        return rates[0]
    return statistics.quantiles(rates, n=10, method="inclusive")[8]


def measure(workload, seconds: float) -> dict:
    """Run whole rounds for about ``seconds``: at least one, none that would end late."""
    tracer = workload.tracer
    if tracer is not None:
        from repro import obs

        obs.enable()
        counters: dict[str, int] = {}
    rounds = attempted = failed = 0
    busy = 0.0
    rates: list[float] = []
    problems: list[str] = []
    phase_start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            before = obs.snapshot()
            tracer.on = True
        t0 = time.perf_counter()
        done = workload.run_round()
        elapsed = time.perf_counter() - t0
        busy += elapsed
        if tracer is not None:
            tracer.on = False
            for name, value in obs.snapshot().diff(before).counters.items():
                counters[name] = counters.get(name, 0) + value
        rates.append(done.cloudlets / elapsed)
        rounds += 1
        attempted += done.attempted
        failed += done.failed
        problems += workload.check(done.outputs)
        # Stop before a round that would end past the deadline.
        now = time.perf_counter()
        if now + (now - t0) > phase_start + seconds:
            break
    # Read before the whole-run checks, whose memory is the benchmark's own.
    peak_rss = peak_rss_mib(workload.program_pids())
    problems += workload.finish()
    report = {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "cloudlets_per_s": fast_rounds(rates),
        "peak_rss_mib": peak_rss,
    }
    if tracer is not None:
        report["layers"] = {"trace.cloudlets_per_s": fast_rounds(rates)}
        report["since"] = phase_start
        report["busy"] = busy
        report["counters"] = counters
    return report


#: program counters reported as per-layer counts.
COUNTERS = (
    "optim.evaluations",
    "kernel.rows_computed",
    "kernel.rows_memoised",
    "core.events_dispatched",
    "rbs.walk_hops",
)


def layer_metrics(workload, counters: dict, rounds: int, since: float, busy: float) -> dict:
    """Per-round self times and counts of every layer the run touched."""
    from spans import inclusive_time, self_times

    tracer = workload.tracer
    totals = self_times(tracer.spans)
    for name, value in tracer.extra.items():
        totals[name] = totals.get(name, 0.0) + value
    for name in COUNTERS:
        if name in counters:
            totals[name] = counters[name]
    server = getattr(workload, "server_trace", None)
    if server is not None:
        spans, snapshot = read_trace(server)
        for name, value in self_times(spans, since).items():
            totals[name] = totals.get(name, 0.0) + value
        # Round time the server spent outside request handling: reading
        # requests, the event loop, sockets, the client, and idling.
        totals["serve.transport_s"] = busy - inclusive_time(spans, "serve.handle", since)
        totals["serve.requests"] = snapshot["counters"].get("serve.requests", 0)
    tracer.dump(TRACE_DIR / f"{tracer.run_id}.jsonl")
    return {name: value / rounds for name, value in totals.items()}


def read_trace(path: Path):
    """Spans and the ``repro.obs`` snapshot a traced server wrote."""
    spans, snapshot = [], {"counters": {}}
    with path.open() as lines:
        for line in lines:
            row = json.loads(line)
            if "name" in row:
                spans.append([row["name"], row["start"], row["end"], row["parent"]])
            elif "snapshot" in row:
                snapshot = row["snapshot"]
    return spans, snapshot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    kwargs = {}
    tracer = None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer(f"{args.workload}-{args.seed}")
        install(tracer)
        if args.workload == "serve-closed":
            kwargs["server_trace"] = TRACE_DIR / f"{tracer.run_id}-server.jsonl"
    workload = WORKLOADS[args.workload](args.seed, tracer=tracer, **kwargs)
    try:
        workload.setup()
        setup_s = time.monotonic() - args.t0
        report = {"setup_s": setup_s}
        if not args.setup_only:
            report.update(measure(workload, args.seconds))
    finally:
        workload.teardown()
    if "layers" in report:
        # After teardown: a traced server writes its spans when it stops.
        report["layers"].update(
            layer_metrics(workload, report.pop("counters"), report["rounds"],
                          report.pop("since"), report.pop("busy"))
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
