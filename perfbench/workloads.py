"""The four benchmark workloads: set-up, one round of work, and its checks.

A workload's round is a fixed amount of work on inputs made from the
seed, so every round schedules the same cloudlets and a run reports the
median throughput of its rounds.  ``check`` compares a round's outputs
with ``reference`` computations or with properties the method must have;
it runs between rounds, outside the timing.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import reference

#: the paper's four schedulers (Fig. 4-6), batch form.
PAPER = ("antcolony", "basetest", "honeybee", "rbs")
#: the four native streaming schedulers.
STREAMING = ("basetest", "greedy-mct", "honeybee", "rbs")
#: Table IV homogeneous cloudlet length (MI) and VM speed (MIPS).
HOMOG_LENGTH = 250.0
HOMOG_MIPS = 1000.0


@dataclass
class Round:
    cloudlets: int
    attempted: int
    failed: int = 0
    outputs: object = None


@dataclass
class Workload:
    """Base: ``seed`` fixes every input; ``tracer`` is set on traced runs."""

    seed: int
    tracer: object = None

    def setup(self) -> None:
        pass

    def run_round(self) -> Round:
        raise NotImplementedError

    def check(self, outputs) -> list[str]:
        return []

    def finish(self) -> list[str]:
        """Checks over the whole run, before teardown."""
        return []

    def program_pids(self) -> list[int]:
        """Processes (with their descendants) that run the program."""
        return [os.getpid()]

    def teardown(self) -> None:
        pass


class PaperSweeps(Workload):
    """Scaled Fig. 4a/5a homogeneous sweep (fast engine) + Fig. 6 sweep (DES).

    Run as ``python -m repro.experiments`` runs a figure: ``run_sweep``
    over the preset's grid, then ``aggregate``.  The seeds come from the
    benchmark seed: Fig. 5a uses ``(seed,)`` and Fig. 6 uses
    ``(3 seed, 3 seed + 1, 3 seed + 2)``, so seed 0 is the preset's own.
    """

    FIGURES = ("fig5a", "fig6a")

    def __init__(self, seed: int, tracer=None, preset: str = "scaled"):
        super().__init__(seed, tracer)
        self.preset = preset
        self.des: list = []

    def setup(self) -> None:
        from repro.experiments import runner
        from repro.experiments.figures import aggregate, get_experiment

        self._runner = runner
        self._aggregate = aggregate
        self.sweeps = []
        for figure in self.FIGURES:
            definition = get_experiment(figure)
            seeds = (
                (self.seed,)
                if definition.engine == "fast"
                else tuple(3 * self.seed + k for k in range(3))
            )
            self.sweeps.append((definition, replace(definition.config(self.preset), seeds=seeds)))
        self.cloudlets = sum(
            len(cfg.vm_counts) * len(cfg.seeds) * cfg.num_cloudlets * len(d.schedulers)
            for d, cfg in self.sweeps
        )
        self.points = sum(
            len(cfg.vm_counts) * len(cfg.seeds) * len(d.schedulers) for d, cfg in self.sweeps
        )
        # Keep what the DES produced so its finish times can be checked;
        # a pass-through that stores references, nothing is computed here.
        run_point = runner.run_point

        def capturing(scenario, scheduler, seed, engine="des", **kwargs):
            result = run_point(scenario, scheduler, seed, engine=engine, **kwargs)
            if engine == "des":
                self.des.append((scenario, result.assignment, result.finish_times))
            return result

        runner.run_point = capturing

    def run_round(self) -> Round:
        self.des = []
        figures = []
        for definition, cfg in self.sweeps:
            records = self._runner.run_sweep(
                scenario_factory=definition.scenario_factory(),
                scheduler_factories=cfg.make_schedulers(definition.schedulers),
                vm_counts=cfg.vm_counts,
                num_cloudlets=cfg.num_cloudlets,
                seeds=cfg.seeds,
                engine=definition.engine,
            )
            figures.append((definition, self._aggregate(definition, records, list(cfg.vm_counts))))
        return Round(self.cloudlets, self.points, outputs=(figures, self.des))

    def check(self, outputs) -> list[str]:
        figures, des = outputs
        problems = []
        records = [r for _, data in figures for r in data.records]
        if len(records) != self.points:
            problems.append(f"{len(records)} sweep records, expected {self.points}")
        for scenario, assignment, finish in des:
            lengths = np.array([c.length for c in scenario.cloudlets])
            mips = np.array([v.mips for v in scenario.vms])
            if not np.array_equal(reference.fifo_finish_times(assignment, lengths, mips), finish):
                problems.append(f"DES finish times differ from per-VM FIFO on {scenario.name}")
        for definition, data in figures:
            if definition.scenario_kind == "homogeneous":
                for r in data.records:
                    best = reference.homogeneous_optimum(
                        r.num_cloudlets, r.num_vms, HOMOG_LENGTH, HOMOG_MIPS
                    )
                    exact = r.scheduler != "basetest" or r.makespan == best
                    if not (exact and best <= r.makespan <= 1.1 * best):
                        problems.append(
                            f"{r.scheduler} makespan {r.makespan} at {r.num_vms} VMs "
                            f"outside [{best}, {1.1 * best}]"
                        )
            else:
                problems += _fig6_orderings(data.records)
        return problems


def _fig6_orderings(records) -> list[str]:
    """The Fig. 6 orderings of tests/integration/test_paper_shapes.py, on sweep means."""

    def mean(metric):
        return {
            name: float(np.mean([getattr(r, metric) for r in records if r.scheduler == name]))
            for name in PAPER
        }

    problems = []
    makespan, cost, sched = mean("makespan"), mean("total_cost"), mean("scheduling_time")
    if min(makespan, key=makespan.get) != "antcolony":
        problems.append(f"antcolony is not the lowest mean makespan: {makespan}")
    if min(cost, key=cost.get) != "honeybee":
        problems.append(f"honeybee is not the lowest mean cost: {cost}")
    if not sched["basetest"] < sched["rbs"] < sched["honeybee"] < sched["antcolony"]:
        problems.append(f"scheduling time not basetest < rbs < honeybee < antcolony: {sched}")
    return problems


class StreamHetero(Workload):
    """Serial heterogeneous stream over 1000 VMs, four streaming schedulers."""

    def __init__(self, seed: int, tracer=None, num_vms: int = 1000, num_cloudlets: int = 125_000):
        super().__init__(seed, tracer)
        self.num_vms = num_vms
        self.num_cloudlets = num_cloudlets

    def setup(self) -> None:
        from repro.cloud.fast import StreamingSimulation
        from repro.schedulers.streaming import make_streaming_scheduler
        from repro.workloads.streaming import heterogeneous_stream

        self._simulation = StreamingSimulation
        self._make = make_streaming_scheduler
        self.stream = heterogeneous_stream(self.num_vms, self.num_cloudlets, seed=self.seed)
        lengths = np.concatenate([chunk.cloudlet_length for _, chunk in self.stream])
        self.total_mi = float(np.sum(lengths))
        self.max_length = float(lengths.max())
        self.vm_mips = np.array(self.stream.vm_mips, dtype=float)

    def run_round(self) -> Round:
        results = [
            self._simulation(self.stream, self._make(name), seed=self.seed).run()
            for name in STREAMING
        ]
        return Round(len(STREAMING) * self.num_cloudlets, len(STREAMING), outputs=results)

    def check(self, results) -> list[str]:
        problems = []
        lower, upper = reference.makespan_bounds(
            self.total_mi, float(self.vm_mips.sum()), self.num_vms, self.max_length
        )
        for name, result in zip(STREAMING, results):
            vm_mi = np.asarray(result.vm_finish_times) * self.vm_mips
            error = abs(float(vm_mi.sum()) - self.total_mi) / self.total_mi
            if result.num_cloudlets != self.num_cloudlets or error >= 1e-12:
                problems.append(f"{name}: per-VM MI sums off the stream total by {error:.3g}")
            if result.makespan < lower * (1 - 1e-12):
                problems.append(f"{name}: makespan {result.makespan} below W/S = {lower}")
            if name == "greedy-mct" and result.makespan > upper * (1 + 1e-12):
                problems.append(f"greedy-mct makespan {result.makespan} above (W + m p_max)/S = {upper}")
        return problems


class StreamHomogSharded(Workload):
    """Homogeneous 1000-VM stream sharded over ``nproc`` pool workers."""

    def __init__(self, seed: int, tracer=None, num_cloudlets: int = 20_000_000, num_vms: int = 1000):
        super().__init__(seed, tracer)
        self.num_vms = num_vms
        self.num_cloudlets = num_cloudlets
        self.shards = len(os.sched_getaffinity(0))

    def setup(self) -> None:
        from repro.cloud.fast import StreamingSimulation
        from repro.schedulers.streaming import make_streaming_scheduler
        from repro.workloads.streaming import DEFAULT_CHUNK_SIZE, homogeneous_stream

        self._simulation = StreamingSimulation
        self._make = make_streaming_scheduler
        self.stream = homogeneous_stream(self.num_vms, self.num_cloudlets, seed=self.seed)
        # Spawn the shard pool (and its imports) before timing starts.
        warm = homogeneous_stream(
            self.num_vms, 2 * self.shards * DEFAULT_CHUNK_SIZE, seed=self.seed
        )
        StreamingSimulation(warm, make_streaming_scheduler("basetest"), seed=self.seed,
                            shards=self.shards).run()

    def run_round(self) -> Round:
        if self.tracer is not None and self.tracer.on:
            # Chunks are generated inside the workers, out of the parent's
            # sight, so time one generation-only pass here.
            for _ in self.stream:
                pass
        results = [
            self._simulation(self.stream, self._make(name), seed=self.seed,
                             shards=self.shards).run()
            for name in STREAMING
        ]
        return Round(len(STREAMING) * self.num_cloudlets, len(STREAMING), outputs=results)

    def check(self, results) -> list[str]:
        best = reference.homogeneous_optimum(
            self.num_cloudlets, self.num_vms, HOMOG_LENGTH, HOMOG_MIPS
        )
        return [
            f"{name}: makespan {r.makespan} != ceil(n/m) L/MIPS = {best}"
            for name, r in zip(STREAMING, results)
            if r.makespan != best or r.num_cloudlets != self.num_cloudlets
        ]

    def teardown(self) -> None:
        from repro.cloud.fast import shutdown_shard_pool

        shutdown_shard_pool()


class ServeClosed(Workload):
    """``repro.experiments serve`` driven in a closed loop over keep-alive connections.

    Two fleets of 500 heterogeneous VMs, one basetest and one greedy-mct.
    A round replays one seeded ``TraceSpec`` per fleet (requests of 1-32
    cloudlets), interleaved, over ``nproc`` keep-alive connections; each
    keeps ``WINDOW`` requests outstanding and sends the next one only when
    a reply arrives.
    """

    FLEETS = (("rr", "basetest"), ("mct", "greedy-mct"))
    #: requests each connection keeps outstanding.  With one, the server
    #: idled between a reply and the next request and the throughput
    #: followed the host's wake-up latency; with four it stays busy.
    WINDOW = 4

    def __init__(self, seed: int, tracer=None, num_vms: int = 500, requests: int = 250,
                 server_trace: "Path | None" = None):
        super().__init__(seed, tracer)
        self.num_vms = num_vms
        self.requests = requests
        self.connections = len(os.sched_getaffinity(0))
        self.server_trace = server_trace
        self.server = None
        self.loop = None
        self.conns = []

    def setup(self) -> None:
        from repro.serve import FleetSpec
        from repro.serve.loadgen import TraceSpec, build_trace

        self.specs = [
            FleetSpec(name=name, scheduler=scheduler, family="heterogeneous",
                      num_vms=self.num_vms, seed=self.seed)
            for name, scheduler in self.FLEETS
        ]
        self.traces = [
            build_trace(TraceSpec(requests=self.requests, seed=2 * self.seed + k))
            for k in range(len(self.FLEETS))
        ]
        self.requests_bytes = [
            [_request(b"POST", f"/v1/fleets/{name}/submit".encode(), trace.body(i))
             for i in range(self.requests)]
            for (name, _), trace in zip(self.FLEETS, self.traces)
        ]
        self.order = [(f, i) for i in range(self.requests) for f in range(len(self.FLEETS))]
        self.cloudlets = sum(trace.num_cloudlets for trace in self.traces)
        #: per fleet, per round: offsets, trace indices, sizes, placements.
        self.accepted = [[] for _ in self.FLEETS]
        self.failures = 0
        self._start_server()
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            # Client and server on cores of their own: measured on this
            # 2-vCPU host, sharing cores both lowers and scatters throughput.
            os.sched_setaffinity(self.server.pid, set(cpus[1:]))
            os.sched_setaffinity(0, {cpus[0]})
        self.loop = asyncio.new_event_loop()
        for _ in range(self.connections):
            self.conns.append(
                self.loop.run_until_complete(asyncio.open_connection("127.0.0.1", self.port))
            )
        reader, writer = self.conns[0]
        writer.write(_request(b"GET", b"/healthz", b""))
        status, body = self.loop.run_until_complete(_read_response(reader))
        if status != 200 or sorted(json.loads(body)["fleets"]) != sorted(n for n, _ in self.FLEETS):
            raise RuntimeError(f"server not ready: {status} {body!r}")

    def _start_server(self) -> None:
        fleets = []
        for name, scheduler in self.FLEETS:
            fleets += ["--fleet", f"{name}={scheduler}:heterogeneous:{self.num_vms}:{self.seed}"]
        cli = ["serve", "--host", "127.0.0.1", "--port", "0", *fleets]
        if self.server_trace is None:
            command = [sys.executable, "-m", "repro.experiments", *cli]
        else:
            launcher = Path(__file__).with_name("serve_launcher.py")
            command = [sys.executable, str(launcher), str(self.server_trace), *cli, "--telemetry"]
        self.server = subprocess.Popen(
            command, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
            env=dict(os.environ, PYTHONUNBUFFERED="1"), preexec_fn=_die_with_parent,
        )
        for line in self.server.stdout:
            if line.startswith("serving on http://"):
                self.port = int(line.split()[2].rsplit(":", 1)[1])
                return
        raise RuntimeError(f"server exited with {self.server.wait()} before listening")

    def run_round(self) -> Round:
        self.replies = []
        before = self.failures
        self.loop.run_until_complete(self._closed_loop())
        return Round(self.cloudlets, len(self.order), self.failures - before, self.replies)

    async def _closed_loop(self) -> None:
        pending = iter(self.order)

        async def drive(reader, writer):
            # Closed loop with a window: a reply releases the next request.
            inflight = collections.deque()

            def send() -> None:
                for f, i in itertools.islice(pending, 1):
                    writer.write(self.requests_bytes[f][i])
                    inflight.append((f, i))

            for _ in range(self.WINDOW):
                send()
            while inflight:
                await writer.drain()
                status, body = await _read_response(reader)
                f, i = inflight.popleft()
                if status == 200:
                    self.replies.append((f, i, body))
                else:
                    self.failures += 1
                send()

        await asyncio.gather(*(drive(*conn) for conn in self.conns))

    def check(self, replies) -> list[str]:
        """Keep the round's placements compactly; check basetest's as they come."""
        problems = []
        for f, spec in enumerate(self.specs):
            decoded = [(json.loads(body), i) for g, i, body in replies if g == f]
            offsets = np.array([reply["offset"] for reply, _ in decoded], dtype=np.int64)
            sizes = np.array([reply["count"] for reply, _ in decoded], dtype=np.int64)
            placed = np.array(
                [p for reply, _ in decoded for p in reply["placements"]], dtype=np.int32
            )
            self.accepted[f].append(
                (offsets, np.array([i for _, i in decoded], dtype=np.int32), sizes, placed)
            )
            if spec.scheduler == "basetest" and sizes.size:
                expected = np.concatenate(
                    [reference.round_robin(o, k, spec.num_vms) for o, k in zip(offsets, sizes)]
                )
                if not np.array_equal(placed, expected):
                    problems.append(f"fleet {spec.name}: placements not (offset + i) mod m")
        return problems

    def program_pids(self) -> list[int]:
        # The client is the benchmark's own load generator.
        return [self.server.pid]

    def finish(self) -> list[str]:
        """Live placements against the offline engine, over the whole run."""
        from repro.serve import concat_batches, offline_assignments

        problems = []
        for f, (spec, trace) in enumerate(zip(self.specs, self.traces)):
            offsets, index, sizes, placed = (
                np.concatenate(column) for column in zip(*self.accepted[f])
            )
            starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
            order = np.argsort(offsets, kind="stable")
            if not np.array_equal(offsets[order], np.concatenate([[0], np.cumsum(sizes[order])[:-1]])):
                problems.append(f"fleet {spec.name}: admission offsets not contiguous")
                continue
            live = np.concatenate(
                [placed[starts[j]:starts[j] + sizes[j]] for j in order.tolist()]
            ).astype(np.int64)
            admitted = concat_batches([trace.batch(int(index[j])) for j in order.tolist()])
            if not np.array_equal(offline_assignments(spec, admitted), live):
                problems.append(f"fleet {spec.name}: live placements differ from offline_assignments")
            if spec.scheduler == "greedy-mct":
                problems += _check_mct_sample(
                    spec, admitted.cloudlet_length, live, np.random.default_rng(self.seed)
                )
        return problems

    def teardown(self) -> None:
        if self.loop is not None:
            try:
                self.loop.run_until_complete(_close(self.conns))
            finally:
                self.loop.close()
                self.loop = None
        if self.server is not None and self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        if self.server is not None:
            self.server.stdout.close()
            self.server = None


def _die_with_parent() -> None:
    """Have the kernel send SIGTERM to this child if its parent dies first."""
    import ctypes

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL("libc.so.6", use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


async def _close(conns) -> None:
    for _, writer in conns:
        writer.close()
    await asyncio.gather(*(writer.wait_closed() for _, writer in conns), return_exceptions=True)


def _check_mct_sample(spec, lengths, live, rng, samples: int = 256) -> list[str]:
    """Re-derive sampled greedy-MCT placements from the fleet's running backlog."""
    mips = np.asarray(spec.fleet_stream().vm_mips, dtype=float)
    picks = np.sort(rng.choice(live.shape[0], size=min(samples, live.shape[0]), replace=False))
    exec_times = lengths / mips[live]
    ready = np.zeros(mips.shape[0])
    done = 0
    for i in picks.tolist():
        ready += np.bincount(live[done:i], weights=exec_times[done:i], minlength=mips.shape[0])
        done = i
        if not reference.mct_choice_ok(ready, float(lengths[i]), mips, int(live[i])):
            return [f"fleet {spec.name}: cloudlet {i} not placed at minimum completion time"]
    return []


def _request(method: bytes, path: bytes, body: bytes) -> bytes:
    """One HTTP/1.1 keep-alive request."""
    return (
        method + b" " + path + b" HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )


async def _read_response(reader) -> tuple[int, bytes]:
    """The next HTTP/1.1 response on the connection: (status, body bytes)."""
    status = int((await reader.readuntil(b"\r\n")).split()[1])
    length = 0
    while (line := await reader.readuntil(b"\r\n")) != b"\r\n":
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


WORKLOADS = {
    "paper-sweeps": PaperSweeps,
    "stream-hetero": StreamHetero,
    "stream-homog-sharded": StreamHomogSharded,
    "serve-closed": ServeClosed,
}
