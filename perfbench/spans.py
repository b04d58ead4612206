"""Per-call span recording around the program's public functions.

A traced run installs wrappers from this module; an untraced run never
imports the program through them, so its timings carry no tracing cost.
Every span keeps its name, start, end, parent and run id in memory and
is written out once, when the run ends.  The program's own
``repro.obs`` spans are routed through the same recorder, so they nest
with the benchmark's spans in one tree.

A layer's self time is its span minus the spans of other layers inside
it.  Spans that name no layer (``sim.schedule``, ``hbo.forage``, ...)
are transparent: their time goes to the nearest enclosing layer.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from time import perf_counter


class Tracer:
    """In-memory span store for one process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: one ``[name, start, end, parent_index]`` per span, in entry order.
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: quantities measured elsewhere (worker snapshots): metric -> value.
        self.extra: dict[str, float] = {}
        self.on = False

    def span(self, name: str) -> "_Live":
        return _Live(self, name)

    def add(self, metric: str, value: float) -> None:
        if self.on:
            self.extra[metric] = self.extra.get(metric, 0.0) + value

    def wrap(self, name: str, fn):
        """``fn`` timed as span ``name`` while the tracer is on."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            with _Live(self, name):
                return fn(*args, **kwargs)

        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "run": self.run_id}
                    )
                    + "\n"
                )
            out.write(json.dumps({"extra": self.extra, "run": self.run_id}) + "\n")


class _Live:
    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        stack = tracer._stack
        self._index = len(tracer.spans)
        tracer.spans.append([name, 0.0, None, stack[-1] if stack else None])

    def __enter__(self) -> "_Live":
        self._tracer._stack.append(self._index)
        self._tracer.spans[self._index][1] = perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._tracer.spans[self._index][2] = perf_counter()
        self._tracer._stack.pop()
        return False


class _Both:
    """A ``repro.obs`` span that is also recorded by the tracer."""

    __slots__ = ("_mine", "_theirs")

    def __init__(self, mine, theirs) -> None:
        self._mine = mine
        self._theirs = theirs

    def __enter__(self):
        self._mine.__enter__()
        self._theirs.__enter__()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._theirs.__exit__(*exc_info)
        self._mine.__exit__(*exc_info)
        return False


#: program span name -> layer metric; other program spans are transparent.
_OBS_LAYERS = {
    "hbo.scout": "hbo.scout_s",
    "optim.run": "optim.run_s",
    "sim.build": "cloud.build_s",
    "sim.execute": "cloud.execute_s",
    "sim.reduce": "cloud.reduce_s",
}

#: benchmark span name -> layer metric.
_OWN_LAYERS = {
    "workloads.generate": "workloads.generate_s",
    "core.run": "core.run_s",
    "cloud.execute_shard": "cloud.fold_s",
    "cloud.stream_run": "cloud.merge_s",
    "cloud.wait": "cloud.wait_s",
    "serve.parse": "serve.parse_s",
    "serve.service_submit": "serve.submit_s",
    "serve.handle": "serve.handle_s",
    "experiments.run_point": "experiments.overhead_s",
}

_SCHEDULER_SPANS = ("schedule", "open", "assign", "plan_carries")


def layer_of(name: str, parent_layer: "str | None") -> "str | None":
    """The layer metric a span's self time counts toward (None = transparent)."""
    if parent_layer == "cloud.fold_s" and name.startswith("sim."):
        # Inside a shard the program's sim.* spans wrap the fold itself.
        return None
    if name in _OWN_LAYERS:
        return _OWN_LAYERS[name]
    if name in _OBS_LAYERS:
        return _OBS_LAYERS[name]
    parts = name.split(".", 2)
    if len(parts) == 3 and parts[0] == "schedulers" and parts[1] in _SCHEDULER_SPANS:
        return f"schedulers.{parts[1]}_s.{parts[2]}"
    return None


def self_times(spans: "list[list]", since: float = float("-inf")) -> dict[str, float]:
    """Seconds of self time per layer metric, over spans starting at ``since`` or later.

    ``spans`` are ``[name, start, end, parent]`` rows in entry order, so a
    parent always precedes its children.
    """
    layer: list = [None] * len(spans)
    own = [0.0] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None:
            continue
        inherited = layer[parent] if parent is not None else None
        mine = layer_of(name, inherited)
        layer[i] = mine if mine is not None else inherited
        own[i] += end - start
        if parent is not None:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None or start < since or layer[i] is None:
            continue
        totals[layer[i]] = totals.get(layer[i], 0.0) + own[i]
    return totals


def inclusive_time(spans: "list[list]", name: str, since: float = float("-inf")) -> float:
    """Total duration of the outermost spans called ``name``."""
    total = 0.0
    for span_name, start, end, parent in spans:
        if span_name != name or end is None or start < since:
            continue
        if parent is not None and spans[parent][0] == name:
            continue
        total += end - start
    return total


def install(tracer: Tracer) -> None:
    """Wrap the layers' public entry points so calls record spans.

    Wrappers pass calls through untouched while ``tracer.on`` is False, so
    set-up and correctness checks stay out of the breakdown.
    """
    from repro.cloud import fast
    from repro.core.engine import Simulation
    from repro.experiments import figures, runner
    from repro.obs.telemetry import Telemetry
    from repro.schedulers import PAPER_SCHEDULERS, SCHEDULER_REGISTRY
    from repro.schedulers.streaming import STREAMING_SCHEDULERS
    from repro.serve import http, service
    from repro.workloads.streaming import ScenarioChunks

    obs_span = Telemetry.span

    def both_span(telemetry, name):
        theirs = obs_span(telemetry, name)
        return _Both(_Live(tracer, name), theirs) if tracer.on else theirs

    Telemetry.span = both_span

    figures.ScenarioFamily.__call__ = tracer.wrap(
        "workloads.generate", figures.ScenarioFamily.__call__
    )
    iter_range = ScenarioChunks.iter_range

    @functools.wraps(iter_range)
    def traced_iter_range(self, *args, **kwargs):
        chunks = iter_range(self, *args, **kwargs)
        while True:
            if tracer.on:
                with _Live(tracer, "workloads.generate"):
                    item = next(chunks, None)
                tracer.add("workloads.chunks", 0 if item is None else 1)
            else:
                item = next(chunks, None)
            if item is None:
                return
            yield item

    ScenarioChunks.iter_range = traced_iter_range

    for name in PAPER_SCHEDULERS:
        cls = SCHEDULER_REGISTRY[name]
        cls.schedule = tracer.wrap(f"schedulers.schedule.{name}", cls.schedule)
    for name, cls in STREAMING_SCHEDULERS.items():
        cls.open = _wrap_open(tracer, name, cls.open)
        cls.plan_carries = tracer.wrap(f"schedulers.plan_carries.{name}", cls.plan_carries)

    Simulation.run = tracer.wrap("core.run", Simulation.run)
    runner.run_point = tracer.wrap("experiments.run_point", runner.run_point)
    fast.StreamingSimulation.run = tracer.wrap("cloud.stream_run", fast.StreamingSimulation.run)
    fast.execute_shard = tracer.wrap("cloud.execute_shard", fast.execute_shard)
    make_pool = fast._shard_pool
    fast._shard_pool = lambda workers: _TracedPool(tracer, make_pool(workers))

    http.decode_json = tracer.wrap("serve.parse", http.decode_json)
    service.parse_submission = tracer.wrap("serve.parse", service.parse_submission)
    service.SchedulerService.submit = tracer.wrap(
        "serve.service_submit", service.SchedulerService.submit
    )
    http.ServeHTTP._route = tracer.wrap("serve.handle", http.ServeHTTP._route)
    http._encode_response = tracer.wrap("serve.handle", http._encode_response)


def _wrap_open(tracer: Tracer, name: str, open_fn):
    opened = tracer.wrap(f"schedulers.open.{name}", open_fn)

    @functools.wraps(open_fn)
    def traced_open(*args, **kwargs):
        assigner = opened(*args, **kwargs)
        assigner.assign = tracer.wrap(f"schedulers.assign.{name}", assigner.assign)
        return assigner

    return traced_open


class _TracedPool:
    """Shard pool whose futures time the parent's wait and read worker spans."""

    def __init__(self, tracer: Tracer, pool) -> None:
        self._tracer = tracer
        self._pool = pool

    def submit(self, *args, **kwargs):
        return _TracedFuture(self._tracer, self._pool.submit(*args, **kwargs))


class _TracedFuture:
    def __init__(self, tracer: Tracer, future) -> None:
        self._tracer = tracer
        self._future = future

    def result(self, timeout=None):
        tracer = self._tracer
        if not tracer.on:
            return self._future.result(timeout)
        with tracer.span("cloud.wait"):
            outcome, snap = self._future.result(timeout)
        if snap is not None:
            # Worker-side time: the shard's top-level spans (open, assign
            # and fold), shipped back in the snapshot the pool merges.
            tracer.add(
                "cloud.shard_s",
                sum(stat["total_s"] for path, stat in snap["spans"].items() if "/" not in path),
            )
        return outcome, snap


__all__ = ["Tracer", "install", "layer_of", "self_times", "inclusive_time"]
