"""Tests of the benchmark's own code: reference computations and the record check.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TestReference:
    def test_fifo_finish_times_accumulate_per_vm_in_order(self):
        finish = reference.fifo_finish_times(
            np.array([0, 1, 0, 0, 1]), np.array([10.0, 20.0, 30.0, 40.0, 50.0]), np.array([10.0, 5.0])
        )
        assert finish.tolist() == [1.0, 4.0, 4.0, 8.0, 14.0]

    def test_homogeneous_optimum_rounds_up(self):
        assert reference.homogeneous_optimum(10, 4, 250.0, 1000.0) == 0.75
        assert reference.homogeneous_optimum(8, 4, 250.0, 1000.0) == 0.5

    def test_makespan_bounds(self):
        lower, upper = reference.makespan_bounds(100.0, 10.0, 2, 30.0)
        assert (lower, upper) == (10.0, 16.0)

    def test_greedy_mct_meets_its_upper_bound(self):
        rng = np.random.default_rng(3)
        lengths = rng.uniform(1.0, 9.0, 200)
        mips = rng.uniform(1.0, 4.0, 7)
        ready = np.zeros(7)
        for length in lengths:
            j = int(np.argmin(ready + length / mips))
            assert reference.mct_choice_ok(ready, length, mips, j)
            ready[j] += length / mips[j]
        lower, upper = reference.makespan_bounds(lengths.sum(), mips.sum(), 7, lengths.max())
        assert lower <= ready.max() <= upper

    def test_mct_choice_rejects_a_slower_vm(self):
        assert not reference.mct_choice_ok(np.zeros(2), 10.0, np.array([1.0, 2.0]), 0)

    def test_round_robin(self):
        assert reference.round_robin(5, 4, 3).tolist() == [2, 0, 1, 2]


def _record():
    return {
        "correct": True,
        "attempted": 4,
        "failed": 0,
        "metrics": {
            m["name"]: {"value": 1.5, "unit": m["unit"]} for m in SPEC["end_to_end"]
        },
    }


class TestRecordCheck:
    def test_well_formed_record_passes(self):
        assert run.validate(_record(), SPEC, trace=False) == []

    @pytest.mark.parametrize(
        "damage",
        [
            lambda r: r["metrics"].pop("setup_s"),
            lambda r: r["metrics"]["setup_s"].update(unit="ms"),
            lambda r: r["metrics"]["peak_rss_mib"].update(value=0.0),
            lambda r: r["metrics"]["cloudlets_per_s"].update(value=math.nan),
            lambda r: r.pop("failed"),
            lambda r: r.update(attempted=0),
            lambda r: r.update(failed=1.0),
        ],
    )
    def test_malformed_record_is_refused(self, damage):
        record = copy.deepcopy(_record())
        damage(record)
        assert run.validate(record, SPEC, trace=False)

    def test_reduced_workload_record_passes(self):
        """A real stream workload, shrunk, measured and checked end to end."""
        load = workloads.StreamHetero(seed=5, num_vms=50, num_cloudlets=3_000)
        load.setup()
        try:
            report = worker.measure(load, seconds=0.0)
        finally:
            load.teardown()
        report["setup_s"] = 0.25
        assert report["problems"] == []
        record = run.assemble([report], SPEC, trace=False)
        assert run.validate(record, SPEC, trace=False) == []
        assert record["attempted"] == len(workloads.STREAMING)

    def test_reduced_paper_sweep_checks_pass(self):
        load = workloads.PaperSweeps(seed=0, preset="quick")
        load.setup()
        done = load.run_round()
        assert done.attempted == 9 * 4 + 5 * 3 * 4
        assert load.check(done.outputs) == []

    def test_wrong_des_output_is_caught(self):
        load = workloads.PaperSweeps(seed=0, preset="quick")
        load.setup()
        figures, des = load.run_round().outputs
        scenario, assignment, finish = des[0]
        des[0] = (scenario, assignment, finish * (1 + 1e-9))
        assert any("FIFO" in p for p in load.check((figures, des)))


class TestSelfTimes:
    def test_layers_exclude_nested_layers_and_absorb_transparent_spans(self):
        rows = [
            ["experiments.run_point", 0.0, 10.0, None],
            ["sim.schedule", 1.0, 4.0, 0],  # transparent: its self time goes to run_point
            ["schedulers.schedule.rbs", 1.5, 3.5, 1],
            ["sim.execute", 5.0, 9.0, 0],
            ["core.run", 5.5, 8.5, 3],
        ]
        totals = spans.self_times(rows)
        assert totals == {
            "experiments.overhead_s": 10.0 - 3.0 - 4.0 + (3.0 - 2.0),
            "schedulers.schedule_s.rbs": 2.0,
            "cloud.execute_s": 1.0,
            "core.run_s": 3.0,
        }

    def test_sim_spans_inside_a_shard_count_as_fold(self):
        rows = [
            ["cloud.execute_shard", 0.0, 4.0, None],
            ["sim.execute", 1.0, 3.0, 0],
            ["schedulers.assign.greedy-mct", 3.0, 3.5, 0],
        ]
        assert spans.self_times(rows) == {"cloud.fold_s": 3.5, "schedulers.assign_s.greedy-mct": 0.5}

    def test_inclusive_time_counts_outermost_spans_after_since(self):
        rows = [
            ["serve.handle", 0.0, 1.0, None],
            ["serve.handle", 2.0, 5.0, None],
            ["serve.handle", 3.0, 4.0, 1],
        ]
        assert spans.inclusive_time(rows, "serve.handle", since=1.5) == 3.0
