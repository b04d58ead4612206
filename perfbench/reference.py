"""Reference computations the benchmark checks program outputs against.

Each function recomputes a quantity from the inputs alone, with plain
numpy and none of the program's code, so a check that passes says the
program agrees with an independent derivation rather than with itself.
"""

from __future__ import annotations

import math

import numpy as np


def fifo_finish_times(
    assignment: np.ndarray, lengths: np.ndarray, vm_mips: np.ndarray
) -> np.ndarray:
    """Finish time of every cloudlet on single-PE VMs served first in, first out.

    Cloudlets reach their VM in submission (index) order, all at t=0, and
    run one at a time, so a cloudlet finishes at the running sum of
    ``length / mips`` over the cloudlets placed on its VM up to and
    including itself.  The loop adds in that order, the same order a
    discrete-event run accumulates its clock in.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    exec_times = np.asarray(lengths, dtype=float) / np.asarray(vm_mips, dtype=float)[assignment]
    clock = np.zeros(len(vm_mips))
    finish = np.empty(assignment.shape[0])
    for i, vm in enumerate(assignment.tolist()):
        clock[vm] += exec_times[i]
        finish[i] = clock[vm]
    return finish


def homogeneous_optimum(num_cloudlets: int, num_vms: int, length: float, mips: float) -> float:
    """Best makespan for equal cloudlets on equal VMs: ``ceil(n / m) * L / MIPS``."""
    return -(-num_cloudlets // num_vms) * (length / mips)


def makespan_bounds(
    total_mi: float, total_mips: float, num_vms: int, max_length: float
) -> tuple[float, float]:
    """``(W / S, (W + m * p_max) / S)`` for related machines.

    No placement finishes before ``W / S``: the fleet cannot process more
    than ``S`` MI per second.  A greedy minimum-completion-time placement
    finishes by ``(W + m * p_max) / S``: when the last-finishing cloudlet
    ``j`` was placed, its chosen completion time was at most the
    ``mips_v / S``-weighted mean of ``(load_v + p_j) / mips_v`` over all
    VMs, which is ``(W_then + m * p_j) / S``.
    """
    return total_mi / total_mips, (total_mi + num_vms * max_length) / total_mips


def round_robin(offset: int, count: int, num_vms: int) -> np.ndarray:
    """Round-robin placement of cloudlets ``offset .. offset + count - 1``."""
    return (offset + np.arange(count, dtype=np.int64)) % num_vms


def mct_choice_ok(
    ready: np.ndarray, length: float, vm_mips: np.ndarray, chosen: int, rel_tol: float = 1e-9
) -> bool:
    """True when ``chosen`` attains the minimum completion time ``ready + L / mips``.

    ``ready`` is each VM's backlog in seconds before this cloudlet.  The
    tolerance absorbs the different summation order of an independent
    backlog recomputation; it is far below the gap between distinct
    heterogeneous VMs.
    """
    completion = ready + length / vm_mips
    best = float(completion.min())
    return math.isfinite(best) and bool(completion[chosen] <= best * (1.0 + rel_tol))


__all__ = [
    "fifo_finish_times",
    "homogeneous_optimum",
    "makespan_bounds",
    "round_robin",
    "mct_choice_ok",
]
