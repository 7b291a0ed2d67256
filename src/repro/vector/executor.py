"""Vectorised bag-of-tasks execution for very large node counts.

The event tier simulates every message; that is faithful but caps out
around 10⁴ nodes.  For the paper's scalability claims (requirement I:
"hundreds of millions of processing resources") we compute the *same*
pull-scheduling outcome with array math:

* :func:`makespan_waterfill` — homogeneous tasks: binary-search the
  finish time T such that the fleet's aggregate task capacity by T
  reaches ``n``; exact greedy list-scheduling result.
* :func:`makespan_under_outages` — the same bisection with per-node
  task durations and outage windows.
* :func:`makespan_heap` — general case (heterogeneous tasks and/or
  nodes): classic event-free greedy list scheduling with a heap,
  O(n log N).

The bisections never evaluate capacity per node.  Nodes are first
compressed into groups with identical inputs — same ready time, same
task duration, same membership in every masked outage window — and
``capacity(t) = sum_g count_g * floor(active_g(t) / d_g)`` is evaluated
on one representative per group, with the elementwise arithmetic every
member would run.  A wait-for-start carousel read ends where the
image's window ends in some cycle, and devices come from a small mix,
so G is tiny at any N (G <= distinct ready times x device factors x
mask patterns).  The solve costs one ``np.unique`` per key column plus
a few O(N) passes, and the answer is bit-identical to a per-node
bisection (``tests/vector/solve_oracle.py``).

All solvers include the per-task direct-channel I/O time, matching the
event tier's DVE loop (request → input transfer → compute → result
transfer).  Tests cross-validate them against each other and against
the event tier on overlapping sizes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import AnalysisError

__all__ = ["ExecutionOutcome", "makespan_waterfill", "makespan_heap",
           "makespan_under_outages", "per_task_wall_seconds"]


@dataclass(frozen=True)
class ExecutionOutcome:
    """Result of a vectorised execution.

    ``finish_time`` is when the last result lands (absolute, same
    origin as the ready times); ``tasks_per_node_max`` characterises the
    load imbalance.
    """

    finish_time: float
    n_tasks: int
    n_nodes: int
    tasks_per_node_max: int

    def makespan(self, submit_time: float = 0.0) -> float:
        return self.finish_time - submit_time


def per_task_wall_seconds(
    ref_seconds: float,
    io_bits: float,
    delta_bps: float,
    device_factor: float = 1.0,
) -> float:
    """Wall time one node spends per task: I/O at δ plus scaled compute."""
    if ref_seconds <= 0:
        raise AnalysisError("ref_seconds must be > 0")
    if io_bits < 0 or delta_bps <= 0:
        raise AnalysisError("bad I/O parameters")
    if device_factor <= 0:
        raise AnalysisError("device_factor must be > 0")
    return io_bits / delta_bps + ref_seconds * device_factor


def _dense_codes(key: np.ndarray) -> np.ndarray:
    """Rank of each entry of ``key`` among its distinct values."""
    return np.searchsorted(np.unique(key), key)


def _node_groups(ready: np.ndarray, d_i: Optional[np.ndarray],
                 masks: Sequence[np.ndarray]):
    """Compress nodes into groups of identical solve inputs.

    The key is (ready time, per-node duration when ``d_i`` is given,
    membership of each mask).  After each column is folded in, the
    running key is re-compacted to dense ranks, so it stays below N and
    cannot overflow int64 whatever the number of masks; the folds are
    in place, so the transient memory is about two N-length arrays.
    Returns one representative row per group and the group sizes (as
    floats, for an exact integer-valued dot product below 2**53).
    """
    code = _dense_codes(ready)
    if d_i is not None:
        d_code = _dense_codes(d_i)
        code *= int(d_code.max()) + 1
        code += d_code
        del d_code
        code = _dense_codes(code)
    for mask in masks:
        code *= 2
        code += mask
        code = _dense_codes(code)
    counts = np.bincount(code)
    first = np.empty(counts.size, dtype=np.intp)
    first[code] = np.arange(code.size)
    return first, counts.astype(float)


def makespan_waterfill(
    ready_times: np.ndarray,
    n_tasks: int,
    task_wall_seconds: float,
) -> ExecutionOutcome:
    """Exact greedy-pull finish time for identical tasks.

    Each node starts pulling at its ready time and executes tasks back
    to back, each taking ``task_wall_seconds``.  Greedy pull (always the
    earliest-free node takes the next task) finishes the bag at the
    smallest T with ``sum_i floor((T - ready_i)^+ / d) >= n``; we then
    snap T to an exact task-completion instant.  The bisection runs on
    the distinct ready times (weighted by multiplicity); the snap is
    one pass over the nodes.
    """
    ready = np.asarray(ready_times, dtype=float)
    if ready.ndim != 1 or ready.size == 0:
        raise AnalysisError("ready_times must be a non-empty 1-D array")
    if n_tasks <= 0:
        raise AnalysisError(f"n_tasks must be > 0, got {n_tasks}")
    if task_wall_seconds <= 0:
        raise AnalysisError("task_wall_seconds must be > 0")

    d = float(task_wall_seconds)
    first, counts = _node_groups(ready, None, ())
    ready_g = ready[first]

    def capacity(t: float) -> int:
        return int(np.floor(np.maximum(t - ready_g, 0.0) / d) @ counts)

    eps = min(1e-9, d * 1e-6)
    lo = float(ready.min()) + d
    hi = float(ready.min()) + d * float(n_tasks)  # one node does it all
    if capacity(hi) < n_tasks:  # numeric safety
        hi = float(ready.max()) + d * float(n_tasks)
    for _ in range(200):
        if hi - lo <= max(eps, 1e-12 * hi):
            break
        mid = 0.5 * (lo + hi)
        if capacity(mid) >= n_tasks:
            hi = mid
        else:
            lo = mid
    # Snap to the exact completion instant: with finish bound hi, each
    # node i contributes k_i = floor((hi - ready_i)^+ / d) tasks; greedy
    # pull performs exactly the n earliest completions, so drop the
    # surplus from the latest finishers (at most one per node — ties at
    # the boundary instant).
    k = np.floor(np.maximum(hi - ready, 0.0) / d + eps).astype(np.int64)
    total = int(k.sum())
    if total < n_tasks:
        raise AnalysisError("waterfill failed to converge")  # pragma: no cover
    surplus = total - n_tasks
    if surplus > 0:
        finish_candidates = ready + k * d
        active_idx = np.nonzero(k > 0)[0]
        order = active_idx[np.argsort(finish_candidates[active_idx],
                                      kind="stable")]
        if surplus > order.size:  # pragma: no cover - eps pathologies
            raise AnalysisError("waterfill surplus exceeds active nodes")
        k[order[-surplus:]] -= 1
    active = k > 0
    finish = float((ready[active] + k[active] * d).max())
    return ExecutionOutcome(
        finish_time=finish,
        n_tasks=int(n_tasks),
        n_nodes=int(ready.size),
        tasks_per_node_max=int(k.max()),
    )


def makespan_under_outages(
    ready_times: np.ndarray,
    n_tasks: int,
    task_wall_seconds,
    outages: Sequence = (),
) -> ExecutionOutcome:
    """Greedy-pull finish time with heterogeneous nodes and downtime.

    Generalises :func:`makespan_waterfill` along two axes at once:

    * ``task_wall_seconds`` may be a scalar (homogeneous fleet) or a
      per-node array aligned with ``ready_times``;
    * ``outages`` is a sequence of ``(start, end, mask)`` triples — a
      victim (``mask`` is a boolean array over nodes, or ``None`` for
      everyone) contributes no capacity while ``start <= t < end``.

    Node *i*'s active time by T is ``(T - ready_i)^+`` minus the summed
    overlap of its outage windows with ``[ready_i, T)``; capacity is
    ``sum_i floor(active_i / d_i)``, evaluated once per group of nodes
    with identical (ready, duration, window membership), and the finish
    time is found by binary search, snapped to within one task duration
    of the exact greedy completion (adequate at vector scale, and exact
    — via :func:`makespan_waterfill` — in the homogeneous fault-free
    case).
    Overlapping windows hitting the same node sum their downtime, a
    conservative (never optimistic) capacity estimate.
    """
    ready = np.asarray(ready_times, dtype=float)
    if ready.ndim != 1 or ready.size == 0:
        raise AnalysisError("ready_times must be a non-empty 1-D array")
    if n_tasks <= 0:
        raise AnalysisError(f"n_tasks must be > 0, got {n_tasks}")
    scalar_d = np.isscalar(task_wall_seconds) or (
        np.asarray(task_wall_seconds).ndim == 0)
    if scalar_d:
        if float(task_wall_seconds) <= 0:
            raise AnalysisError("task_wall_seconds must be > 0")
        if not outages:
            return makespan_waterfill(ready, n_tasks,
                                      float(task_wall_seconds))
        d_i = np.full(ready.size, float(task_wall_seconds))
    else:
        d_i = np.asarray(task_wall_seconds, dtype=float)
        if d_i.shape != ready.shape:
            raise AnalysisError(
                "per-node task_wall_seconds must align with ready_times")
        if np.any(d_i <= 0):
            raise AnalysisError("task durations must be > 0")

    windows = []
    for start, end, mask in outages:
        if end <= start:
            raise AnalysisError(
                f"outage window must have end > start, got [{start}, {end})")
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != ready.shape:
                raise AnalysisError(
                    "outage mask must align with ready_times")
            if not mask.any():
                continue
        windows.append((float(start), float(end), mask))

    first, counts = _node_groups(
        ready, None if scalar_d else d_i,
        [mask for _s, _e, mask in windows if mask is not None])
    ready_g, d_g = ready[first], d_i[first]
    windows_g = [(start, end, None if mask is None else mask[first])
                 for start, end, mask in windows]

    def capacity(t: float) -> int:
        return int(np.floor(_active_time(t, ready_g, windows_g) / d_g)
                   @ counts)

    d_max = float(d_i.max())
    # One node doing the whole bag plus sitting out every (finite)
    # window bounds the finish from above; permanent windows contribute
    # through the mask (a fully masked-forever fleet cannot finish).
    horizon_pad = sum(end - start for start, end, _m in windows
                      if end < float("inf"))
    lo = float(ready.min())
    hi = lo + d_max * float(n_tasks) + horizon_pad
    for _ in range(64):  # numeric safety for pathological overlaps
        if capacity(hi) >= n_tasks:
            break
        hi = lo + 2.0 * (hi - lo)
    else:
        raise AnalysisError(
            "outage schedule leaves insufficient capacity to finish")
    for _ in range(200):
        if hi - lo <= max(1e-9, 1e-12 * hi):
            break
        mid = 0.5 * (lo + hi)
        if capacity(mid) >= n_tasks:
            hi = mid
        else:
            lo = mid
    k = np.floor(_active_time(hi, ready, windows) / d_i
                 + 1e-9).astype(np.int64)
    return ExecutionOutcome(
        finish_time=hi,
        n_tasks=int(n_tasks),
        n_nodes=int(ready.size),
        tasks_per_node_max=int(k.max()) if k.size else 0,
    )


def _active_time(t: float, ready: np.ndarray, windows) -> np.ndarray:
    """Up time by ``t`` of each row of ``ready`` (masks aligned with it)."""
    active = np.maximum(t - ready, 0.0)
    for start, end, mask in windows:
        overlap = np.minimum(t, end) - np.maximum(ready, start)
        np.maximum(overlap, 0.0, out=overlap)
        if mask is not None:
            overlap *= mask
        active -= overlap
    np.maximum(active, 0.0, out=active)
    return active


def makespan_heap(
    ready_times: np.ndarray,
    task_wall_seconds: Sequence[float],
) -> ExecutionOutcome:
    """General greedy pull scheduling: heterogeneous tasks, shared queue.

    Tasks are handed out in order; each goes to the node that frees up
    earliest.  O(n log N).
    """
    ready = np.asarray(ready_times, dtype=float)
    durations = np.asarray(task_wall_seconds, dtype=float)
    if ready.ndim != 1 or ready.size == 0:
        raise AnalysisError("ready_times must be a non-empty 1-D array")
    if durations.ndim != 1 or durations.size == 0:
        raise AnalysisError("task_wall_seconds must be a non-empty 1-D array")
    if np.any(durations <= 0):
        raise AnalysisError("task durations must be > 0")

    # Hoist numpy out of the hot loop: native-float lists iterate ~5x
    # faster than ndarray element access, and the heap then holds plain
    # (float, int) tuples.
    ready_list = ready.tolist()
    dur_list = durations.tolist()
    n_nodes = len(ready_list)

    if durations.size <= n_nodes and ready.min() == ready.max():
        # Uniform-ready shortcut: with every node free at the same
        # instant and no more tasks than nodes, greedy pull hands task j
        # to node j — no heap needed.
        start = ready_list[0]
        return ExecutionOutcome(
            finish_time=start + max(dur_list),
            n_tasks=int(durations.size),
            n_nodes=n_nodes,
            tasks_per_node_max=1,
        )

    heap = [(t, i) for i, t in enumerate(ready_list)]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    counts = [0] * n_nodes
    finish = min(ready_list)
    for dur in dur_list:
        available, idx = heappop(heap)
        done = available + dur
        counts[idx] += 1
        if done > finish:
            finish = done
        heappush(heap, (done, idx))
    return ExecutionOutcome(
        finish_time=finish,
        n_tasks=int(durations.size),
        n_nodes=n_nodes,
        tasks_per_node_max=max(counts),
    )
