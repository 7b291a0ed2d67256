"""Per-node bisection: the oracle of the grouped vector-tier solve.

The pre-grouping :func:`repro.vector.executor.makespan_waterfill` and
:func:`repro.vector.executor.makespan_under_outages`, kept verbatim:
every ``capacity(t)`` is a full pass over all N nodes.
``test_solve_oracle`` fuzzes the production solve against these and
asserts the :class:`ExecutionOutcome` is bit-identical, including the
:class:`AnalysisError` raised on inputs the solve rejects.
"""

from typing import Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.vector.executor import ExecutionOutcome


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
    snap T to an exact task-completion instant.
    """
    ready = np.asarray(ready_times, dtype=float)
    if ready.ndim != 1 or ready.size == 0:
        raise AnalysisError("ready_times must be a non-empty 1-D array")
    if n_tasks <= 0:
        raise AnalysisError(f"n_tasks must be > 0, got {n_tasks}")
    if task_wall_seconds <= 0:
        raise AnalysisError("task_wall_seconds must be > 0")

    d = float(task_wall_seconds)

    def capacity(t: float) -> int:
        return int(np.floor(np.maximum(t - ready, 0.0) / d).sum())

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
    ``sum_i floor(active_i / d_i)`` and the finish time is found by
    binary search, snapped to within one task duration of the exact
    greedy completion (adequate at vector scale, and exact — via
    :func:`makespan_waterfill` — in the homogeneous fault-free case).
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

    def active_time(t: float) -> np.ndarray:
        active = np.maximum(t - ready, 0.0)
        for start, end, mask in windows:
            overlap = np.minimum(t, end) - np.maximum(ready, start)
            np.maximum(overlap, 0.0, out=overlap)
            if mask is not None:
                overlap *= mask
            active -= overlap
        np.maximum(active, 0.0, out=active)
        return active

    def capacity(t: float) -> int:
        return int(np.floor(active_time(t) / d_i).sum())

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
    k = np.floor(active_time(hi) / d_i + 1e-9).astype(np.int64)
    return ExecutionOutcome(
        finish_time=hi,
        n_tasks=int(n_tasks),
        n_nodes=int(ready.size),
        tasks_per_node_max=int(k.max()) if k.size else 0,
    )
