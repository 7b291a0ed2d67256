"""Grouped vector-tier solve ≡ per-node bisection oracle, bit for bit.

:func:`repro.vector.executor.makespan_waterfill` and
:func:`~repro.vector.executor.makespan_under_outages` bisect over groups
of nodes with identical (ready, duration, window membership); the
oracle (:mod:`tests.vector.solve_oracle`) bisects over every node.  The
seeded fuzz below crosses ready-time shapes, duration shapes and window
sets and asserts the :class:`ExecutionOutcome` is identical, or that
both raise the same :class:`AnalysisError`.
"""

import itertools

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.vector import executor
from tests.vector import solve_oracle as oracle

READY_KINDS = ("quantised", "continuous")
DURATION_KINDS = ("scalar", "1", "3", "N")
WINDOW_COUNTS = (0, 1, 3, 72)


def _ready(rng, n, kind):
    if kind == "quantised":  # carousel reads end on cycle boundaries
        cycle = rng.uniform(5.0, 60.0)
        return rng.uniform(0.0, 100.0) + cycle * rng.integers(0, 3, size=n)
    return rng.uniform(0.0, 500.0, size=n)


def _durations(rng, n, kind):
    if kind == "scalar":
        return float(rng.uniform(0.5, 40.0))
    distinct = n if kind == "N" else int(kind)
    values = rng.uniform(0.5, 40.0, size=distinct)
    return values[rng.integers(0, distinct, size=n)]


def _mask(rng, n):
    shape = rng.integers(0, 4)
    if shape == 0:
        return None
    if shape == 1:
        return np.ones(n, dtype=bool)   # every node a victim
    if shape == 2:
        return np.zeros(n, dtype=bool)  # no victims: window skipped
    return rng.random(n) < rng.uniform(0.05, 0.95)


def _windows(rng, n, count, horizon):
    out = []
    for _ in range(count):
        start = rng.uniform(0.0, horizon)
        end = (float("inf") if rng.random() < 0.1
               else start + rng.exponential(horizon / 4) + 1e-3)
        out.append((start, end, _mask(rng, n)))
    return out


def _outcome(solve, *args):
    try:
        return solve(*args)
    except AnalysisError as exc:
        return ("AnalysisError", str(exc))


def _assert_identical(args):
    got = _outcome(executor.makespan_under_outages, *args)
    want = _outcome(oracle.makespan_under_outages, *args)
    assert got == want, args
    if isinstance(want, executor.ExecutionOutcome):
        assert got.finish_time.hex() == want.finish_time.hex()


@pytest.mark.parametrize(
    "ready_kind,duration_kind,n_windows",
    list(itertools.product(READY_KINDS, DURATION_KINDS, WINDOW_COUNTS)))
def test_grouped_solve_is_bit_identical_to_oracle(ready_kind,
                                                  duration_kind, n_windows):
    seed = (READY_KINDS.index(ready_kind) * 100
            + DURATION_KINDS.index(duration_kind) * 10
            + WINDOW_COUNTS.index(n_windows))
    rng = np.random.default_rng(seed)
    for n in (1, 7, 60):
        ready = _ready(rng, n, ready_kind)
        d = _durations(rng, n, duration_kind)
        for n_tasks in (1, max(1, n // 2), n + 1, 37 * n + 5, 5000):
            horizon = float(ready.max()) + 40.0 * n_tasks / n
            outages = _windows(rng, n, n_windows, horizon)
            _assert_identical((ready, n_tasks, d, outages))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("ready_kind", READY_KINDS)
def test_waterfill_is_bit_identical_to_oracle(seed, ready_kind):
    rng = np.random.default_rng(seed)
    for n in (1, 5, 400):
        ready = _ready(rng, n, ready_kind)
        d = float(rng.uniform(0.5, 40.0))
        for n_tasks in (1, n, 3 * n + 1, 100 * n):
            got = executor.makespan_waterfill(ready, n_tasks, d)
            want = oracle.makespan_waterfill(ready, n_tasks, d)
            assert got == want
            assert got.finish_time.hex() == want.finish_time.hex()


def test_large_quantised_fleet_with_overlapping_windows():
    """Tens of thousands of nodes in a handful of groups."""
    rng = np.random.default_rng(11)
    n = 20_000
    ready = 300.0 + 139.03 * rng.integers(0, 2, size=n)
    d = np.array([30.1, 61.9])[rng.integers(0, 2, size=n)]
    outages = [(500.0, 700.0, rng.random(n) < 0.3),
               (650.0, 900.0, rng.random(n) < 0.3),
               (800.0, float("inf"), rng.random(n) < 0.01),
               (1000.0, 1010.0, None)]
    _assert_identical((ready, 4 * n, d, outages))


def test_same_errors_as_oracle():
    ready = np.array([0.0, 5.0, 5.0, 9.0])
    everyone = np.ones(4, dtype=bool)
    cases = [
        # permanent outages that leave no capacity at all
        (ready, 10, 2.0, [(0.0, float("inf"), None)]),
        (ready, 10, 2.0, [(0.0, float("inf"), everyone)]),
        (ready, 10, np.array([1.0, 2.0, 2.0, 3.0]),
         [(0.0, float("inf"), everyone)]),
        # input validation
        (ready, 10, 2.0, [(5.0, 5.0, None)]),
        (ready, 10, 2.0, [(1.0, 2.0, np.ones(3, dtype=bool))]),
        (np.array([]), 1, 1.0, []),
        (ready, 0, 1.0, []),
        (ready, 3, 0.0, []),
        (ready, 3, np.array([1.0, 0.0, 1.0, 1.0]), []),
        (ready, 3, np.ones(3), []),
    ]
    for args in cases:
        want = _outcome(oracle.makespan_under_outages, *args)
        assert isinstance(want, tuple), args
        _assert_identical(args)
