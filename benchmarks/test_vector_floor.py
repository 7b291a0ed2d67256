"""Vector-tier scaling floor (PR: vector-tier parity).

The rebuilt vector tier's whole claim is constant-per-node cost at
10^5-10^8 nodes: two sequential submissions (one riding a 0.3 churn
storm) against a persistent population must clear
:data:`MIN_NODES_PER_SEC` recruited-nodes-per-second of run wall time.
Tracked points (``BENCH_vector.json`` at the repo root, refreshed by
``scripts/refresh_bench_vector.py``): ~3.1M nodes/s at 10^5, ~3.4M at
10^6, ~2.4M at 10^7 (and ~175k at the 10^8 smoke, measured before the
grouped execution solve and below this floor — the guard is calibrated
for the 10^5-10^7 sweep range).

The semantic test is always-on (sim-time numbers, machine-independent);
the wall-clock floor is perf-marked::

    pytest benchmarks/test_vector_floor.py --run-perf
    REPRO_FLOOR_SCALE=100000 pytest benchmarks/... --run-perf   # CI
"""

import os

import pytest

from repro.perfbench import run_vector_scenario

FULL_SCALE = 1_000_000
#: Measured ~3.1M nodes/s at the tracked 10^5 point and ~3.4M at 10^6;
#: a 3x margin for slower hosts, still tight enough to catch a return
#: to per-node bisection (~1.3M) or a per-node-Python regression (those
#: land 10-100x below).
MIN_NODES_PER_SEC = 1_000_000


def _assert_semantics(metrics):
    assert metrics["recruited"] >= 1.9 * metrics["nodes"]  # two jobs
    assert metrics["makespan_1"] > 0 and metrics["makespan_2"] > 0
    # Job 1 rides the storm: it must cost availability relative to the
    # clean second submission on the same population.  (Makespans are
    # not ordered — recruitment quantization can hand job 2 a higher
    # tasks-per-node ceiling than the storm costs job 1.)
    assert metrics["availability_1"] < metrics["availability_2"], metrics
    assert 0.0 < metrics["efficiency_1"] <= 1.0
    assert metrics["sim_time"] > 0


def test_vector_scenario_semantics_at_smoke_scale():
    """Always-on: the storm/clean submission pair behaves at 10^5."""
    _assert_semantics(run_vector_scenario(100_000))


@pytest.mark.perf
def test_vector_scale_holds_throughput_floor():
    scale = int(os.environ.get("REPRO_FLOOR_SCALE", FULL_SCALE))
    metrics = run_vector_scenario(scale)
    if scale == FULL_SCALE:
        _assert_semantics(metrics)
    assert metrics["nodes_per_sec"] >= MIN_NODES_PER_SEC, (
        f"vector floor broken: {metrics['nodes_per_sec']:.0f} nodes/s "
        f"at {scale} nodes (floor {MIN_NODES_PER_SEC}): {metrics}")
