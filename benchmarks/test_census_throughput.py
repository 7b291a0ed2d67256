"""Census consolidation throughput guard: columnar cohort vs per-payload.

One cohort of ``n_members`` heartbeats (90% busy members of a live
instance, 10% idle — the steady-state shape of a healthy fleet) is
consolidated ``rounds`` times per engine: a Controller running on the
dict-backed oracle (``tests/core/census_oracle.py``) through
``_receive_batch`` — the payload-by-payload baseline — and the stock
columnar Controller through ``_receive_cohort``.  Runs interleave with
the garbage collector paused and the best of ``repeats`` is kept; the
engines' final censuses are asserted equal, so a green run is a
correctness statement as well as a stopwatch.

The cohort path must be at least 3x faster at 10^5 members.  The
structural test always runs (small scale); the full-scale guard is
perf-marked::

    pytest benchmarks/test_census_throughput.py --run-perf -s

``BENCH_census.json`` at the repo root holds the recorded 10^5-member
measurement.
"""

import gc
import time

import pytest

import repro.core.controller as controller_module
from repro.core.census import ColumnarCensusStore
from repro.core.controller import Controller, DirectControlPlane
from repro.core.instance import InstanceSpec, reset_instance_sequence
from repro.core.messages import HeartbeatPayload, PNAState
from repro.core.network import Router
from repro.net.broadcast import BroadcastChannel
from repro.net.crypto import KeyRegistry
from repro.perfbench import SCENARIO
from repro.sim.core import Simulator
from tests.core.census_oracle import DictCensusOracle

#: Floor enforced against the recorded BENCH_census.json measurement;
#: the real machine measurement lands well above this.
MIN_SPEEDUP = 3.0


def _census_controller(store_class):
    """A bare Controller (no PNA fleet) on ``store_class``.

    Heartbeat payloads are injected directly at the consolidation entry
    points, so the measurement isolates the census data path — no link
    math, no kernel traffic.  Reset replies no-op identically on both
    engines (no registered PNA channels)."""
    reset_instance_sequence()
    sim = Simulator(seed=SCENARIO["seed"])
    router = Router(sim)
    plane = DirectControlPlane(
        BroadcastChannel(sim, beta_bps=1e9, name="bench.bcast"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(controller_module, "ColumnarCensusStore", store_class)
        controller = Controller(
            sim, router, plane, KeyRegistry(),
            maintenance_interval_s=SCENARIO["maintenance_interval_s"])
    assert isinstance(controller.census, store_class)
    return router, controller


def run_census_scenario(n_members, *, rounds=5, repeats=3):
    spec = InstanceSpec(
        target_size=max(1, (n_members * 9) // 10), image_name="bench-img",
        image_bits=SCENARIO["image_bits"],
        heartbeat_interval_s=SCENARIO["heartbeat_interval_s"])

    def build(store_class):
        router, controller = _census_controller(store_class)
        iid = controller.create_instance(spec).instance_id
        payloads, idxs = [], []
        for i in range(n_members):
            pna_id = f"pna-{i}"
            if i % 10 == 0:
                payload = HeartbeatPayload(pna_id=pna_id,
                                           state=PNAState.IDLE,
                                           instance_id=None)
            else:
                payload = HeartbeatPayload(pna_id=pna_id,
                                           state=PNAState.BUSY,
                                           instance_id=iid)
            payloads.append(payload)
            idxs.append(router.interner.intern(pna_id))
        return controller, payloads, idxs

    baseline, base_payloads, _ = build(DictCensusOracle)
    columnar, col_payloads, col_idxs = build(ColumnarCensusStore)

    base_best = col_best = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            for _r in range(rounds):
                baseline._receive_batch(base_payloads)
            base_best = min(base_best, time.perf_counter() - t0)
            t0 = time.perf_counter()
            for _r in range(rounds):
                columnar._receive_cohort(col_payloads, col_idxs)
            col_best = min(col_best, time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()

    # Equivalence: both engines must have consolidated the same census.
    iid = next(iter(baseline.instances))
    assert len(baseline.registry) == len(columnar.registry) == n_members
    assert baseline.instances[iid].size == columnar.instances[iid].size
    assert baseline.idle_estimate() == columnar.idle_estimate()
    assert sorted(baseline.registry.items()) == \
        sorted(columnar.registry.items())

    consolidations = n_members * rounds
    base_cps = consolidations / base_best if base_best > 0 else 0.0
    col_cps = consolidations / col_best if col_best > 0 else 0.0
    return {
        "n_members": n_members,
        "baseline_wall_s": round(base_best, 4),
        "columnar_wall_s": round(col_best, 4),
        "baseline_consolidations_per_sec": round(base_cps, 1),
        "columnar_consolidations_per_sec": round(col_cps, 1),
        "speedup": round(col_cps / base_cps, 3) if base_cps else 0.0,
        "instance_size": baseline.instances[iid].size,
        "idle_estimate": baseline.idle_estimate(),
    }


def test_census_scenario_is_an_equivalence_check():
    """Small scale, always-on: the scenario asserts the oracle and the
    columnar engine consolidated identical censuses."""
    metrics = run_census_scenario(2_000, rounds=2, repeats=1)
    assert metrics["n_members"] == 2_000
    assert metrics["instance_size"] == 1_800   # 90% busy members
    assert metrics["idle_estimate"] == 200     # 10% idle
    assert metrics["baseline_consolidations_per_sec"] > 0
    assert metrics["columnar_consolidations_per_sec"] > 0


@pytest.mark.perf
@pytest.mark.parametrize("n_members", [100_000])
def test_columnar_speedup_at_scale(n_members):
    metrics = run_census_scenario(n_members)
    print(f"\ncensus n={n_members}: {metrics}")
    assert metrics["speedup"] >= MIN_SPEEDUP, (
        f"columnar census fell to {metrics['speedup']:.2f}x at "
        f"n={n_members}; the tracked floor is {MIN_SPEEDUP}x")
