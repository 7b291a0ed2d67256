"""The four benchmark workloads, driven through the public ``repro`` APIs.

Each workload is a ``build(seed, size)`` function that performs its own
``repro`` imports and every piece of construction (system, fleet or
population, fault plan, traffic, bag) and returns a :class:`Scenario`:
``run()`` simulates to completion, ``outputs()`` reads the sim-side
results and runs the workload's correctness checks.  Nothing here is
imported from ``repro`` at module import time, so a caller can time the
imports as part of set-up.

Sim-side outputs, common to every workload:

* ``ops`` / ``attempted`` -- operations completed correctly / attempted
  (tasks committed, recruited node-jobs, or requests settled);
* ``makespan_s`` -- simulated seconds from the first submission to the
  last completion (``serve_flash``: to the last request settling);
* ``efficiency`` -- useful node-seconds over provisioned node-seconds;
* ``availability`` -- share of the job window the instance held its
  size band (``serve_flash``: share of create requests that got an
  instance);
* ``ttr`` -- ``[[seconds, count], ...]`` time-to-ready samples over a
  population of ``ttr_population``: requested node slots, read from the
  census as the first time the instance size reached each slot (batch
  workloads), or create requests from arrival to ready (``serve_flash``);
* ``redundancy_overhead`` -- task copies (or instances) per operation;
* ``escaped`` / ``committed`` -- fabricated results committed, results
  committed;
* ``failures`` -- a list of failed check descriptions (empty = correct).
"""

from __future__ import annotations

from typing import Callable, Dict, List

MEGABYTE_BITS = 8 * 1024 * 1024

#: Workload sizes.  ``full`` is what the benchmark measures; ``smoke``
#: is the same shape scaled down for the benchmark's own tests.
SIZES: Dict[str, Dict[str, dict]] = {
    "event_cycle": {
        "full": {"nodes": 30_000, "tasks_per_node": 4},
        "smoke": {"nodes": 600, "tasks_per_node": 4},
    },
    "vector_storm": {
        "full": {"nodes": 1_000_000, "tasks_per_node": 12},
        "smoke": {"nodes": 20_000, "tasks_per_node": 4},
    },
    "fed_sabotage": {
        "full": {"nodes": 1_200, "tasks_per_node": 3},
        "smoke": {"nodes": 150, "tasks_per_node": 2},
    },
    "serve_flash": {
        "full": {"pnas": 128, "rate_rps": 0.1, "horizon_s": 12_000.0},
        "smoke": {"pnas": 48, "rate_rps": 0.1, "horizon_s": 1_500.0},
    },
}

#: Simulation replicas per run: replica ``r`` of seed ``s`` simulates
#: with seed ``16 * s + r``, and the sim-side metrics pool all replicas.
REPLICAS = {"event_cycle": 1, "vector_storm": 4, "fed_sabotage": 3,
            "serve_flash": 4}

#: Reference task (``child.REFERENCES``) whose timing scales each
#: repetition's host times: one with the workload's own resource mix.
REFERENCE = {"event_cycle": "python", "vector_storm": "numpy",
             "fed_sabotage": "python", "serve_flash": "python"}

#: Fixed time-to-ready limit per workload (sim seconds); a sample above
#: it, or an operation that never became ready, misses the SLO.
TTR_LIMIT_S = {
    "event_cycle": 30.0,
    "vector_storm": 400.0,
    "fed_sabotage": 60.0,
    "serve_flash": 60.0,
}


class Scenario:
    """A built workload: ``run()`` then ``outputs()``."""

    def __init__(self, run: Callable[[], None],
                 outputs: Callable[[], dict]) -> None:
        self.run = run
        self.outputs = outputs


def slot_ttr(series, target: int, submit: float) -> List[List[float]]:
    """Per-slot time-to-ready from a step-function size series.

    Slot ``k`` (1..target) is ready the first time the size reaches
    ``k``; returns ``[[seconds after submit, slots], ...]``.  Slots the
    instance never filled are absent (they count as SLO misses)."""
    out: List[List[float]] = []
    reached = 0
    for t, size in zip(series.times, series.values):
        size = min(int(size), target)
        if size > reached:
            out.append([float(t) - submit, size - reached])
            reached = size
    return out


def _check(failures: List[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


# -- event_cycle -------------------------------------------------------

def build_event_cycle(seed: int, size: str) -> Scenario:
    """Fault-free single-network wakeup + heartbeat + bag-of-tasks cycle
    on the cohort task path."""
    from repro.core import OddCISystem
    from repro.workloads import uniform_bag

    p = SIZES["event_cycle"][size]
    n = p["nodes"]
    # Maintenance at the heartbeat interval, so the census size history
    # (which time-to-ready and availability are read from) has a point
    # per heartbeat round.
    system = OddCISystem(seed=seed, maintenance_interval_s=10.0)
    system.add_pnas(n, heartbeat_interval_s=10.0, dve_poll_interval_s=15.0)
    ref_seconds = 5.0
    job = uniform_bag(n * p["tasks_per_node"], image_bits=MEGABYTE_BITS,
                      input_bits=4096.0, ref_seconds=ref_seconds,
                      result_bits=4096.0)
    state = {}

    def run() -> None:
        sub = system.provider.submit_job(job, target_size=n,
                                         heartbeat_interval_s=10.0)
        state["sub"] = sub
        state["report"] = system.provider.run_job_to_completion(
            sub, limit_s=1e7)

    def outputs() -> dict:
        from repro.faults import availability_fraction

        sub, report = state["sub"], state["report"]
        backend = sub.backend
        failures: List[str] = []
        _check(failures, report.n_tasks == job.n,
               f"report covers {report.n_tasks} of {job.n} tasks")
        _check(failures, backend.completed_count == job.n,
               f"{backend.completed_count} of {job.n} tasks completed")
        _check(failures, backend.pending_count == 0
               and backend.in_flight_count == 0,
               "tasks left pending or in flight")
        _check(failures, report.tasks_assigned == job.n
               and report.duplicates == 0,
               f"{report.tasks_assigned} assignments and "
               f"{report.duplicates} duplicates for {job.n} tasks")
        series = system.controller.size_history[sub.instance_id]
        makespan = report.makespan
        return {
            "ops": backend.completed_count,
            "attempted": job.n,
            "makespan_s": makespan,
            "efficiency": job.n * ref_seconds / (n * makespan),
            "availability": availability_fraction(
                series, n, size_tolerance=0.1, start=report.submitted_at,
                until=report.completed_at),
            "ttr": slot_ttr(series, n, report.submitted_at),
            "ttr_population": n,
            "redundancy_overhead": report.tasks_assigned / job.n,
            "escaped": 0,
            "committed": backend.completed_count,
            "events": system.sim.events_executed,
            "fleet_nodes": n,
            "failures": failures,
        }

    return Scenario(run, outputs)


# -- vector_storm ------------------------------------------------------

def build_vector_storm(seed: int, size: str) -> Scenario:
    """Two sequential vector-tier jobs on one persistent population,
    through a churn storm and a controller crash compiled to masks."""
    from repro.faults import FaultEvent, FaultPlan
    from repro.vector.system import VectorOddCISystem
    from repro.workloads import uniform_bag_spec

    p = SIZES["vector_storm"][size]
    n = p["nodes"]
    plan = FaultPlan((
        FaultEvent("churn_storm", 300.0, duration_s=200.0, magnitude=0.3),
        FaultEvent("controller_crash", 600.0, duration_s=90.0),
    ), name="vector-storm")
    system = VectorOddCISystem(int(n * 1.25) + 10, seed=seed, plan=plan)
    ref_seconds = 30.0
    job = uniform_bag_spec(n * p["tasks_per_node"],
                           image_bits=8 * MEGABYTE_BITS,
                           ref_seconds=ref_seconds, input_bits=4096.0,
                           result_bits=4096.0)
    reports = []

    def run() -> None:
        reports.append(system.run_job(job, target_size=n))
        reports.append(system.run_job(job, target_size=n))

    def outputs() -> dict:
        population = system.population
        failures: List[str] = []
        for r in reports:
            _check(failures, r.n_tasks == job.n,
                   f"job {r.job_index} ran {r.n_tasks} of {job.n} tasks")
            _check(failures, r.finish_time >= r.start_time >= r.submit_time,
                   f"job {r.job_index} times out of order")
            _check(failures, 0 < r.recruited <= population.n,
                   f"job {r.job_index} recruited {r.recruited} of a "
                   f"{population.n}-node population")
        _check(failures, population.busy_count == 0,
               f"{population.busy_count} nodes still busy after both jobs")
        try:
            population.validate()
            system.census.validate()
        except Exception as exc:  # any invariant breach fails the run
            failures.append(f"state invariant: {exc}")
        makespan = sum(r.makespan_s for r in reports)
        # Recruitment is a Bernoulli gate, so it can overshoot the target
        # by a few nodes; only the requested slots count as operations.
        recruited = sum(min(r.recruited, n) for r in reports)
        ttr: List[List[float]] = []
        for r in reports:
            ttr += slot_ttr(r.size_series, n, r.submit_time)
        return {
            "ops": recruited,
            "attempted": n * len(reports),
            "makespan_s": makespan,
            "efficiency": sum(r.efficiency * r.makespan_s
                              for r in reports) / makespan,
            "availability": sum(r.availability * r.makespan_s
                                for r in reports) / makespan,
            "ttr": ttr,
            "ttr_population": n * len(reports),
            "redundancy_overhead": 1.0,
            "escaped": 0,
            "committed": 2 * job.n,
            "events": 0,
            "fleet_nodes": population.n,
            "nodes_recruited": recruited,
            "mask_windows": len(system.compiled),
            "failures": failures,
        }

    return Scenario(run, outputs)


# -- fed_sabotage ------------------------------------------------------

def build_fed_sabotage(seed: int, size: str) -> Scenario:
    """Three-shard spread federation running one bag under adaptive
    certification through sabotage, a shard controller crash and a
    churn storm."""
    from repro.certify import CertifyPolicy
    from repro.core.federation import FederatedOddCISystem, NetworkDescriptor
    from repro.faults import FaultEvent, FaultPlan, active_plan
    from repro.workloads import uniform_bag

    p = SIZES["fed_sabotage"][size]
    per_shard = p["nodes"] // 3
    plan = FaultPlan((
        FaultEvent("saboteur", 1.0, magnitude=0.1, event_id="sab"),
        FaultEvent("controller_crash", 120.0, duration_s=60.0,
                   target="net1"),
        FaultEvent("churn_storm", 200.0, duration_s=100.0, magnitude=0.2),
    ), name="fed-sabotage")
    descriptors = [NetworkDescriptor(name=f"net{i}", capacity=per_shard,
                                     cost_per_node_hour=0.5 + 0.5 * i)
                   for i in range(3)]
    with active_plan(plan):
        system = FederatedOddCISystem(descriptors, seed=seed,
                                      placement="spread",
                                      maintenance_interval_s=30.0)
    system.build_fleets(heartbeat_interval_s=15.0, dve_poll_interval_s=5.0)
    ref_seconds = 20.0
    job = uniform_bag(3 * per_shard * p["tasks_per_node"],
                      image_bits=MEGABYTE_BITS, ref_seconds=ref_seconds)
    target = int(3 * per_shard * 0.8)
    policy = CertifyPolicy(mode="adaptive", r_min=1, r_max=3,
                           probe_rate=0.05, trust_threshold=0.9,
                           quarantine_after=3)
    state = {}

    def run() -> None:
        sub = system.provider.submit_job(
            job, target_size=target, heartbeat_interval_s=15.0,
            lease_factor=3.0, lease_backoff_base=1.5,
            lease_backoff_jitter=0.2, certify_policy=policy,
            release_on_completion=False)
        state["sub"] = sub
        state["report"] = system.provider.run_job_to_completion(
            sub, limit_s=1e7)

    def outputs() -> dict:
        from repro.faults import availability_fraction, merged_size_series

        sub, report = state["sub"], state["report"]
        backend = sub.backend
        certifier = backend.certifier
        failures: List[str] = []
        by_network = dict(backend.completed_by_network)
        _check(failures, sum(by_network.values()) == job.n,
               f"per-network completions {by_network} do not sum to "
               f"the {job.n}-task bag")
        _check(failures, backend.completed_count == job.n,
               f"{backend.completed_count} of {job.n} tasks committed")
        _check(failures, certifier.tasks_certified == job.n,
               f"{certifier.tasks_certified} of {job.n} committed tasks "
               f"have a winning digest")
        _check(failures, certifier.outstanding == 0,
               f"{certifier.outstanding} tasks left uncertified")
        merged = merged_size_series(
            [series for _name, series in system.provider.size_series(sub)])
        makespan = report.makespan
        return {
            "ops": backend.completed_count,
            "attempted": job.n,
            "makespan_s": makespan,
            "efficiency": job.n * ref_seconds / (target * makespan),
            "availability": availability_fraction(
                merged, target, size_tolerance=0.1,
                start=report.submitted_at, until=report.completed_at),
            "ttr": slot_ttr(merged, target, report.submitted_at),
            "ttr_population": target,
            "redundancy_overhead": certifier.redundancy_overhead(),
            "escaped": certifier.escaped_errors,
            "committed": backend.completed_count,
            "events": system.sim.events_executed,
            "fleet_nodes": 3 * per_shard,
            "failures": failures,
        }

    return Scenario(run, outputs)


# -- serve_flash -------------------------------------------------------

def build_serve_flash(seed: int, size: str) -> Scenario:
    """Open-loop flash-crowd traffic through the gateway and a warm pool
    onto a few hundred PNAs, over a long horizon."""
    from repro.core import OddCISystem
    from repro.core.federation import node_hours
    from repro.serve import GatewayConfig, PoolConfig, ServiceTier, TrafficSpec

    p = SIZES["serve_flash"][size]
    rate = p["rate_rps"]
    horizon = p["horizon_s"]
    system = OddCISystem(seed=seed, maintenance_interval_s=15.0)
    system.add_pnas(p["pnas"], heartbeat_interval_s=10.0,
                    dve_poll_interval_s=5.0)
    traffic = TrafficSpec(
        pattern="flash", rate_rps=rate, horizon_s=horizon, n_tenants=4,
        target_size=4, hold_s_mean=60.0, flash_at_s=horizon / 3,
        flash_duration_s=min(600.0, horizon / 6), flash_multiplier=3.0)
    tier = ServiceTier(
        system, traffic,
        gateway=GatewayConfig(admission_rate=2.5 * rate, burst=1,
                              queue_cap=16, max_queue_wait_s=90.0),
        pool=PoolConfig(warm_target=1, standby_size=4,
                        refill_interval_s=30.0, provision_timeout_s=120.0),
        heartbeat_interval_s=10.0, request_timeout_s=120.0,
        image_bits=float(MEGABYTE_BITS) / 8)
    requests = tier.start()
    creates = sum(1 for r in requests if r.kind == "create")
    state = {}

    def run() -> None:
        state["summary"] = tier.run()

    def outputs() -> dict:
        summary = state["summary"]
        slo = tier.slo
        failures: List[str] = []
        _check(failures, summary["lost"] == 0,
               f"{summary['lost']} requests lost")
        _check(failures, slo.issued == slo.settled == len(requests),
               f"issued {slo.issued}, settled {slo.settled}, "
               f"scheduled {len(requests)}")
        end = system.sim.now
        controller = system.controller
        provisioned = sum(node_hours(series, end)
                          for series in controller.size_history.values())
        used = sum(account["node_hours"]
                   for account in summary["gateway"]["tenants"].values())
        ready = len(slo.ttr_samples)
        instances = len(controller.size_history)
        return {
            "ops": slo.completed + slo.noops,
            "attempted": slo.issued,
            "makespan_s": end,
            "efficiency": used / provisioned,
            "availability": ready / creates,
            "ttr": [[t, 1] for t in slo.ttr_samples],
            "ttr_population": creates,
            "redundancy_overhead": instances / ready,
            "escaped": 0,
            "committed": slo.completed,
            "events": system.sim.events_executed,
            "fleet_nodes": p["pnas"],
            "gateway_rejected": sum(
                account["rejected"]
                for account in summary["gateway"]["tenants"].values()),
            "gateway_requests": slo.issued,
            "pool_hit_ratio": tier.pool.hit_ratio(),
            "failures": failures,
        }

    return Scenario(run, outputs)


WORKLOADS: Dict[str, Callable[[int, str], Scenario]] = {
    "event_cycle": build_event_cycle,
    "vector_storm": build_vector_storm,
    "fed_sabotage": build_fed_sabotage,
    "serve_flash": build_serve_flash,
}
