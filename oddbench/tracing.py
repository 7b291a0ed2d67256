"""Layer spans timed from outside the program.

A traced run wraps the public functions of each ``repro`` layer (class
methods and the few functions other modules import by name) before any
system is built, so objects constructed afterwards bind the wrappers.
Each wrapper records a span: calls, wall time, and self time (wall time
minus the time of the spans nested inside it).  Spans never overlap
except by nesting (one thread), so the self times of every span plus the
time outside all spans (``other.self_s``) add up to the traced wall time.

Untraced runs import nothing from here and install no wrapper.

:data:`LAYERS` records, for every per-layer metric, the end-to-end
metric it should move, the workloads where its layer does most work and
the workloads where it should not move.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, owner -- a class name or "" for a module function, attribute,
#: span name).  Several attributes may feed one span.
SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.core", "Simulator", "run", "sim"),
    ("repro.sim.core", "Simulator", "run_until_event", "sim"),
    ("repro.core.system", "OddCISystem", "add_pnas", "fleet.build"),
    ("repro.core.federation", "FederatedOddCISystem", "build_fleets",
     "fleet.build"),
    ("repro.vector.system", "VectorOddCISystem", "__init__", "fleet.build"),
    ("repro.workloads", "", "uniform_bag", "workload.bag"),
    ("repro.workloads", "", "uniform_bag_spec", "workload.bag"),
    ("repro.core.pna", "PNA", "deliver_control", "pna.deliver_control"),
    ("repro.core.controller", "DirectControlPlane", "publish_wakeup",
     "controller.publish_wakeup"),
    ("repro.core.controller", "Controller", "create_instance",
     "controller.lifecycle"),
    ("repro.core.controller", "Controller", "resize_instance",
     "controller.lifecycle"),
    ("repro.core.controller", "Controller", "destroy_instance",
     "controller.lifecycle"),
    ("repro.core.controller", "Controller", "restore", "controller.restore"),
    ("repro.core.network", "Router", "send_heartbeats",
     "router.send_heartbeats"),
    ("repro.core.backend", "Backend", "receive_request_cohort",
     "backend.receive_request_cohort"),
    ("repro.core.backend", "Backend", "receive_result",
     "backend.receive_result"),
    ("repro.core.taskloop", "CohortDVE", "on_backend_message",
     "taskloop.on_backend_message"),
    ("repro.carousel.carousel", "ObjectCarousel", "read", "carousel.read"),
    ("repro.core.provider", "Provider", "request_instance_async",
     "provider.request_instance_async"),
    ("repro.core.provider", "Provider", "cancel_request",
     "provider.cancel_request"),
    ("repro.core.provider", "Provider", "release", "provider.release"),
    ("repro.serve.gateway", "ServiceGateway", "submit", "gateway.submit"),
    ("repro.serve.pool", "InstancePool", "acquire", "pool.acquire"),
    ("repro.core.federation", "FederatedProvider", "submit_job",
     "federation.submit_job"),
    ("repro.core.federation", "FederatedProvider", "rebalance",
     "federation.rebalance"),
    ("repro.certify.certifier", "ResultCertifier", "serve", "certify.serve"),
    ("repro.certify.certifier", "ResultCertifier", "on_result",
     "certify.on_result"),
    ("repro.faults.masks", "", "compile_fault_plan", "masks.compile"),
    ("repro.vector.system", "", "compile_fault_plan", "masks.compile"),
    ("repro.vector.population", "VectorPopulation", "recruit",
     "vector.recruit"),
    ("repro.vector.population", "VectorOddCI", "carousel_schedule",
     "vector.wakeup"),
    ("repro.vector.population", "VectorOddCI", "rng_uniform_phases",
     "vector.wakeup"),
    ("repro.vector.executor", "", "makespan_under_outages", "vector.solve"),
    ("repro.vector.system", "", "makespan_under_outages", "vector.solve"),
    ("repro.vector.census", "VectorCensus", "consolidate",
     "vector.census.consolidate"),
)

#: Classes whose instances a traced run keeps, to read their public
#: counters once the run ends.
COLLECT: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.core", "Simulator"),
    ("repro.core.backend", "Backend"),
    ("repro.core.taskloop", "CohortDVE"),
    ("repro.carousel.carousel", "ObjectCarousel"),
    ("repro.net.broadcast", "BroadcastChannel"),
    ("repro.certify.certifier", "ResultCertifier"),
)

#: Per-layer metric -> (unit, better, should move, most work, little).
LAYERS: Dict[str, Tuple[str, str, str, str, str]] = {}


def _layer(names, unit, better, moves, most, little):
    for name in names.split():
        LAYERS[name] = (unit, better, moves, most, little)


_EV, _VEC, _FED, _SRV = ("event_cycle", "vector_storm", "fed_sabotage",
                         "serve_flash")
_ALL_BUT = {w: ",".join(x for x in (_EV, _VEC, _FED, _SRV) if x != w)
            for w in (_EV, _VEC, _FED, _SRV)}
_layer("sim.events sim.peak_queued", "count", "lower", "run_s",
       f"{_FED},{_SRV}", f"{_EV},{_VEC}")
_layer("sim.self_s", "s", "lower", "run_s", f"{_FED},{_SRV}", f"{_EV},{_VEC}")
_layer("fleet.build.s", "s", "lower", "setup_s,peak_rss_mb", _EV, _VEC)
_layer("fleet.nodes", "count", "higher", "setup_s,peak_rss_mb", _EV, _VEC)
_layer("workload.bag.s", "s", "lower", "setup_s", _EV, _SRV)
_layer("pna.deliver_control.calls", "count", "lower", "run_s", _EV, _VEC)
_layer("pna.deliver_control.s", "s", "lower", "run_s", _EV, _VEC)
_layer("controller.publish_wakeup.calls controller.lifecycle.calls",
       "count", "lower", "run_s", f"{_SRV},{_FED}", _EV)
_layer("controller.publish_wakeup.s controller.lifecycle.s", "s", "lower",
       "run_s", f"{_SRV},{_FED}", _EV)
_layer("controller.restore.calls", "count", "lower", "run_s,availability",
       f"{_SRV},{_FED}", _EV)
_layer("controller.restore.s", "s", "lower", "run_s,availability",
       f"{_SRV},{_FED}", _EV)
_layer("router.send_heartbeats.calls", "count", "lower", "run_s",
       f"{_EV},{_SRV}", _VEC)
_layer("router.send_heartbeats.s", "s", "lower", "run_s", f"{_EV},{_SRV}",
       _VEC)
_layer("backend.receive_request_cohort.calls backend.receive_result.calls "
       "backend.requeues", "count", "lower", "ops_per_s", f"{_EV},{_FED}",
       _SRV)
_layer("backend.receive_request_cohort.s backend.receive_result.s", "s",
       "lower", "ops_per_s", f"{_EV},{_FED}", _SRV)
_layer("backend.useful_ratio", "ratio", "higher", "ops_per_s",
       f"{_EV},{_FED}", _SRV)
_layer("taskloop.on_backend_message.calls taskloop.retransmissions",
       "count", "lower", "run_s", _EV, _FED)
_layer("taskloop.tasks_completed", "count", "higher", "run_s", _EV, _FED)
_layer("taskloop.on_backend_message.s", "s", "lower", "run_s", _EV, _FED)
_layer("carousel.read.calls carousel.cycles_completed "
       "carousel.cycles_skipped", "count", "lower", "run_s,ttr_p99_s",
       _SRV, _VEC)
_layer("carousel.read.s", "s", "lower", "run_s,ttr_p99_s", _SRV, _VEC)
_layer("broadcast.bits_sent", "bit", "lower", "run_s,ttr_p99_s", _SRV, _VEC)
_layer("provider.request_instance_async.calls provider.cancel_request.calls "
       "provider.release.calls", "count", "lower", "run_s,slo_attainment",
       _SRV, _EV)
_layer("provider.request_instance_async.s provider.cancel_request.s "
       "provider.release.s", "s", "lower",
       "run_s,slo_attainment", _SRV, _EV)
_layer("gateway.submit.calls gateway.rejected pool.acquire.calls", "count",
       "lower", "ops_per_s,ttr_p99_s", _SRV, _ALL_BUT[_SRV])
_layer("gateway.submit.s pool.acquire.s", "s", "lower",
       "ops_per_s,ttr_p99_s", _SRV, _ALL_BUT[_SRV])
_layer("pool.hit_ratio", "ratio", "higher", "ops_per_s,ttr_p99_s", _SRV,
       _ALL_BUT[_SRV])
_layer("federation.submit_job.s federation.rebalance.s", "s", "lower",
       "run_s", _FED, _ALL_BUT[_FED])
_layer("federation.rebalance.calls", "count", "lower", "run_s", _FED,
       _ALL_BUT[_FED])
_layer("certify.serve.calls certify.on_result.calls certify.copies_issued "
       "certify.quarantines", "count", "lower", "run_s,redundancy_overhead",
       _FED, _ALL_BUT[_FED])
_layer("certify.serve.s certify.on_result.s", "s", "lower",
       "run_s,redundancy_overhead", _FED, _ALL_BUT[_FED])
_layer("certify.useful_ratio", "ratio", "higher",
       "run_s,redundancy_overhead", _FED, _ALL_BUT[_FED])
_layer("faults.injected faults.restored masks.windows", "count", "lower",
       "availability,setup_s", f"{_FED},{_VEC}", _EV)
_layer("masks.compile.s", "s", "lower", "availability,setup_s",
       f"{_FED},{_VEC}", _EV)
_layer("vector.recruit.calls vector.solve.calls "
       "vector.census.consolidate.calls", "count", "lower",
       "run_s,ops_per_s,peak_rss_mb", _VEC, _ALL_BUT[_VEC])
_layer("vector.nodes_recruited", "count", "higher",
       "run_s,ops_per_s,peak_rss_mb", _VEC, _ALL_BUT[_VEC])
_layer("vector.recruit.s vector.wakeup.s vector.solve.s "
       "vector.census.consolidate.s", "s", "lower",
       "run_s,ops_per_s,peak_rss_mb", _VEC, _ALL_BUT[_VEC])
_layer("other.self_s", "s", "lower", "n/a", "all", "n/a")
_layer("trace.overhead", "ratio", "lower", "n/a", "all", "n/a")


class SpanRecorder:
    """Installs the span wrappers and accumulates their statistics.

    ``delays`` maps a span name to seconds of busy-waiting added to each
    call of it -- the benchmark's own fault injection, used to prove a
    layer's cost shows up in the metric that layer should move.
    """

    def __init__(self, delays: Optional[Dict[str, float]] = None) -> None:
        self.delays = dict(delays or {})
        #: span -> [calls, self seconds]
        self.stats: Dict[str, List[float]] = {}
        self.instances: Dict[str, List[Any]] = {}
        self.peak_queued = 0
        self._stack: List[float] = []

    def install(self, traced: bool) -> None:
        """Wrap every span and collect instances when ``traced``;
        otherwise wrap only the delayed spans."""
        for module, owner, attr, span in SPANS:
            if not traced and span not in self.delays:
                continue
            target = importlib.import_module(module)
            if owner:
                target = getattr(target, owner)
            setattr(target, attr, self._wrap(getattr(target, attr), span))
        if traced:
            for module, cls in COLLECT:
                klass = getattr(importlib.import_module(module), cls)
                klass.__init__ = self._collector(klass.__init__, cls)

    def _wrap(self, func: Callable, span: str) -> Callable:
        stats = self.stats.setdefault(span, [0, 0.0])
        stack = self._stack
        delay = self.delays.get(span, 0.0)
        clock = time.perf_counter
        recorder = self

        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                if delay:
                    while clock() - start < delay:
                        pass
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                stats[0] += 1
                stats[1] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
                sims = recorder.instances.get("Simulator")
                if sims:
                    queued = sims[-1].queued_events
                    if queued > recorder.peak_queued:
                        recorder.peak_queued = queued

        wrapper.__wrapped__ = func
        return wrapper

    def _collector(self, init: Callable, name: str) -> Callable:
        bucket = self.instances.setdefault(name, [])

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            bucket.append(obj)

        __init__.__wrapped__ = init
        return __init__

    # -- results ------------------------------------------------------
    def calls(self, span: str) -> int:
        return int(self.stats.get(span, (0, 0.0))[0])

    def self_s(self, span: str) -> float:
        return self.stats.get(span, (0, 0.0))[1]

    def covered_s(self) -> float:
        """Sum of every span's self time (= time inside any span)."""
        return sum(s[1] for s in self.stats.values())

    def layer_metrics(self, wall_s: float, outputs: dict,
                      fault_counters: Dict[str, int]) -> Dict[str, float]:
        """Every per-layer metric of :data:`LAYERS` except
        ``trace.overhead``, which needs the untraced run."""
        inst = self.instances
        backends = inst.get("Backend", [])
        dves = inst.get("CohortDVE", [])
        carousels = inst.get("ObjectCarousel", [])
        certifiers = inst.get("ResultCertifier", [])
        assigned = sum(b.tasks_assigned for b in backends)
        completed = sum(b.completed_count for b in backends)
        copies = sum(c.copies_issued for c in certifiers)
        m: Dict[str, float] = {
            "sim.events": outputs.get("events", 0),
            "sim.self_s": self.self_s("sim"),
            "sim.peak_queued": self.peak_queued,
            "fleet.build.s": self.self_s("fleet.build"),
            "fleet.nodes": outputs.get("fleet_nodes", 0),
            "workload.bag.s": self.self_s("workload.bag"),
            "backend.requeues": sum(b.requeues for b in backends),
            "backend.useful_ratio": completed / assigned if assigned else 0.0,
            "taskloop.tasks_completed": sum(d.tasks_completed for d in dves),
            "taskloop.retransmissions": sum(d.retransmissions for d in dves),
            "carousel.cycles_completed": sum(
                c.cycles_completed for c in carousels),
            "carousel.cycles_skipped": sum(
                c.cycles_skipped for c in carousels),
            "broadcast.bits_sent": sum(
                b.bits_sent for b in inst.get("BroadcastChannel", [])),
            "gateway.rejected": outputs.get("gateway_rejected", 0),
            "pool.hit_ratio": outputs.get("pool_hit_ratio", 0.0),
            "certify.copies_issued": copies,
            "certify.useful_ratio": (
                sum(c.tasks_certified for c in certifiers) / copies
                if copies else 0.0),
            "certify.quarantines": sum(c.quarantines for c in certifiers),
            "faults.injected": fault_counters.get("fault.injected", 0),
            "faults.restored": fault_counters.get("fault.restored", 0),
            "masks.windows": outputs.get("mask_windows", 0),
            "vector.nodes_recruited": outputs.get("nodes_recruited", 0),
        }
        for name in LAYERS:
            if name in m or name in ("other.self_s", "trace.overhead"):
                continue
            span, _, kind = name.rpartition(".")
            m[name] = self.calls(span) if kind == "calls" else \
                self.self_s(span)
        m["other.self_s"] = wall_s - self.covered_s()
        return m

    def coverage(self, outputs: dict) -> List[Tuple[str, int, int]]:
        """``(check, wrapper count, program count)`` pairs.  A mismatch
        means a path reached the layer without passing its wrapper."""
        inst = self.instances
        certifiers = inst.get("ResultCertifier", [])
        backends = inst.get("Backend", [])
        dves = inst.get("CohortDVE", [])
        checks = [
            ("taskloop.on_backend_message.calls >= tasks_completed",
             self.calls("taskloop.on_backend_message"),
             sum(d.tasks_completed for d in dves)),
            ("backend.receive_result.calls >= Backend completions",
             self.calls("backend.receive_result"),
             sum(b.completed_count for b in backends)),
            ("certify.serve.calls >= copies_issued",
             self.calls("certify.serve"),
             sum(c.copies_issued for c in certifiers)),
            ("gateway.submit.calls == gateway requests",
             self.calls("gateway.submit"),
             int(outputs.get("gateway_requests", 0))),
        ]
        return checks


def coverage_gaps(checks: List[Tuple[str, int, int]]) -> List[str]:
    """The coverage checks whose wrapper count falls short."""
    gaps = []
    for name, wrapped, program in checks:
        exact = "==" in name
        if (wrapped != program) if exact else (wrapped < program):
            gaps.append(f"{name}: wrapper {wrapped}, program {program}")
    return gaps
