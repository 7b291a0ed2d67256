"""VectorOddCISystem: multi-job submissions, faults, census, telemetry."""

import numpy as np
import pytest

from repro.core.census import STATE_BUSY
from repro.errors import AnalysisError, ConfigurationError
from repro.faults import FaultEvent, FaultPlan, active_plan
from repro.net.message import MEGABYTE
from repro.telemetry import trace as telemetry
from repro.vector import VectorOddCISystem, VectorPopulation
from repro.workloads import BagSpec, uniform_bag, uniform_bag_spec


def make_system(n=2_000, seed=0, **kwargs):
    return VectorOddCISystem(n, seed=seed, **kwargs)


def make_job(n_tasks=4_000, ref_seconds=30.0):
    return uniform_bag(n_tasks, image_bits=4 * MEGABYTE,
                       ref_seconds=ref_seconds)


# -- construction -------------------------------------------------------------

def test_requires_population_or_n():
    with pytest.raises(ConfigurationError):
        VectorOddCISystem()
    with pytest.raises(ConfigurationError):
        VectorOddCISystem(100, heartbeat_interval_s=0.0)
    with pytest.raises(ConfigurationError):
        VectorOddCISystem(100, census_epochs=0)


def test_adopts_existing_population():
    pop = VectorPopulation(500, seed=3)
    system = VectorOddCISystem(population=pop)
    assert system.population is pop


def test_picks_up_ambient_fault_plan():
    plan = FaultPlan((FaultEvent("churn_storm", 100.0, duration_s=50.0,
                                 magnitude=0.2),), name="ambient")
    with active_plan(plan):
        system = make_system()
    assert system.plan is plan
    assert len(system.compiled.windows) == 1
    # An empty ambient plan means "no faults", not a plan of nothing.
    with active_plan(None):
        assert make_system().plan is None


# -- multi-job Provider semantics ---------------------------------------------

def test_sequential_jobs_share_clock_and_population():
    system = make_system()
    r1 = system.run_job(make_job(), target_size=1_000)
    r2 = system.run_job(make_job(), target_size=1_000)
    assert r1.job_index == 0 and r2.job_index == 1
    assert r1.submit_time == 0.0
    assert r2.submit_time == pytest.approx(r1.finish_time)
    assert system.now == pytest.approx(r2.finish_time)
    # Released between jobs: the second recruitment found a full pool.
    assert abs(r2.recruited - r1.recruited) < 0.2 * r1.recruited
    assert system.population.busy_count == 0
    assert system.reports == [r1, r2]


def test_run_jobs_helper_matches_sequential_calls():
    a = make_system(seed=11)
    reports = a.run_jobs([(make_job(), 800), (make_job(), 800)])
    b = make_system(seed=11)
    assert reports == [b.run_job(make_job(), 800),
                       b.run_job(make_job(), 800)]


def test_identical_seeds_are_identical_runs():
    r1 = make_system(seed=42).run_job(make_job(), target_size=1_000)
    r2 = make_system(seed=42).run_job(make_job(), target_size=1_000)
    assert r1 == r2


def test_target_size_validation():
    with pytest.raises(ConfigurationError):
        make_system().run_job(make_job(), target_size=0)


def test_no_idle_nodes_raises():
    system = make_system(n=100)
    system.population.recruit(1.0)  # exhaust the pool
    with pytest.raises(AnalysisError):
        system.run_job(make_job(), target_size=10)


def test_report_efficiency_and_availability_are_sane():
    report = make_system().run_job(make_job(), target_size=1_000)
    assert 0.0 < report.efficiency <= 1.0
    assert 0.0 < report.availability <= 1.0
    assert report.makespan_s > 0
    assert report.start_time == report.submit_time  # no blackout
    assert report.finish_time == pytest.approx(
        report.submit_time + report.makespan_s)


# -- BagSpec duck-typing ------------------------------------------------------

def test_bagspec_and_real_bag_produce_identical_reports():
    n_tasks = 4_000
    spec = uniform_bag_spec(n_tasks, image_bits=4 * MEGABYTE,
                            ref_seconds=30.0)
    assert isinstance(spec, BagSpec)
    bag = uniform_bag(n_tasks, image_bits=4 * MEGABYTE, ref_seconds=30.0,
                      input_bits=spec.input_bits,
                      result_bits=spec.result_bits)
    r_spec = make_system(seed=9).run_job(spec, target_size=1_000)
    r_bag = make_system(seed=9).run_job(bag, target_size=1_000)
    assert r_spec == r_bag


# -- faults -------------------------------------------------------------------

def test_recruitment_blackout_defers_start():
    plan = FaultPlan((FaultEvent("broadcast_outage", 0.0,
                                 duration_s=40.0),), name="blackout")
    report = make_system(plan=plan).run_job(make_job(), target_size=1_000)
    assert report.start_time == pytest.approx(40.0)
    assert report.submit_time == 0.0
    # The deferral is part of the submission's makespan.
    assert report.makespan_s == pytest.approx(
        report.finish_time - report.submit_time)


def test_churn_storm_stretches_makespan_and_costs_availability():
    clean = make_system(seed=5).run_job(make_job(), target_size=1_000)
    storm_at = clean.makespan_s / 3.0
    plan = FaultPlan((FaultEvent("churn_storm", storm_at,
                                 duration_s=clean.makespan_s / 4.0,
                                 magnitude=0.4),), name="storm")
    stormy = make_system(seed=5, plan=plan).run_job(
        make_job(), target_size=1_000)
    assert stormy.makespan_s > clean.makespan_s
    assert stormy.availability < clean.availability


def test_controller_crash_zeroes_availability_window():
    clean = make_system(seed=5).run_job(make_job(), target_size=1_000)
    plan = FaultPlan((FaultEvent("controller_crash", clean.makespan_s / 3,
                                 duration_s=clean.makespan_s / 4),),
                     name="crash")
    crashed = make_system(seed=5, plan=plan).run_job(
        make_job(), target_size=1_000)
    # Census reads zero for ~1/4 of the run: availability drops by
    # about that fraction, makespan is untouched (compute continues).
    assert crashed.makespan_s == pytest.approx(clean.makespan_s)
    assert crashed.availability < clean.availability - 0.15
    times = np.asarray(crashed.size_series.times)
    values = np.asarray(crashed.size_series.values)
    assert (values[(times >= clean.makespan_s / 3)
                   & (times < clean.makespan_s / 3
                      + clean.makespan_s / 4)] == 0).all()


def test_storm_after_finish_is_inert():
    clean = make_system(seed=5).run_job(make_job(), target_size=1_000)
    plan = FaultPlan((FaultEvent("churn_storm",
                                 clean.makespan_s + 1_000.0,
                                 duration_s=100.0, magnitude=0.5),),
                     name="late")
    late = make_system(seed=5, plan=plan).run_job(
        make_job(), target_size=1_000)
    assert late.makespan_s == pytest.approx(clean.makespan_s)
    assert late.availability == pytest.approx(clean.availability)


# -- census & telemetry -------------------------------------------------------

def test_census_gauges_reflect_fleet_after_run():
    system = make_system()
    report = system.run_job(make_job(), target_size=1_000)
    assert report.census["registry_size"] == report.recruited
    assert report.census["alive"] == report.recruited
    gauges = system.census.consolidate(system.now)
    assert gauges["idle"] == report.recruited  # released at finish


def test_trace_and_metrics_emitted_under_active_tracer():
    with telemetry.active(telemetry.Tracer("vector")) as tracer:
        system = make_system()
        system.run_job(make_job(), target_size=1_000)
    names = [name for _t, _cat, name, _fields in tracer.events()]
    assert "submit" in names and "recruit" in names
    assert "census_epoch" in names and "finish" in names
    assert tracer.metrics.counter("census.heartbeats").value > 0


def test_fault_counters_track_windows():
    plan = FaultPlan((FaultEvent("churn_storm", 10.0, duration_s=20.0,
                                 magnitude=0.2),), name="counted")
    with telemetry.active(telemetry.Tracer("vector")) as tracer:
        system = make_system(plan=plan)
        system.run_job(make_job(), target_size=1_000)
    assert tracer.metrics.counter("fault.injected").value == 1
    assert tracer.metrics.counter("fault.restored").value == 1


class _ReobserveEverySystem(VectorOddCISystem):
    """Reference census loop: re-observe every up row each epoch."""

    def _run_census_epochs(self, recruited, outages, census_outages,
                           t_start, finish, *, instance):
        census = self.census
        census.observe(recruited, STATE_BUSY, instance, t_start)
        span = finish - t_start
        epochs = min(self.census_epochs,
                     max(1, int(span / self.heartbeat_interval_s) or 1))
        times = np.linspace(t_start, finish, epochs + 1)[1:]
        t = self._trace
        gauges = census.consolidate(t_start)
        for te in times:
            te = float(te)
            if any(w.start <= te < w.end for w in census_outages):
                census.clear()
                gauges = census.consolidate(te)
                if t is not None:
                    t.emit(te, "census_outage", **gauges)
                continue
            up = np.ones(recruited.size, dtype=bool)
            for ws, we, mask, _rv in outages:
                if ws <= te < we:
                    up &= ~mask
            census.observe(recruited[up], STATE_BUSY, instance, te)
            census.heartbeat(recruited[up], te)
            gauges = census.consolidate(te)
            if t is not None:
                t.emit(te, "census_epoch", **gauges)
        return gauges


def _census_run(cls, plan):
    with telemetry.active(telemetry.Tracer("vector")) as tracer:
        system = cls(2_000, seed=3, plan=plan)
        reports = system.run_jobs([(make_job(), 1_000)] * 2)
    return system, reports, tracer


def test_census_epochs_write_only_transitions_across_crash_in_storm():
    """A churn storm straddles a controller crash, so storm victims come
    back only after the census was cleared: the transition-only epoch
    loop must leave the same census as re-observing every up row."""
    span = make_system(seed=3).run_job(make_job(), 1_000).makespan_s
    plan = FaultPlan((
        FaultEvent("churn_storm", 0.2 * span, duration_s=0.5 * span,
                   magnitude=0.4),
        FaultEvent("controller_crash", 0.35 * span, duration_s=0.1 * span),
    ), name="crash-in-storm")
    system, reports, tracer = _census_run(VectorOddCISystem, plan)
    ref_system, ref_reports, ref_tracer = _census_run(
        _ReobserveEverySystem, plan)

    system.census.validate()
    events = [(t, name, fields) for t, _c, name, fields in tracer.events()]
    names = [name for _t, name, _f in events]
    crash = names.index("census_outage")
    assert "census_epoch" in names[crash:]  # the census heals after it
    assert reports[0].census["registry_size"] == reports[0].recruited

    assert [r.census for r in reports] == [r.census for r in ref_reports]
    assert events == [(t, name, fields)
                      for t, _c, name, fields in ref_tracer.events()]
    census_metrics = {
        kind: {k: v for k, v in series.items() if k.startswith("census.")}
        for kind, series in tracer.metrics.snapshot().items()}
    ref_metrics = {
        kind: {k: v for k, v in series.items() if k.startswith("census.")}
        for kind, series in ref_tracer.metrics.snapshot().items()}
    assert census_metrics["counters"] and census_metrics == ref_metrics
    for column in ("state", "seen", "instance"):
        assert (getattr(system.census, column).tobytes()
                == getattr(ref_system.census, column).tobytes()), column
