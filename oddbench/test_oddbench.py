"""The benchmark's own tests, at smoke size.

Run from the repository root::

    python3 -m pytest oddbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)
HOST_KEYS = {"setup_s", "run_s", "peak_rss_mb", "host_ref_s"}


def child(*args, timeout=120):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--size", "smoke",
         *args], cwd=ROOT, env=run.child_env(ROOT), capture_output=True,
        text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_checks_and_repeats_per_seed(workload):
    first = child("--workload", workload, "--seed", "5")
    again = child("--workload", workload, "--seed", "5")
    assert first["failures"] == []
    assert first["attempted"] > 0 and first["ops"] > 0
    assert first["ttr"] and first["ttr_population"] > 0
    sim = {k: v for k, v in first.items() if k not in HOST_KEYS}
    assert sim == {k: v for k, v in again.items() if k not in HOST_KEYS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_its_wall_time(workload):
    out = child("--workload", workload, "--seed", "5", "--trace", "1")
    assert out["failures"] == []
    layers = out["layers"]
    assert set(layers) == set(tracing.LAYERS) - {"trace.overhead"}
    times = sum(v for k, v in layers.items()
                if k.endswith(".s") or k.endswith("self_s"))
    assert times == pytest.approx(out["traced_wall_s"], rel=1e-9)
    assert layers["other.self_s"] > 0
    assert layers["fleet.nodes"] > 0


def test_span_table_times_every_span():
    timed = {span for *_rest, span in tracing.SPANS}
    for span in timed:
        assert f"{span}.s" in tracing.LAYERS or \
            f"{span}.self_s" in tracing.LAYERS, span


def test_coverage_reports_a_bypassed_wrapper():
    checks = [("a.calls >= program", 3, 5), ("b.calls == program", 4, 4),
              ("c.calls >= program", 9, 5)]
    assert tracing.coverage_gaps(checks) == [
        "a.calls >= program: wrapper 3, program 5"]
    # The cohort task engine takes the Backend result path inline: the
    # traced event cycle must report that gap, not under-count silently.
    out = child("--workload", "event_cycle", "--seed", "5", "--trace", "1")
    assert any(gap.startswith("backend.receive_result.calls")
               for gap in out["coverage_gaps"])
    out = child("--workload", "serve_flash", "--seed", "5", "--trace", "1")
    assert out["coverage_gaps"] == []


def test_untraced_run_installs_no_wrapper():
    code = (
        "import sys; sys.argv = ['child.py']; sys.path.insert(0, %r)\n"
        "import child\n"
        "child.main(['--workload', 'event_cycle', '--seed', '1', "
        "'--size', 'smoke'])\n"
        "from repro.core.pna import PNA\n"
        "from repro.sim.core import Simulator\n"
        "assert 'tracing' not in sys.modules\n"
        "assert not hasattr(PNA.deliver_control, '__wrapped__')\n"
        "assert not hasattr(Simulator.run, '__wrapped__')\n" % HERE)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=run.child_env(ROOT), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_delay_in_vector_solve_moves_only_vector_storm():
    delay = 0.25
    plain = child("--workload", "vector_storm", "--seed", "2")
    slowed = child("--workload", "vector_storm", "--seed", "2",
                   "--delay", f"vector.solve={delay}")
    calls = slowed["delayed_calls"]["vector.solve"]
    assert calls == 2
    assert slowed["run_s"] - plain["run_s"] >= 0.8 * calls * delay
    assert slowed["makespan_s"] == plain["makespan_s"]

    plain = child("--workload", "event_cycle", "--seed", "2")
    slowed = child("--workload", "event_cycle", "--seed", "2",
                   "--delay", f"vector.solve={delay}")
    assert slowed["delayed_calls"]["vector.solve"] == 0
    assert abs(slowed["run_s"] - plain["run_s"]) < delay


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("oddbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_metric_on_its_last_line(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    proc = run_cli("--workload", "fed_sabotage", "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--size",
                   "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = bench["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_benchmark_json_declares_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.LAYERS)
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)
    with open(os.path.join(HERE, "README.md")) as fh:
        readme = fh.read()
    for name in tracing.LAYERS:
        assert f"`{name}`" in readme, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "oddbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", "event_cycle", "--seed", "1",
                   "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
