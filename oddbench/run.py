"""OddCI benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout::

    python3 oddbench/run.py --workload event_cycle --seed 1 --seconds 20 \
        --trace 0

Each repetition runs in a fresh process (``child.py``) with a pinned
hash seed and single-threaded BLAS/OpenMP, after one discarded warm-up
process that fills the page and bytecode caches.  Repetitions continue
until ``--seconds`` have passed (and at least a minimum count ran); host
times are medians over repetitions, in reference-host seconds (see
:func:`host_seconds`).  Sim-side metrics are deterministic for a seed.  Every repetition checks the workload's outputs; a failed
check marks the run incorrect and its operations failed.

``--trace 0`` reports every end-to-end metric; ``--trace 1`` alternates
untraced and traced repetitions and reports every per-layer metric.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "makespan_s": "sim_s",
    "efficiency": "ratio",
    "availability": "ratio",
    "ttr_p50_s": "sim_s",
    "ttr_p99_s": "sim_s",
    "slo_attainment": "ratio",
    "redundancy_overhead": "copies/task",
    "result_integrity": "ratio",
    "success_fraction": "ratio",
}

#: Wall time of either ``child.REFERENCES`` task on the reference host
#: (the 2-vCPU x86_64 machine the bounds in BENCHMARK.json were set on).
REFERENCE_HOST_S = 0.05

MIN_REPS = 3
MIN_TRACE_REPS = 2
#: Hard cap on one run's wall time, well inside the 180 s limit.
DEADLINE_S = 150.0


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(root, ".bench_build",
                                              "pycache")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(root: str, env: Dict[str, str], args: List[str],
              timeout: float) -> dict:
    """One repetition; a crash or timeout becomes a failed repetition."""
    cmd = [sys.executable, os.path.join(HERE, "child.py")] + args
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return {"failures": [f"repetition timed out: {' '.join(args)}"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failures": [f"repetition exited {proc.returncode}: "
                             f"{tail[0]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_seconds(rep: dict, key: str) -> float:
    """A repetition's host time scaled to the reference host.

    The host this benchmark runs on changes speed by 15-25% over
    minutes, and a slow phase outlasts a run, so raw wall times of
    identical code spread wider across runs than any useful regression
    bound.  Each repetition therefore times a fixed reference task
    around its set-up and run; dividing by the median of those timings
    (and multiplying by the reference task's time on the reference
    host) cancels the host's current speed.  Raw times are printed
    alongside."""
    return rep[key] * REFERENCE_HOST_S / statistics.median(rep["host_ref_s"])


def percentile(pairs: List[List[float]], q: float) -> float:
    """``q``-th percentile (linear interpolation) of weighted samples."""
    import numpy as np

    values = np.asarray([p[0] for p in pairs], dtype=float)
    counts = np.asarray([p[1] for p in pairs], dtype=np.int64)
    return float(np.percentile(np.repeat(values, counts), q))


def sim_metrics(reps: List[dict], limit_s: float) -> Dict[str, float]:
    """Sim-side end-to-end metrics pooled over one pass of replicas."""
    pairs = [p for r in reps for p in r["ttr"]]
    population = sum(r["ttr_population"] for r in reps)
    within = sum(c for r in reps for t, c in r["ttr"] if t <= limit_s)
    committed = sum(r["committed"] for r in reps)
    return {
        "makespan_s": statistics.fmean(r["makespan_s"] for r in reps),
        "efficiency": statistics.fmean(r["efficiency"] for r in reps),
        "availability": statistics.fmean(r["availability"] for r in reps),
        "ttr_p50_s": percentile(pairs, 50),
        "ttr_p99_s": percentile(pairs, 99),
        "slo_attainment": within / population,
        "redundancy_overhead": statistics.fmean(
            r["redundancy_overhead"] for r in reps),
        "result_integrity": 1.0 - sum(r["escaped"] for r in reps) / committed,
        "success_fraction": (sum(r["ops"] for r in reps)
                             / sum(r["attempted"] for r in reps)),
        "ttr_samples": int(sum(c for _t, c in pairs)),
    }


def host_facts() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def measure(root: str, workload: str, seed: int, seconds: float,
            trace: int, size: str) -> dict:
    env = child_env(root)
    start = time.perf_counter()
    run_child(root, env, ["--warmup"], DEADLINE_S)
    replicas = workloads.REPLICAS[workload]
    reps: List[dict] = []
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if trace:
            traced = i % 2 == 1
            enough = (sum(1 for r in reps if r["traced"]) >= MIN_TRACE_REPS
                      and sum(1 for r in reps if not r["traced"])
                      >= MIN_TRACE_REPS)
            replica = 0
        else:
            traced = False
            enough = len(reps) >= max(MIN_REPS, replicas)
            replica = i % replicas
        if (enough and elapsed >= seconds) or elapsed >= DEADLINE_S:
            break
        args = ["--workload", workload, "--seed", str(16 * seed + replica),
                "--size", size, "--trace", "1" if traced else "0"]
        rep = run_child(root, env, args, DEADLINE_S + 20.0 - elapsed)
        rep["traced"] = traced
        rep["replica"] = replica
        reps.append(rep)
        i += 1
    return summarize(workload, reps, trace, replicas)


def summarize(workload: str, reps: List[dict], trace: int,
              replicas: int) -> dict:
    failures: List[str] = []
    attempted = failed = 0
    for n, rep in enumerate(reps):
        reasons = list(rep.get("failures", []))
        if rep.get("traced") and "layers" in rep:
            layers = rep["layers"]
            spans = sum(v for k, v in layers.items()
                        if k.endswith(".s") or k.endswith("self_s"))
            if abs(spans - rep["traced_wall_s"]) > 1e-6 * rep[
                    "traced_wall_s"]:
                reasons.append(f"span self times sum to {spans}, traced "
                               f"wall is {rep['traced_wall_s']}")
        ops = rep.get("attempted", 1)
        attempted += ops
        if reasons:
            failed += ops
            failures += [f"repetition {n}: {r}" for r in reasons]
    ok = [r for r in reps if "run_s" in r]
    result = {"correct": not failures and bool(ok), "attempted": attempted,
              "failed": failed, "failures": failures, "reps": len(reps),
              "raw_host": {
                  key: statistics.median(r[key] for r in ok) if ok else None
                  for key in ("setup_s", "run_s")},
              "host_ref_s": statistics.median(
                  statistics.median(r["host_ref_s"]) for r in ok)
              if ok else None}
    if not ok:
        return result
    if trace:
        plain = [r for r in ok if not r["traced"]]
        traced = sorted((r for r in ok if r["traced"]),
                        key=lambda r: r["traced_wall_s"])
        if not plain or not traced:
            result["correct"] = False
            return result
        chosen = traced[(len(traced) - 1) // 2]
        metrics = dict(chosen["layers"])
        metrics["trace.overhead"] = (
            statistics.median(host_seconds(r, "run_s") for r in traced)
            / statistics.median(host_seconds(r, "run_s") for r in plain))
        result["coverage_gaps"] = chosen["coverage_gaps"]
        result["metrics"] = {
            name: {"value": metrics[name], "unit": tracing.LAYERS[name][0]}
            for name in tracing.LAYERS}
        return result
    first = [r for r in ok if r["replica"] < replicas][:replicas]
    if len(first) < replicas:
        result["correct"] = False
        return result
    metrics = sim_metrics(first, workloads.TTR_LIMIT_S[workload])
    result["ttr_samples"] = metrics.pop("ttr_samples")
    metrics.update({
        "setup_s": statistics.median(host_seconds(r, "setup_s") for r in ok),
        "run_s": statistics.median(host_seconds(r, "run_s") for r in ok),
        "ops_per_s": statistics.median(r["ops"] / host_seconds(r, "run_s")
                                       for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    })
    result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in END_TO_END.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("oddbench: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    result = measure(root, args.workload, args.seed, args.seconds,
                     args.trace, args.size)
    print(json.dumps({"host": host_facts(), "workload": args.workload,
                      "seed": args.seed, "reps": result.pop("reps"),
                      "raw_median_s": result.pop("raw_host"),
                      "host_ref_s": result.pop("host_ref_s"),
                      "ttr_samples": result.pop("ttr_samples", None),
                      "ttr_limit_s": workloads.TTR_LIMIT_S[args.workload],
                      "coverage_gaps": result.pop("coverage_gaps", [])}))
    for failure in result.pop("failures"):
        print(f"FAILED {failure}")
    if "metrics" not in result:
        print("oddbench: no repetition produced metrics", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
