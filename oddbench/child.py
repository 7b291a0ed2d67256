"""One measured repetition of one workload, in a fresh process.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python3 oddbench/child.py --workload event_cycle --seed 7 [--trace 1]
                              [--size smoke] [--delay vector.solve=0.2]

Prints one JSON object: host timings (``setup_s`` from before the first
``repro`` import to the first simulated instant, ``run_s`` to the end of
the simulation, ``peak_rss_mb``, and ``host_ref_s``: three timings of the
workload's fixed reference task taken before set-up, between set-up and
run, and after the run), the workload's sim-side outputs and check failures, and
-- with ``--trace 1`` -- the per-layer metrics and span-coverage gaps.
``--warmup`` only imports the libraries (it fills the page and bytecode
caches so they stay out of ``setup_s``).
"""

import argparse
import heapq
import json
import os
import resource
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (imports no repro module)

WARMUP_MODULES = ("repro.core", "repro.core.federation", "repro.vector.system",
                  "repro.serve", "repro.faults", "repro.certify",
                  "repro.workloads")


def python_reference_s() -> float:
    """Wall time of a fixed pure-Python task shaped like the event
    tier's inner loop (a heap calendar of tuples, dict updates, list
    appends).  Its cost changes only with host speed, so it measures how
    fast the host ran around this repetition."""
    start = time.perf_counter()
    calendar = [(float(i % 97), i) for i in range(2000)]
    heapq.heapify(calendar)
    state, log = {}, []
    for _ in range(60_000):
        when, key = heapq.heappop(calendar)
        state[key] = state.get(key, 0) + 1
        log.append(when)
        heapq.heappush(calendar, (when + 1.0 + (key % 7) * 0.1, key))
    return time.perf_counter() - start


def numpy_reference_s() -> float:
    """Wall time of a fixed array task shaped like the vector tier's
    passes (sort, searchsorted, masked reductions over 10^6 floats)."""
    start = time.perf_counter()
    values = (np.arange(1_000_000, dtype=float) * 0.6180339887) % 1.0
    ordered = np.sort(values)
    positions = np.searchsorted(ordered, values[::50])
    float(values[values > 0.5].sum()) + float(positions.mean())
    return time.perf_counter() - start


REFERENCES = {"python": python_reference_s, "numpy": numpy_reference_s}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--delay", action="append", default=[],
                        metavar="SPAN=SECONDS",
                        help="busy-wait added to every call of a span")
    parser.add_argument("--warmup", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.warmup:
        import importlib
        for module in WARMUP_MODULES:
            importlib.import_module(module)
        print(json.dumps({"warmup": True}))
        return 0
    delays = {}
    for item in args.delay:
        span, _, seconds = item.partition("=")
        delays[span] = float(seconds)
    host_reference_s = REFERENCES[workloads.REFERENCE[args.workload]]
    ref_before = host_reference_s()
    t0 = time.perf_counter()
    recorder = tracer = None
    if args.trace or delays:
        import tracing
        recorder = tracing.SpanRecorder(delays)
        recorder.install(traced=bool(args.trace))
    if args.trace:
        from repro.telemetry.trace import Tracer, install
        # Metrics only: "runner" is a category no workload emits into.
        tracer = install(Tracer("runner"))
    scenario = workloads.WORKLOADS[args.workload](args.seed, args.size)
    setup_s = time.perf_counter() - t0
    ref_between = host_reference_s()
    t1 = time.perf_counter()
    scenario.run()
    t2 = time.perf_counter()
    ref_after = host_reference_s()
    out = {
        "setup_s": setup_s,
        "run_s": t2 - t1,
        "host_ref_s": [ref_before, ref_between, ref_after],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    out.update(scenario.outputs())
    if recorder is not None:
        out["delayed_calls"] = {span: recorder.calls(span) for span in delays}
    if args.trace:
        counters = {name: int(tracer.metrics.counter(name).value)
                    for name in ("fault.injected", "fault.restored")}
        wall = setup_s + (t2 - t1)
        out["traced_wall_s"] = wall
        out["layers"] = recorder.layer_metrics(wall, out, counters)
        out["coverage_gaps"] = tracing.coverage_gaps(recorder.coverage(out))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
