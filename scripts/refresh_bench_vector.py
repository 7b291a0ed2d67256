"""Refresh BENCH_vector.json with interleaved fresh-process runs.

Protocol (DESIGN.md §8/§12): every point runs in a fresh interpreter
(fresh allocator, GC state), the scales interleave round by round so
host drift hits every scale evenly, and each point keeps the
best-of-N wall time.  The scenario is the two-submission vector-system
cycle (job 1 rides a 0.3 churn storm) from
:func:`repro.perfbench.run_vector_scenario`.

Usage::

    PYTHONPATH=src python scripts/refresh_bench_vector.py \
        [--scales 100000 1000000 10000000] [--rounds 3] [--big 0]

``--big 100000000`` appends a single-round 10^8 smoke point (about
20 minutes and ~8 GB RSS on the reference host; not part of the
tracked sweep by default).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

POINT_SNIPPET = """\
import json
from repro.perfbench import run_vector_scenario
print("@@" + json.dumps(run_vector_scenario({n})))
"""


def run_point(n: int) -> dict:
    """One metrics point in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c",
                          POINT_SNIPPET.format(n=n)],
                         capture_output=True, text=True, check=True)
    for line in out.stdout.splitlines():
        if line.startswith("@@"):
            return json.loads(line[2:])
    raise RuntimeError(f"no metrics line in output:\n{out.stdout}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scales", type=int, nargs="+",
                        default=[100_000, 1_000_000, 10_000_000])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--big", type=int, default=0,
                        help="extra single-round smoke scale (0 = skip)")
    parser.add_argument("--out", type=str, default="BENCH_vector.json")
    opts = parser.parse_args()

    points: dict = {}
    for r in range(opts.rounds):
        for n in opts.scales:
            if n >= 10_000_000 and r > 0:
                continue  # the 10^7 point is the slowest; one round
            m = run_point(n)
            old = points.get(str(n))
            if old is None or m["wall_s"] < old["wall_s"]:
                points[str(n)] = m
            print(f"round {r} n={n}: wall {m['wall_s']}s "
                  f"({m['nodes_per_sec']:.0f} nodes/s)", flush=True)
    if opts.big:
        points[str(opts.big)] = run_point(opts.big)
        print(f"big n={opts.big}: wall {points[str(opts.big)]['wall_s']}s",
              flush=True)

    import platform

    from repro.perfbench import SCENARIO

    tracked = str(opts.scales[-1])
    acceptance = {
        f"vector_{tracked}_wall_s": points[tracked]["wall_s"],
        f"vector_{tracked}_nodes_per_sec":
            points[tracked]["nodes_per_sec"],
        "storm_costs_availability": all(
            m["availability_1"] < m["availability_2"]
            for m in points.values()),
    }
    doc = {
        "benchmark": "vector",
        "scenario": dict(SCENARIO),
        "python": platform.python_version(),
        "after": {"vector": points},
        "notes": {
            "acceptance": acceptance,
            "families": {
                "vector": "Two sequential VectorOddCISystem submissions "
                          "against one persistent population (8 MB image, "
                          "30 s tasks, tasks_per_node from SCENARIO); a "
                          "0.3-magnitude churn storm lands in job 1's "
                          "window.  nodes_per_sec = recruited nodes over "
                          "run wall seconds (build excluded).",
            },
            "protocol": "Interleaved fresh-process runs per scale "
                        "(scripts/refresh_bench_vector.py); GC disabled "
                        "during the measured section; best-of-N per "
                        "point (the host carries ±20% noise).",
        },
    }
    with open(opts.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[written to {opts.out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
