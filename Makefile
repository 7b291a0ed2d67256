PYTHON ?= python
export PYTHONPATH := src

.PHONY: test experiments bench bench-quick bench-floor trace-demo \
	faults-smoke federation-smoke serve-smoke certify-smoke vector-smoke

test:
	$(PYTHON) -m pytest -x -q

# Every registered scenario at smoke scale through the parallel runner
# (tier-2 'experiments' marker; excluded from the default test run).
experiments:
	$(PYTHON) -m pytest tests/experiments/test_smoke_all.py -q \
		--run-experiments

# Full perf harness: event-tier families (BENCH_event_tier.json) plus
# the Backend dispatch-tier family (BENCH_dispatch.json).  Wall numbers
# are machine-dependent — see DESIGN.md §8 for the interleaved
# before/after measurement protocol and §12 for the cohort task path
# ("repro bench --profile" prints cProfile hot spots without touching
# the tracked artifacts).  The census consolidation guard lives in
# bench-floor (DESIGN.md §11).
bench:
	$(PYTHON) -m repro bench
	$(PYTHON) -m repro bench --dispatch
	$(PYTHON) -m repro bench --federation

bench-quick:
	$(PYTHON) -m repro bench --scales 1000 --kernel-scales 10000 \
		--out /tmp/bench_quick.json
	$(PYTHON) -m repro bench --dispatch --dispatch-scales 20000 \
		--out /tmp/bench_dispatch_quick.json
	$(PYTHON) -m repro bench --serve --serve-scales 16 \
		--out /tmp/bench_serve_quick.json

# Reduced-scale event-kernel floor guard (the 10^6 < 60s claim,
# scaled): benchmarks/test_event_kernel_floor.py under --run-perf, plus
# the census consolidation floor (columnar cohort >= 3x the per-payload
# dict oracle at 10^5 members, with census equality).
bench-floor:
	REPRO_FLOOR_SCALE=20000 $(PYTHON) -m pytest \
		benchmarks/test_event_kernel_floor.py -q --run-perf
	$(PYTHON) -m pytest benchmarks/test_census_throughput.py -q --run-perf

# Traced smoke run + human summary of the resulting trace artifacts
# (see DESIGN.md §9 for the event taxonomy).
trace-demo:
	$(PYTHON) -m repro a3 --smoke --trace=all --out /tmp/trace_demo
	$(PYTHON) -m repro.telemetry.export /tmp/trace_demo/a3/trace.jsonl

# Fault-injection smoke: the fault_sweep scenario (availability/MTTR
# under scripted chaos) plus a stock scenario under the demo plan
# (see DESIGN.md §10 for the fault model).
faults-smoke:
	$(PYTHON) -m repro fault_sweep --smoke --jobs 2
	$(PYTHON) -m repro a3 --smoke --faults=demo

# Federated control plane smoke: the federation_sweep scenario through
# the parallel runner, the federation unit/fault suites, and a
# reduced-scale run of the multi-network perf floor (DESIGN.md §13).
federation-smoke:
	$(PYTHON) -m repro federation_sweep --smoke --jobs 2
	$(PYTHON) -m pytest tests/core/test_federation.py \
		tests/faults/test_shard_faults.py tests/core/test_provider.py -q
	REPRO_FLOOR_SCALE=20000 $(PYTHON) -m pytest \
		benchmarks/test_federation_floor.py -q --run-perf

# Sabotage-tolerance smoke: the sabotage_sweep scenario through the
# parallel runner plus the certification/adversary suites on BOTH
# task paths — cohort engine and the per-PNA process oracle
# (DESIGN.md §15).
certify-smoke:
	$(PYTHON) -m repro sabotage_sweep --smoke --jobs 2
	$(PYTHON) -m pytest tests/certify tests/faults/test_adversaries.py \
		tests/faults/test_plan.py tests/faults/test_signature_corruption.py -q
	REPRO_TASK_PATH=process $(PYTHON) -m pytest tests/certify \
		tests/faults/test_adversaries.py -q

# Vector-tier parity smoke: the columnar system/fault-mask/telemetry
# suites, the event-vs-vector agreement suite, the vector_scale
# scenario through the parallel runner, and the throughput floor at
# reduced scale (DESIGN.md §16).
vector-smoke:
	$(PYTHON) -m pytest tests/vector tests/faults/test_masks.py \
		tests/test_tier_agreement.py -q
	$(PYTHON) -m repro vector_scale --smoke --jobs 2
	REPRO_FLOOR_SCALE=100000 $(PYTHON) -m pytest \
		benchmarks/test_vector_floor.py -q --run-perf

# Request-driven service tier smoke: both serve scenarios through the
# parallel runner, the serve unit/fault suites, and the warm-pool perf
# floor at reduced scale (DESIGN.md §14).
serve-smoke:
	$(PYTHON) -m repro service_sweep --smoke --jobs 2
	$(PYTHON) -m repro flash_crowd --smoke --jobs 2
	$(PYTHON) -m pytest tests/serve tests/faults/test_serve_faults.py -q
	REPRO_FLOOR_SCALE=16 $(PYTHON) -m pytest \
		benchmarks/test_serve_floor.py -q --run-perf
