# Convenience targets for the XEMEM reproduction.

PYTHON ?= python

.PHONY: install test audit chaos soak lint lint-repro bench bench-compare serve-report figures examples clean diagnose perf-diff

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

audit:
	REPRO_AUDIT=1 $(PYTHON) -m pytest tests/

# The CI chaos matrix, locally: the fault-injection suite under the
# invariant auditor, across three fault schedules.
chaos:
	for seed in 0 1 2; do \
		REPRO_AUDIT=1 REPRO_CHAOS_SEED=$$seed \
			$(PYTHON) -m pytest tests/faults -q || exit 1; \
	done

# The CI soak pair, locally: ramp open-loop load through saturation,
# protected vs baseline, two seeds; exits 4 (with an incident bundle
# under soak-out/) if the protected run breaches its SLOs. Seed 0 must
# then equal the committed baseline byte for byte.
soak:
	for seed in 0 1; do \
		PYTHONPATH=src $(PYTHON) -m repro soak --seed $$seed \
			--out soak-out/BENCH_serving_seed$$seed.json \
			--bundle-dir soak-out || exit $$?; \
	done
	cmp soak-out/BENCH_serving_seed0.json benchmarks/baselines/BENCH_serving.json

# Both linters: ruff (style) and the project's determinism &
# simulation-safety analyzer (docs/LINT.md). Both gate CI.
lint:
	ruff check src tests
	PYTHONPATH=src $(PYTHON) -m repro lint

lint-repro:
	PYTHONPATH=src $(PYTHON) -m repro lint

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# The host-time gates: each bench test asserts its in-run bound and then
# checks its keys against benchmarks/baselines/BENCH_*.json. The
# trace-capture test writes the deterministic capture that
# `make perf-diff` compares with the committed one when a gate fails.
bench-compare:
	$(PYTHON) -m pytest benchmarks/test_baseline_check.py \
		benchmarks/test_simulator_speed.py::test_speed_fidelity_1gib_attach_speedup \
		benchmarks/test_simulator_speed.py::test_speed_columnar_16gib_pipeline_speedup \
		benchmarks/test_simulator_speed.py::test_speed_trace_capture_sibling \
		benchmarks/test_obs_overhead.py -q

# Render an incident bundle as a causal timeline:
#   make diagnose BUNDLE=incident-chaos
BUNDLE ?= incident-chaos
diagnose:
	PYTHONPATH=src $(PYTHON) -m repro diagnose $(BUNDLE)

# Attribute the virtual-time delta between two captures (trace exports
# or incident bundles):
#   make perf-diff BASELINE=a.trace.json CURRENT=b.trace.json
BASELINE ?= benchmarks/baselines/BENCH_speed.trace.json
CURRENT ?= benchmarks/results/BENCH_speed.trace.json
perf-diff:
	PYTHONPATH=src $(PYTHON) -m repro perf-diff $(BASELINE) $(CURRENT)

# The full serving-telemetry pipeline: closed-loop sessions, time-series,
# SLO verdicts, journeys, and every exporter under serve-report/.
serve-report:
	$(PYTHON) -m repro serve-report --seed 0 --out-dir serve-report

figures:
	$(PYTHON) -m repro all

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/xpmem_c_port.py
	$(PYTHON) examples/enclave_topology_tour.py
	$(PYTHON) examples/insitu_composed_workload.py
	$(PYTHON) examples/noise_and_isolation.py

clean:
	rm -rf build *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
