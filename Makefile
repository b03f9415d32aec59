# Convenience targets for the repro library.

.PHONY: install test bench bench-smoke examples scenarios trace-demo docs lint typecheck robustness hash-seeds dev-mode ci all

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only -s

# Tiny-sized run of every benchmark: catches import errors and API drift
# in seconds, skips perf assertions and BENCH_*.json output (the CI job)
bench-smoke:
	BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only -q

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		PYTHONPATH=src python $$script || exit 1; \
		echo; \
	done

scenarios:
	python -m repro scenarios

# Run a seeded workload under full tracing/metrics; see docs/OBSERVABILITY.md
trace-demo:
	PYTHONPATH=src python -m repro trace --seed 7 --out trace-demo.jsonl --online
	@echo "trace: trace-demo.jsonl  metrics: trace-demo.jsonl.metrics.json"

# Execute every fenced python block in the user-facing docs (the CI docs job)
docs:
	python tools/run_doc_examples.py README.md docs/TUTORIAL.md docs/ARCHITECTURE.md docs/PERFORMANCE.md docs/DISTRIBUTED.md docs/OBSERVABILITY.md

# Project static analysis: AST rules R001-R005, spec soundness, docs
# drift. Exit 1 on any finding; see docs/STATIC_ANALYSIS.md.
lint:
	PYTHONPATH=src python -m repro lint

# mypy --strict over repro.core + repro.analysis (config in
# pyproject.toml); skipped gracefully where mypy is not installed.
typecheck:
	@if python -c "import mypy" 2>/dev/null; then \
		PYTHONPATH=src python -m mypy; \
	else \
		echo "typecheck: mypy not installed, skipping (pip install mypy)"; \
	fi

# Program-level robustness analysis over the scenario catalogue, with
# dynamic validation of every NOT-ROBUST verdict (the CI robustness job)
robustness:
	PYTHONPATH=src python -m repro robustness

# The seeded generators and the certificates they feed must not depend
# on set iteration order: re-run the generator-fed suites under two
# other hash seeds (the CI test job's hash-seed step)
HASH_SEED_SUITES = tests/test_core_properties.py tests/test_columnar.py \
	tests/test_history_index.py tests/test_online.py \
	tests/test_online_compaction.py tests/test_parallel.py \
	tests/test_serde.py tests/test_stream.py \
	tests/test_witness_phase.py tests/test_mutation_agreement.py \
	tests/test_hash_seed_determinism.py tests/test_simulation_reference.py \
	tests/test_driver.py tests/test_driver_deadlock.py \
	tests/test_generic_controller.py tests/test_faults.py \
	tests/test_orphan_policy.py tests/test_robustness.py

hash-seeds:
	@for seed in 10 23; do \
		PYTHONHASHSEED=$$seed PYTHONPATH=src python -m pytest -x -q \
			$(HASH_SEED_SUITES) || exit 1; \
	done

# The asyncio suites under Python's development mode (the CI test job's
# dev-mode step).  A never-awaited coroutine (RuntimeWarning) or an
# unclosed resource (ResourceWarning) warns from a finalizer: made an
# error there, it reaches pytest as an unraisable exception, whose
# warning is made an error too.  A task exception nobody retrieved goes
# to the loop's exception handler, which tests/conftest.py turns into a
# failure under -X dev.
DEV_MODE_SUITES = tests/test_stream.py tests/test_flight.py

dev-mode:
	PYTHONPATH=src python -X dev -W error::ResourceWarning -W error::RuntimeWarning \
		-m pytest -x -q -W error::pytest.PytestUnraisableExceptionWarning \
		$(DEV_MODE_SUITES)

# Mirror the GitHub Actions CI jobs locally: lint, typing, robustness,
# the docs job (doc snippets and the shipped examples), the tier-1 tests,
# their hash-seed re-runs and the dev-mode asyncio suites, and the
# smoke-sized benchmarks
ci: lint typecheck robustness docs examples
	PYTHONPATH=src python -m pytest -x -q
	$(MAKE) hash-seeds
	$(MAKE) dev-mode
	$(MAKE) bench-smoke

all: test bench examples
