PYTHON ?= python

.PHONY: test lint docs docs-strict bench bench-qut bench-compare clean-docs

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Static analysis: the in-tree invariant checkers always run (stdlib-only);
# ruff and mypy run when installed (CI pins and installs both).
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis src/repro
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests; \
	else echo "lint: ruff not installed, skipped (CI runs it pinned)"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy; \
	else echo "lint: mypy not installed, skipped (CI runs it pinned)"; fi

# Build the documentation site (strict: warnings are errors).
docs:
	$(PYTHON) docs/build_docs.py

# Lenient variant for drafting.
docs-draft:
	$(PYTHON) docs/build_docs.py --no-strict

# The repository's benchmark (BENCHMARK.json): all five workloads, seed 1.
bench:
	$(PYTHON) benchmarks/e2e/run.py

# The durable workloads (QuT read path, append beside QuT, cold open),
# REPEAT runs each, merged into one result set for `make bench-compare`
# (`run.py --repeat N --out` itself only covers the all-workload run):
#   make bench-qut OUT=change.json
#   make bench-qut QUT_WORKLOADS=cold_recovery REPEAT=10 OUT=change.json
QUT_WORKLOADS = qut_progressive ingest_stream cold_recovery
OUT ?= benchmarks/e2e/out/bench-qut.json
SEED ?= 1
REPEAT ?= 3
bench-qut:
	for i in $$(seq $(REPEAT)); do for w in $(QUT_WORKLOADS); do \
		$(PYTHON) benchmarks/e2e/run.py --workload $$w --seed $(SEED) || exit $$?; \
		cp benchmarks/e2e/out/result-$$w.json benchmarks/e2e/out/bench-qut-$$w-$$i.json; \
	done; done
	$(PYTHON) -c 'import json, sys; out, repeat, *names = sys.argv[1:]; \
		runs = {w: [json.load(open(f"benchmarks/e2e/out/bench-qut-{w}-{i}.json")) for i in range(1, int(repeat) + 1)] for w in names}; \
		json.dump({"trace": False, "runs": runs}, open(out, "w"), indent=1)' $(OUT) $(REPEAT) $(QUT_WORKLOADS)
	@echo "wrote $(OUT)"

# Judge two result sets (`run.py --repeat N --out X.json`), metric by metric:
#   make bench-compare A=parent.json B=change.json
bench-compare:
	$(PYTHON) benchmarks/e2e/compare.py $(A) $(B)

clean-docs:
	rm -rf docs/_site
