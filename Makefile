PYTHON ?= python

.PHONY: test lint docs docs-strict bench bench-compare clean-docs

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

# Judge two result sets (`run.py --repeat N --out X.json`), metric by metric:
#   make bench-compare A=parent.json B=change.json
bench-compare:
	$(PYTHON) benchmarks/e2e/compare.py $(A) $(B)

clean-docs:
	rm -rf docs/_site
