PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test verify bench lint goldens surrogate-model sweep-parity

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.cli lint --all src
	$(PYTHON) -m repro.cli lint --all tests
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[lint]')"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping (pip install -e '.[lint]')"; \
	fi

verify: lint test sweep-parity
	$(PYTHON) -m pytest -q perfbench/tests
	$(PYTHON) benchmarks/bench_engine.py --smoke
	$(PYTHON) benchmarks/bench_single_eval.py --smoke

# End-to-end check of the fork pool's chunking: a small scalar sweep
# must print byte-identical tables with --jobs 2 and --jobs 1.
SWEEP_PARITY = sweep alpha21364 --axis node=180,90 --axis cores=1,2 \
	--axis core.issue_width=2,4

sweep-parity:
	@tmp=$$(mktemp -d) && \
	$(PYTHON) -m repro.cli $(SWEEP_PARITY) --jobs 2 > $$tmp/jobs2.txt && \
	$(PYTHON) -m repro.cli $(SWEEP_PARITY) --jobs 1 > $$tmp/jobs1.txt && \
	cmp $$tmp/jobs1.txt $$tmp/jobs2.txt; \
	status=$$?; rm -rf $$tmp; \
	if [ $$status -eq 0 ]; then echo "sweep --jobs 2 == --jobs 1"; fi; \
	exit $$status

bench:
	$(PYTHON) benchmarks/bench_engine.py
	$(PYTHON) benchmarks/bench_single_eval.py

goldens:
	$(PYTHON) -m repro.cli validate --update-goldens

# Regenerate the packaged surrogate artifact and audit its declared
# bounds. Required whenever analytic formulas, presets, or the feature
# encoding change (see CONTRIBUTING.md).
surrogate-model:
	$(PYTHON) -m repro.cli surrogate train \
		--output src/repro/surrogate/model_default.json --jobs 4
	$(PYTHON) -m repro.cli surrogate check --jobs 4
