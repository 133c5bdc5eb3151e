PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test verify bench lint goldens surrogate-model

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

verify: lint test
	$(PYTHON) -m pytest -q perfbench/tests
	$(PYTHON) benchmarks/bench_engine.py --smoke
	$(PYTHON) benchmarks/bench_single_eval.py --smoke

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
