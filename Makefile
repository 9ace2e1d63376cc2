# Developer conveniences. Everything also works as plain commands —
# the targets only pin flags and paths.

PYTHON ?= python
PYTHONPATH := src

.PHONY: test check bench bench-e2e bench-figures lint trace-demo arena-demo suite-demo report

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# Invariant checks over every policy (DESIGN.md §11) plus 200 rounds of
# seeded trace fuzzing — deterministic, ~3s.
check:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro check --fuzz 200

# Hot-path throughput with the default probes and probe-free; appends
# one timestamped entry to BENCH_hotpath.json (DESIGN.md §13).
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench

# The repo benchmark end to end: perfbench/run.py for every
# BENCHMARK.json workload, for its declared run length, at --trace 0
# and 1; one record per run appended to BENCH_e2e.json. CHECKOUT=<dir>
# measures another checkout (e.g. a clone of the parent commit) into
# the same file; SEED=<n> picks perfbench's seed (stamped on each record).
CHECKOUT ?= .
SEED ?= 0
bench-e2e:
	$(PYTHON) benchmarks/bench_e2e.py --checkout $(CHECKOUT) --seed $(SEED)

# The HTML fleet dashboard (DESIGN.md §14) over a result-cache dir:
# runs a tiny traced sweep into CACHE_DIR when it is empty, then
# renders policy grids, span hot spots, provenance, and the bench
# trend into report.html. Override CACHE_DIR/REPORT to point elsewhere.
CACHE_DIR ?= .repro-cache
REPORT ?= report.html
report:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro --cache-dir $(CACHE_DIR) \
		--spans $(CACHE_DIR)/spans.jsonl sweep \
		--workloads WL1,WH1 --policies non-inclusive,lap --refs 2000
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro report \
		--cache-dir $(CACHE_DIR) --out $(REPORT) --check-refs 500
	@echo "dashboard: $(REPORT)"

# Regenerate every table & figure artefact via the pytest benchmarks.
bench-figures:
	cd benchmarks && PYTHONPATH=../$(PYTHONPATH) $(PYTHON) -m pytest -q --benchmark-only

# Record + diff a tiny LAP-vs-non-inclusive pair with the flight
# recorder (writes the trace_demo experiment artefact).
trace-demo:
	cd benchmarks && PYTHONPATH=../$(PYTHONPATH) $(PYTHON) -m pytest -q --benchmark-only test_trace_demo.py
	@cat benchmarks/results/trace_demo.txt

# Fuzz the cross-paper rivals through the invariant suite, then run
# the arena-grid walkthrough (DESIGN.md §15).
arena-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro check --fuzz 50 \
		--policy reuse-detector --policy rd-copyback --policy ways-off
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/arena_demo.py WL2 4000

# Benchmark suites + trace corpus walkthrough (DESIGN.md §16): run a
# named set cold then cache-warm (asserting the rerun simulates
# nothing), capture traces into a content-addressed corpus, verify it,
# and replay it as a suite. Also verifies the committed fixture corpus.
suite-demo:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) examples/suite_demo.py loop 3000
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro corpus verify --dir tests/data/corpus

# `ruff` is an optional dependency (`pip install -e '.[lint]'`); the
# target degrades to a notice where it is unavailable so `make lint`
# is safe in minimal containers.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	elif $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[lint]' to enable)"; \
	fi
