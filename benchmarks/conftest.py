"""Benchmark-harness plumbing.

Every file under ``benchmarks/`` regenerates one table or figure of the
paper. Conventions:

- each benchmark runs its figure's data assembly exactly once via
  ``benchmark.pedantic(..., rounds=1)`` — pytest-benchmark then reports
  how long the regeneration takes;
- the regenerated rows/series are printed AND written to
  ``benchmarks/results/<name>.txt`` so a full run leaves a browsable
  record (EXPERIMENTS.md is assembled from these);
- reference counts come from :data:`repro.analysis.figures.
  DEFAULT_BENCH_REFS` (override with the ``REPRO_REFS`` env var);
- the harness always runs with an active ``repro.exec`` result cache,
  so every simulation is memoised by content address and figures that
  share runs (Figs. 14/15/16/18 all simulate the Table III mixes)
  simulate each one once. ``REPRO_CACHE_DIR=<dir>`` only picks the
  directory: set it to keep results across harness invocations (or
  single figures while iterating on analysis code); unset, the cache
  lives in a per-session temporary directory. The tier-1 command
  (``PYTHONPATH=src python -m pytest -x -q``) collects only ``tests/``
  (see ``pyproject.toml``), so this fixture never reaches tier-1.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def repro_result_cache(tmp_path_factory):
    """Result cache for the whole harness run (``REPRO_CACHE_DIR`` or a tmp dir)."""
    from repro.exec import ResultCache, cache_from_env, set_active_cache

    cache = cache_from_env() or ResultCache(tmp_path_factory.mktemp("repro-cache"))
    previous = set_active_cache(cache)
    try:
        yield cache
    finally:
        set_active_cache(previous)
        s = cache.stats()
        print(
            f"\n[repro.exec cache] {cache.root}: {s.hits} hit(s), "
            f"{s.misses} miss(es), {s.entries} entr(ies), {s.total_bytes} bytes"
        )


@pytest.fixture
def emit():
    """Writer fixture: ``emit(name, text)`` prints and persists output."""

    def _emit(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _emit


def run_once(benchmark, fn, *args, **kwargs):
    """Run a figure-assembly function exactly once under the timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
