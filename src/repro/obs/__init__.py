"""Observability: what a run did and where its time went.

- ``spans`` — coarse span tracing (per run, batch and job), the
  optional per-layer timing record;
- ``profiling`` — per-job profiles and the ``manifest.json`` run
  manifest the exec pool writes for every cached batch;
- ``trace`` / ``diff`` — the flight recorder (probe-bus events to
  JSONL) and the trace summaries and diffs behind ``repro trace``;
- ``ledger`` / ``dashboard`` — the merged view over result cache
  directories that ``repro report`` renders;
- ``trend`` — the speed verdict of every paired before/after record in
  ``BENCH_e2e.json`` (``repro bench pairs``).

Import discipline: this package ``__init__`` pulls in only the
dependency-light ``spans`` leaf because the exec pool and the
simulator import it at module load. Every other module is imported by
its own path (``from repro.obs.trace import TraceProbe``); ``ledger``,
``dashboard`` and ``trend`` reach back into ``repro.exec``, so loading
them here would make the import graph cyclic.
"""

from .spans import (
    SPANS_ENV,
    SPANS_NAME,
    SpanRecorder,
    current_recorder,
    install_recorder,
    read_spans,
    recorder_from_env,
    span,
    start_span,
    summarize_spans,
    tracing_enabled,
    uninstall_recorder,
)

__all__ = [
    "SPANS_ENV",
    "SPANS_NAME",
    "SpanRecorder",
    "current_recorder",
    "install_recorder",
    "read_spans",
    "recorder_from_env",
    "span",
    "start_span",
    "summarize_spans",
    "tracing_enabled",
    "uninstall_recorder",
]
