"""Observability: span tracing, ledger, dashboard.

Import discipline: this package ``__init__`` pulls in only the
dependency-light ``spans`` leaf because the exec pool and the
simulator import it at module load — ``ledger``/``dashboard``/``trend``
reach back into ``repro.exec`` and must be imported explicitly
(``from repro.obs import ledger``) to keep the import graph acyclic.
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
