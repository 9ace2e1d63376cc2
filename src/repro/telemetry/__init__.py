"""repro.telemetry — observability across runs.

Where :mod:`repro.instr` observes a *single* simulation from inside
(probes on the hierarchy's event bus), this package makes whole
*experiments* observable:

- the **flight recorder** (:class:`TraceProbe` / :class:`TraceReader`)
  streams the probe-bus event vocabulary to compressed JSONL and loads
  it back as typed records;
- the **metrics registry** (:class:`MetricsRegistry` with
  :class:`Counter` / :class:`Histogram`) collects
  process-local roll-ups from the simulator, the hierarchy, and the
  execution pool, snapshot-able to JSON;
- **per-job profiling** (:class:`JobProfile` / :class:`RunManifest`)
  records wall time, throughput, retries, provenance and peak RSS for
  every pooled job, written as ``manifest.json`` next to cached
  results;
- **trace diffing** (:func:`diff_traces` / :func:`summarize_trace`)
  replays two recorded streams, reports the first divergence and
  per-event-type deltas — the engine behind ``repro trace diff``.

Everything here is off the simulator's hot path: recording is a probe
you opt into, metrics report once per run, and profiling wraps jobs,
not accesses.
"""

from .diff import Divergence, TraceDiff, TraceSummary, diff_traces, summarize_trace
from .metrics import (
    BUCKET_BOUNDS,
    Counter,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .profiling import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA_VERSION,
    SOURCE_CACHE,
    SOURCE_POOL,
    SOURCE_SERIAL,
    Heartbeat,
    JobProfile,
    RunManifest,
    peak_rss_kb,
)
from .trace import (
    EVENT_FIELDS,
    EVENT_GROUPS,
    EVENT_TYPES,
    TRACE_SCHEMA_VERSION,
    TraceProbe,
    TraceReader,
    read_events,
    record_simulation,
    resolve_events,
)

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Divergence",
    "EVENT_FIELDS",
    "EVENT_GROUPS",
    "EVENT_TYPES",
    "Heartbeat",
    "Histogram",
    "JobProfile",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA_VERSION",
    "MetricsRegistry",
    "RunManifest",
    "SOURCE_CACHE",
    "SOURCE_POOL",
    "SOURCE_SERIAL",
    "TRACE_SCHEMA_VERSION",
    "TraceDiff",
    "TraceProbe",
    "TraceReader",
    "TraceSummary",
    "diff_traces",
    "get_registry",
    "peak_rss_kb",
    "read_events",
    "record_simulation",
    "resolve_events",
    "set_registry",
    "summarize_trace",
]
