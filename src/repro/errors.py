"""Exception hierarchy for the LAP reproduction library.

All errors raised intentionally by this package derive from
:class:`ReproError` so callers can distinguish library failures from
programming mistakes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A cache, hierarchy, or system configuration is invalid.

    Raised for non-power-of-two geometries, zero sizes, mismatched
    hybrid-way partitions, and similar structural problems that would
    otherwise surface as confusing downstream arithmetic errors.
    """


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state.

    These indicate invariant violations (e.g. an exclusive LLC holding a
    duplicate of an L2-resident block when it should not) and are bugs
    if they ever escape the test suite.
    """


class InvariantViolation(SimulationError):
    """A machine-checked simulation invariant does not hold
    (``repro.validate``).

    Raised by the invariant checker when the live cache state
    contradicts a per-policy guarantee — strict inclusion, exclusion
    disjointness, LAP's no-fill rule, coherence consistency, or
    dirty-data conservation. The message names the invariant, the
    offending address, and the state that disproves it.
    """


class WorkloadError(ReproError):
    """A workload or trace definition is malformed or cannot be built."""


class AnalysisError(ReproError):
    """Experiment post-processing failed (missing series, empty runs)."""


class ExecutionError(ReproError):
    """The experiment execution engine failed (``repro.exec``).

    Raised for unpicklable/malformed job specs, worker-process failures
    that survive the retry, and unusable result cache directories or
    entries.
    """


class TelemetryError(ReproError):
    """The observability layer failed (``repro.obs``).

    Raised for unwritable or malformed trace files (bad header,
    truncated stream, unknown event type), unreadable run manifests
    and span dumps, and missing result-cache directories.
    """
