"""repro.validate: machine-checked invariants for the simulator.

Three layers, one purpose — make silent state corruption loud:

- :mod:`~repro.validate.invariants` — an
  :class:`~repro.validate.invariants.InvariantProbe` riding the probe
  bus, re-checking per-policy structural guarantees (inclusion,
  exclusion, no-fill, the write ledger, coherence bookkeeping, and
  dirty-data conservation) against the live tag arrays;
- :mod:`~repro.validate.differential` — one trace replayed under every
  policy, asserting the cross-policy accounting laws the paper's
  comparisons assume;
- :mod:`~repro.validate.fuzz` — a seeded deterministic trace fuzzer
  with ddmin-style failure shrinking, which also replays each kernel
  policy's case on the batched kernel and on the generic loop
  (:mod:`~repro.validate.parity`).

``repro check [--fuzz N]`` (see :mod:`repro.cli`) drives all three via
:func:`~repro.validate.runner.run_checks`.
"""

from .differential import (
    DEFAULT_POLICIES,
    DifferentialReport,
    run_differential,
    run_trace,
)
from .fuzz import FuzzCase, FuzzFailure, fuzz, generate_trace, run_case, shrink_trace
from .invariants import (
    INVARIANTS,
    InvariantProbe,
    check_coherence,
    check_dirty_conservation,
    check_exclusion,
    check_inclusion,
    check_l1_inclusion,
    check_no_fill,
    check_write_ledger,
    violation,
)
from .parity import KernelDivergence, assert_identical, check_kernel_parity
from .runner import CheckEntry, CheckReport, run_checks

__all__ = [
    "DEFAULT_POLICIES",
    "INVARIANTS",
    "CheckEntry",
    "CheckReport",
    "DifferentialReport",
    "FuzzCase",
    "FuzzFailure",
    "InvariantProbe",
    "KernelDivergence",
    "assert_identical",
    "check_coherence",
    "check_dirty_conservation",
    "check_exclusion",
    "check_inclusion",
    "check_kernel_parity",
    "check_l1_inclusion",
    "check_no_fill",
    "check_write_ledger",
    "fuzz",
    "generate_trace",
    "run_case",
    "run_checks",
    "run_differential",
    "run_trace",
    "shrink_trace",
    "violation",
]
