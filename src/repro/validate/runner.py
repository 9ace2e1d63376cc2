"""The ``repro check`` orchestrator.

Runs the full validation suite and folds the outcome into one
:class:`CheckReport`:

1. **invariant stage** — every requested policy replays a deterministic
   phased trace (coherence off on 1 and 2 cores, coherence on with 2
   cores) under an armed :class:`~repro.validate.invariants.InvariantProbe`;
2. **differential stage** — one shared trace across *all* requested
   policies, asserting the cross-policy accounting laws
   (:mod:`repro.validate.differential`), in both coherence modes;
3. **fuzz stage** (optional) — ``--fuzz N`` randomized cases with
   automatic shrinking (:mod:`repro.validate.fuzz`); a case whose policy
   the batched kernel takes also replays on the kernel and the generic
   loop, which must agree (:mod:`repro.validate.parity`), and the
   kernel side's final state must pass the catalog's state checks.

Failures never abort the suite: each stage entry records ok/FAIL so one
run reports every broken invariant, and shrunk fuzz counterexamples
ship a paste-able reproduction snippet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import InvariantViolation
from .differential import DEFAULT_POLICIES, run_differential, run_trace
from .fuzz import FuzzFailure, fuzz, generate_trace
from .parity import kernel_takes


@dataclass
class CheckEntry:
    """One suite item: what ran, whether it held, and a short detail."""

    name: str
    ok: bool
    detail: str = ""

    @property
    def status(self) -> str:
        return "ok" if self.ok else "FAIL"


@dataclass
class CheckReport:
    """Aggregated outcome of one ``repro check`` run."""

    entries: List[CheckEntry] = field(default_factory=list)
    fuzz_failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def failures(self) -> List[CheckEntry]:
        return [e for e in self.entries if not e.ok]

    def as_rows(self) -> List[list]:
        return [[e.name, e.status, e.detail] for e in self.entries]


def _modes(coherence: str) -> List[Tuple[bool, int]]:
    """(enable_coherence, ncores) combinations for ``--coherence``."""
    modes: List[Tuple[bool, int]] = []
    if coherence in ("both", "off"):
        modes += [(False, 1), (False, 2)]
    if coherence in ("both", "on"):
        modes += [(True, 2)]
    return modes


def run_checks(
    policies: Sequence[str] = DEFAULT_POLICIES,
    *,
    fuzz_rounds: int = 0,
    refs: int = 2000,
    seed: int = 0,
    coherence: str = "both",
    interval: int = 64,
    progress: Optional[Callable[[str], None]] = None,
) -> CheckReport:
    """Run the full validation suite; see the module docstring."""
    report = CheckReport()
    say = progress or (lambda _msg: None)
    modes = _modes(coherence)

    # ---- stage 1: per-policy invariant runs --------------------------
    for policy in policies:
        for coherent, ncores in modes:
            label = (
                f"invariants[{policy}, {'coh' if coherent else 'nocoh'}, "
                f"ncores={ncores}]"
            )
            say(label)
            trace = generate_trace(seed, refs, ncores)
            try:
                h = run_trace(
                    policy,
                    trace,
                    ncores=ncores,
                    enable_coherence=coherent,
                    interval=interval,
                )
            except InvariantViolation as exc:
                report.entries.append(CheckEntry(label, False, str(exc)))
                continue
            probe = h.probe_bus.probes[0]
            ran = sum(1 for count in probe.counts.values() if count)
            report.entries.append(
                CheckEntry(label, True, f"{ran} invariant(s) exercised over {refs} refs")
            )

    # ---- stage 2: differential pass ----------------------------------
    for coherent, ncores in modes:
        label = f"differential[{'coh' if coherent else 'nocoh'}, ncores={ncores}]"
        say(label)
        trace = generate_trace(seed + 1, refs, ncores)
        try:
            diff = run_differential(
                trace,
                policies,
                ncores=ncores,
                enable_coherence=coherent,
                interval=interval,
            )
        except InvariantViolation as exc:
            report.entries.append(CheckEntry(label, False, str(exc)))
            continue
        report.entries.append(
            CheckEntry(
                label,
                True,
                f"{len(diff.identities)} cross-policy identity group(s) over "
                f"{len(policies)} policies",
            )
        )

    # ---- stage 3: fuzzing --------------------------------------------
    if fuzz_rounds > 0:
        say(f"fuzz[{fuzz_rounds} rounds]")
        coherence_modes: Tuple[bool, ...]
        if coherence == "on":
            coherence_modes = (True,)
        elif coherence == "off":
            coherence_modes = (False,)
        else:
            coherence_modes = (False, True)
        failures = fuzz(
            fuzz_rounds,
            policies,
            base_seed=seed,
            coherence_modes=coherence_modes,
        )
        report.fuzz_failures = failures
        if failures:
            for failure in failures:
                report.entries.append(
                    CheckEntry(
                        f"fuzz[{failure.case.describe()}]",
                        False,
                        f"{failure.message} "
                        f"(shrunk to {len(failure.trace)} refs)",
                    )
                )
        else:
            report.entries.append(
                CheckEntry(
                    f"fuzz[{fuzz_rounds} rounds]",
                    True,
                    f"no violations across {len(policies)} policies, "
                    f"{sum(map(kernel_takes, policies))} of them also kernel-vs-generic "
                    "and on kernel state",
                )
            )
    return report
