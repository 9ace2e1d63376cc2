"""What the harness and the set-up probe share: the checkout's simulator,
the workload definitions and the scratch directory.

It imports only what a workload's command needs before its first
simulated reference (``repro``, set resolution and spec building), so
the set-up probe can time importing it.
"""

from __future__ import annotations

import os
import pathlib
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for result caches, span dumps and run records; it lives
#: inside the checkout (and is git-ignored) because a run may write
#: nowhere else.
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(SRC))
import repro  # noqa: E402

if not pathlib.Path(repro.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"repro was imported from {repro.__file__}, not from {SRC}")

from repro import JobSpec, SystemConfig  # noqa: E402
from repro.suite.registry import BenchmarkSet, resolve  # noqa: E402
from repro.suite.runner import workload_spec_for  # noqa: E402

if TYPE_CHECKING:
    from repro.workloads.corpus import TraceCorpus

MIX_POLICIES = ("non-inclusive", "exclusive", "lap")
PARSEC_POLICIES = ("non-inclusive", "exclusive", "flexclusion", "dswitch", "lap")
#: ``run_suite``'s own default size
SUITE_REFS = 10_000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a benchmark set under a policy list.

    ``suite=True`` runs the set through ``run_suite`` with a fresh
    result cache (then a warm rerun on that cache); otherwise the whole
    grid goes through one ``execute_jobs`` call with no cache.
    """

    name: str
    system: SystemConfig
    bset: Union[str, BenchmarkSet]
    policies: Tuple[str, ...]
    refs_per_core: int
    max_workers: int = 1
    suite: bool = False
    #: re-run one cell on the generic loop and compare with the kernel
    kernel_spot_check: bool = False
    corpus: Optional["TraceCorpus"] = None

    def benchmark_set(self) -> BenchmarkSet:
        if isinstance(self.bset, BenchmarkSet):
            return self.bset
        return resolve(self.bset, corpus=self.corpus)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The path users run today, at run_suite's default size:
        # default instrumentation, pool, result cache.
        Workload(
            "suite-paper", SystemConfig.scaled(), "paper", MIX_POLICIES,
            refs_per_core=SUITE_REFS, max_workers=2, suite=True,
        ),
        # The same grid at the same size, probe-free and serial: the
        # batched kernel's path.
        Workload(
            "kernel-grid", SystemConfig.scaled().probe_free(), "paper", MIX_POLICIES,
            refs_per_core=SUITE_REFS, kernel_spot_check=True,
        ),
        # Coherence on, kernel-ineligible switching/dueling policies.
        # Smaller than run_suite's default: at 10_000 refs/core one
        # iteration takes ~25 s. README.md shows the layer shares match.
        Workload(
            "parsec-coherent", SystemConfig.scaled(), "parsec", PARSEC_POLICIES,
            refs_per_core=2000,
        ),
    )
}


def jobs_for(wl: Workload, seed: int) -> List[JobSpec]:
    """The workload's jobs in canonical (member-major) order.

    Built exactly as ``run_suite`` builds them, so the suite path and
    the ``execute_jobs`` path see the same specs for the same seed.
    """
    bset = wl.benchmark_set()
    ncores = wl.system.hierarchy.ncores
    return [
        JobSpec(
            system=wl.system,
            workload=workload_spec_for(member, bset, ncores, seed=seed),
            policy=policy,
            refs_per_core=wl.refs_per_core,
        )
        for member in bset.members
        for policy in wl.policies
    ]


def fresh_dir(prefix: str) -> pathlib.Path:
    path = WORK / f"{prefix}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path
