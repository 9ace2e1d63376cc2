"""Declarative, picklable experiment descriptions.

The runner historically described workloads as closures
(``ScaleContext -> Workload``), which cannot cross a process boundary
and have no canonical identity to cache under. :class:`WorkloadSpec`
replaces the closure builders with frozen dataclasses that *are*
builders (they are callable with a ``ScaleContext``), and
:class:`JobSpec` bundles everything one simulation needs — system
config, workload spec, policy name, reference count — into a value that
pickles cleanly and hashes to a stable content address.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..errors import ExecutionError, WorkloadError
from ..sim.system import SystemConfig
from ..workloads.mixes import (
    TABLE3_MIXES,
    Workload,
    make_duplicate,
    make_multiprogrammed,
    make_multithreaded,
    make_table3_mix,
)
from ..workloads.parsec import PARSEC_BENCHMARKS
from ..workloads.spec import get_benchmark
from ..workloads.synthetic import ScaleContext
from .serialize import system_from_dict, system_to_dict

# Bump whenever the meaning of a cached result changes (serialisation
# format, simulator semantics, metric definitions): old entries then
# miss instead of resurrecting stale results. A test binds each version
# to the digest of the seed golden (tests/test_probe_bus.py), so a
# golden re-capture without a bump fails.
CACHE_SCHEMA_VERSION = 2

#: The dict in which the jobs ``execute_jobs`` runs one after another in
#: this context (its serial loop, or one stream group a pool worker
#: runs) share the batched kernel's private-level stream; None
#: elsewhere, so a direct ``JobSpec.run`` or ``Simulator.run`` never
#: shares.
STREAM_SHARE: ContextVar[Optional[dict]] = ContextVar("stream_share", default=None)

DUPLICATE = "duplicate"
MIX = "mix"
MULTIPROGRAMMED = "multiprogrammed"
MULTITHREADED = "multithreaded"
TRACE = "trace"
_KINDS = (DUPLICATE, MIX, MULTIPROGRAMMED, MULTITHREADED, TRACE)


@dataclass(frozen=True)
class WorkloadSpec:
    """A declarative workload recipe; callable as a workload builder.

    ``kind`` selects the construction path; ``benchmarks`` holds the
    benchmark name(s) (or the mix name for ``kind="mix"``); ``ncores``
    doubles as the thread count for multithreaded workloads. ``scale``
    pins the geometry the workload is built at; ``None`` builds at the
    running system's own (Fig. 21 holds its applications at the
    baseline geometry while it varies the caches).
    """

    kind: str
    benchmarks: Tuple[str, ...]
    ncores: int = 4
    seed: int = 0
    name: Optional[str] = None
    scale: Optional[ScaleContext] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise WorkloadError(f"unknown workload kind {self.kind!r}; known: {_KINDS}")
        if not self.benchmarks:
            raise WorkloadError("a WorkloadSpec needs at least one benchmark/mix name")
        if self.ncores <= 0:
            raise WorkloadError(f"ncores must be positive, got {self.ncores}")
        # tolerate lists from from_dict callers
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def duplicate(cls, benchmark: str, ncores: int = 4, seed: int = 0) -> "WorkloadSpec":
        """N duplicate copies of one benchmark (Figs. 2/4/6)."""
        return cls(kind=DUPLICATE, benchmarks=(benchmark,), ncores=ncores, seed=seed)

    @classmethod
    def mix(
        cls, mix_name: str, seed: int = 0, scale: Optional[ScaleContext] = None
    ) -> "WorkloadSpec":
        """A Table III mix (WL1..WH5)."""
        return cls(kind=MIX, benchmarks=(mix_name,), seed=seed, scale=scale)

    @classmethod
    def multiprogrammed(
        cls, benchmarks, seed: int = 0, name: Optional[str] = None
    ) -> "WorkloadSpec":
        """An arbitrary multiprogrammed combination (one bench per core)."""
        benchmarks = tuple(benchmarks)
        return cls(
            kind=MULTIPROGRAMMED,
            benchmarks=benchmarks,
            ncores=len(benchmarks),
            seed=seed,
            name=name,
        )

    @classmethod
    def multithreaded(cls, benchmark: str, nthreads: int = 4, seed: int = 0) -> "WorkloadSpec":
        """A PARSEC-like multithreaded workload (Fig. 20)."""
        return cls(kind=MULTITHREADED, benchmarks=(benchmark,), ncores=nthreads, seed=seed)

    @classmethod
    def named(cls, name: str, ncores: int = 4, seed: int = 0) -> "WorkloadSpec":
        """The workload a bare name denotes on an ``ncores`` system.

        A Table III mix, else a PARSEC-like benchmark (multithreaded),
        else a SPEC-like benchmark (one duplicate copy per core). No
        name is in two tables.
        """
        if name in TABLE3_MIXES:
            return cls.mix(name, seed=seed)
        if name in PARSEC_BENCHMARKS:
            return cls.multithreaded(name, nthreads=ncores, seed=seed)
        try:
            get_benchmark(name)
        except WorkloadError:
            raise WorkloadError(
                f"unknown benchmark {name!r}: not a Table III mix, SPEC "
                "benchmark, or PARSEC benchmark"
            ) from None
        return cls.duplicate(name, ncores=ncores, seed=seed)

    @classmethod
    def trace(
        cls, digests, ncores: int = 4, name: Optional[str] = None
    ) -> "WorkloadSpec":
        """A corpus-replay workload (``repro.workloads.corpus``).

        ``benchmarks`` holds trace *content addresses* (SHA-256 file
        digests), so the result cache keys these jobs by what the trace
        contains, never by where it lives. One digest replays the same
        capture on every core (rate-mode replay); otherwise one digest
        per core is required. The corpus that resolves the digests is
        discovered at build time via
        :func:`repro.workloads.corpus.active_corpus` — an environment
        channel, so pool workers in fresh processes find it too.
        """
        digests = tuple(digests)
        if len(digests) not in (1, ncores):
            raise WorkloadError(
                f"a trace workload needs 1 digest (replayed on every "
                f"core) or exactly ncores={ncores}, got {len(digests)}"
            )
        return cls(kind=TRACE, benchmarks=digests, ncores=ncores, name=name)

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Human-readable identity (sweep axis labels, logs)."""
        if self.name:
            return self.name
        if self.kind == DUPLICATE:
            return f"{self.benchmarks[0]}x{self.ncores}"
        if self.kind == MULTIPROGRAMMED:
            return "+".join(self.benchmarks)
        if self.kind == TRACE:
            return "trace:" + "+".join(d[:12] for d in self.benchmarks)
        return self.benchmarks[0]

    def build(self, ctx: ScaleContext) -> Workload:
        """Materialise the workload against a system's geometry."""
        if self.kind == DUPLICATE:
            return make_duplicate(self.benchmarks[0], ctx, ncores=self.ncores, seed=self.seed)
        if self.kind == MIX:
            return make_table3_mix(self.benchmarks[0], ctx, seed=self.seed)
        if self.kind == MULTIPROGRAMMED:
            return make_multiprogrammed(self.benchmarks, ctx, seed=self.seed, name=self.name)
        if self.kind == TRACE:
            return self._build_trace()
        return make_multithreaded(
            self.benchmarks[0], ctx, nthreads=self.ncores, seed=self.seed
        )

    def _build_trace(self) -> Workload:
        from ..workloads.corpus import active_corpus

        corpus = active_corpus(required=True)
        if len(self.benchmarks) == 1:
            base = corpus.load(self.benchmarks[0], loop=True)
            generators = [base.fork() for _ in range(self.ncores)]
            names = (base.name,) * self.ncores
        else:
            loaded = [corpus.load(d, loop=True) for d in self.benchmarks]
            generators = list(loaded)
            names = tuple(g.name for g in loaded)
        return Workload(
            name=self.name or self.label,
            kind=MULTIPROGRAMMED,
            generators=generators,
            benchmarks=names,
        )

    # A WorkloadSpec is a workload builder: callable(ScaleContext) -> Workload.
    __call__ = build

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "kind": self.kind,
            "benchmarks": list(self.benchmarks),
            "ncores": self.ncores,
            "seed": self.seed,
            "name": self.name,
        }
        # Only when set, so specs without one keep their cache keys.
        if self.scale is not None:
            data["scale"] = dataclasses.asdict(self.scale)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadSpec":
        try:
            scale = data.get("scale")
            return cls(
                kind=data["kind"],
                benchmarks=tuple(data["benchmarks"]),
                ncores=data.get("ncores", 4),
                seed=data.get("seed", 0),
                name=data.get("name"),
                scale=None if scale is None else ScaleContext(**scale),
            )
        except (KeyError, TypeError) as exc:
            raise ExecutionError(f"malformed WorkloadSpec dict: {exc}") from None


@dataclass(frozen=True)
class JobSpec:
    """One fully-specified simulation: the unit the pool and cache see."""

    system: SystemConfig
    workload: WorkloadSpec
    policy: str
    refs_per_core: int

    def __post_init__(self) -> None:
        if not isinstance(self.workload, WorkloadSpec):
            raise ExecutionError(
                f"JobSpec.workload must be a WorkloadSpec, got {type(self.workload).__name__}"
            )
        if not isinstance(self.policy, str) or not self.policy:
            raise ExecutionError("JobSpec.policy must be a non-empty policy name")
        # The registry is the single source of truth for policy names:
        # validate at admission (CLI, library callers, from_dict all
        # funnel through here) and canonicalise aliases so "noni" and
        # "non-inclusive" share one cache key.
        from ..arena import registry

        canonical = registry.validate_names((self.policy,), error=ExecutionError)[0]
        object.__setattr__(self, "policy", canonical)
        if self.refs_per_core <= 0:
            raise ExecutionError(f"refs_per_core must be positive, got {self.refs_per_core}")
        # A scale equal to the system's own is the default build: drop
        # it, so one simulation has one cache key.
        scale = self.workload.scale
        if scale is not None and scale == self.system.scale_context():
            object.__setattr__(
                self, "workload", dataclasses.replace(self.workload, scale=None)
            )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical dict form — the basis of the cache key."""
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "system": system_to_dict(self.system),
            "workload": self.workload.to_dict(),
            "policy": self.policy,
            "refs_per_core": self.refs_per_core,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        try:
            return cls(
                system=system_from_dict(data["system"]),
                workload=WorkloadSpec.from_dict(data["workload"]),
                policy=data["policy"],
                refs_per_core=data["refs_per_core"],
            )
        except KeyError as exc:
            raise ExecutionError(f"malformed JobSpec dict: missing {exc}") from None

    def canonical_json(self) -> str:
        """Deterministic JSON encoding (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def key(self) -> str:
        """SHA-256 content address of this job (includes schema version)."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self):
        """Execute the job in-process and return its ``RunResult``.

        Inside an ``execute_jobs`` call it shares the batched kernel's
        private-level stream with the call's other jobs on the same
        workload (:data:`STREAM_SHARE`); results are the same either way.
        """
        from ..sim.simulator import Simulator

        source = self.stream_source()
        sim = Simulator(self.system, self.policy, self.workload.build(source[1]))
        share = STREAM_SHARE.get()
        if share is not None:
            sim.stream_share = (share, source)
        return sim.run(self.refs_per_core)

    def stream_source(self) -> tuple:
        """The workload that this job's pass 1 reads: its spec without a
        pinned scale, and the scale it builds at. Jobs whose workloads
        build alike share this, whether or not one pins its scale."""
        return (
            dataclasses.replace(self.workload, scale=None),
            self.workload.scale or self.system.scale_context(),
        )
