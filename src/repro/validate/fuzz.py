"""Seeded trace fuzzer with failure shrinking for the invariant checker.

The invariant catalog is only as strong as the states it visits. The
micro-trace tests walk the paper's worked examples; this fuzzer walks
everything else: phased random traces (loop sweeps, hot sets, strides,
write bursts — the access shapes the synthetic workloads are built
from) replayed through a deliberately tiny hierarchy so every ref
lands in a handful of sets and eviction/invalidation paths fire
constantly.

Everything derives from an integer seed via ``random.Random``, so a
failure report is a complete reproduction recipe. When a case fails,
:func:`shrink_trace` reduces it ddmin-style — drop exponentially
shrinking chunks while the *same* invariant keeps failing — which
typically turns a few-hundred-reference trace into the handful of
refs a regression test wants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import InvariantViolation
from .differential import DEFAULT_POLICIES, Ref, run_trace

BLOCK = 64

#: phase kinds the generator mixes; weights favour looping/hot shapes
#: because those exercise the clean-trip (loop-block) machinery.
_PHASES = ("loop", "loop", "hot", "random", "stride", "writeburst")


@dataclass(frozen=True)
class FuzzCase:
    """One deterministic fuzzing unit: a seed plus the run shape."""

    seed: int
    policy: str
    ncores: int = 1
    enable_coherence: bool = False
    refs: int = 600
    interval: int = 32

    def describe(self) -> str:
        coh = "coh" if self.enable_coherence else "nocoh"
        return (
            f"seed={self.seed} policy={self.policy} ncores={self.ncores} "
            f"{coh} refs={self.refs}"
        )


def generate_trace(
    seed: int, refs: int = 600, ncores: int = 1, block: int = BLOCK
) -> List[Ref]:
    """Deterministic phased trace of ``(core, addr, is_write)`` triples.

    Addresses are drawn from a footprint of 8–64 blocks (the micro
    hierarchy holds 4 L2 + 16 LLC blocks, so most footprints thrash),
    sliced into phases of 20–120 refs, each phase one access shape.
    Multicore traces share the footprint across cores — with coherence
    on, that drives invalidations, upgrades and peer supplies.
    """
    rng = random.Random(seed)
    footprint = rng.choice((8, 16, 32, 64))
    addrs = [i * block for i in range(footprint)]
    trace: List[Ref] = []
    while len(trace) < refs:
        kind = rng.choice(_PHASES)
        length = rng.randint(20, 120)
        core = rng.randrange(ncores)
        if kind == "loop":
            # Repeated sequential sweeps over a window: loop-blocks.
            base = rng.randrange(footprint)
            window = [addrs[(base + i) % footprint] for i in range(rng.randint(3, 10))]
            write_p = 0.05
            picks = [window[i % len(window)] for i in range(length)]
        elif kind == "hot":
            hot = rng.sample(addrs, k=min(4, footprint))
            write_p = 0.3
            picks = [rng.choice(hot) for _ in range(length)]
        elif kind == "stride":
            base, step = rng.randrange(footprint), rng.choice((1, 2, 3, 5))
            write_p = 0.15
            picks = [addrs[(base + i * step) % footprint] for i in range(length)]
        elif kind == "writeburst":
            burst = rng.sample(addrs, k=min(3, footprint))
            write_p = 0.9
            picks = [rng.choice(burst) for _ in range(length)]
        else:  # random
            write_p = 0.25
            picks = [rng.choice(addrs) for _ in range(length)]
        for addr in picks:
            # Occasionally hop cores mid-phase so lines genuinely
            # interleave rather than migrating wholesale.
            if ncores > 1 and rng.random() < 0.1:
                core = rng.randrange(ncores)
            trace.append((core, addr, rng.random() < write_p))
    return trace[:refs]


def run_case(case: FuzzCase, trace: Optional[Sequence[Ref]] = None) -> None:
    """Replay one case (its generated trace unless ``trace`` is given);
    raises :class:`InvariantViolation` on failure."""
    if trace is None:
        trace = generate_trace(case.seed, case.refs, case.ncores)
    run_trace(
        case.policy,
        trace,
        ncores=case.ncores,
        enable_coherence=case.enable_coherence,
        interval=case.interval,
    )


def shrink_trace(
    trace: Sequence[Ref],
    still_fails: Callable[[Sequence[Ref]], bool],
    max_runs: int = 400,
) -> List[Ref]:
    """ddmin-style reduction: greedily drop chunks while ``still_fails``.

    Starts with half-trace chunks and halves the chunk size whenever a
    full sweep removes nothing, down to single references. ``max_runs``
    bounds the predicate budget so pathological cases stay fast.
    """
    current = list(trace)
    chunk = max(1, len(current) // 2)
    runs = 0
    while chunk >= 1 and runs < max_runs:
        removed_any = False
        start = 0
        while start < len(current) and runs < max_runs:
            candidate = current[:start] + current[start + chunk:]
            if not candidate:
                break
            runs += 1
            if still_fails(candidate):
                current = candidate
                removed_any = True
                # re-test the same offset: the next chunk slid into it
            else:
                start += chunk
        if not removed_any:
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
    return current


@dataclass
class FuzzFailure:
    """One shrunk counterexample, self-contained enough to paste into
    a regression test."""

    case: FuzzCase
    invariant: str
    message: str
    trace: List[Ref] = field(default_factory=list)

    def repro_snippet(self) -> str:
        """Executable reproduction for bug reports / regression tests."""
        return (
            "from repro.validate import run_trace\n"
            f"trace = {self.trace!r}\n"
            f"run_trace({self.case.policy!r}, trace, ncores={self.case.ncores}, "
            f"enable_coherence={self.case.enable_coherence}, interval=1)"
        )


def _failure_for(case: FuzzCase, trace: Sequence[Ref]) -> Optional[InvariantViolation]:
    try:
        run_case(case, trace)
    except InvariantViolation as exc:
        return exc
    return None


def fuzz(
    rounds: int,
    policies: Sequence[str] = DEFAULT_POLICIES,
    *,
    base_seed: int = 0,
    coherence_modes: Tuple[bool, ...] = (False, True),
    refs: int = 600,
    progress: Optional[Callable[[int, FuzzCase], None]] = None,
    shrink: bool = True,
) -> List[FuzzFailure]:
    """Run ``rounds`` fuzz cases round-robin over policies × coherence.

    Case ``i`` uses seed ``base_seed + i`` on ``policies[i % len]``,
    alternating coherence modes (coherent cases run two cores, the
    smallest configuration where sharing exists). Returns the list of
    shrunk failures — empty means every case held.
    """
    failures: List[FuzzFailure] = []
    for i in range(rounds):
        policy = policies[i % len(policies)]
        coherent = coherence_modes[(i // len(policies)) % len(coherence_modes)]
        ncores = 2 if coherent or (i % 5 == 4) else 1
        case = FuzzCase(
            seed=base_seed + i,
            policy=policy,
            ncores=ncores,
            enable_coherence=coherent,
            refs=refs,
        )
        if progress is not None:
            progress(i, case)
        trace = generate_trace(case.seed, case.refs, case.ncores)
        exc = _failure_for(case, trace)
        if exc is None:
            continue
        invariant = getattr(exc, "invariant", "unknown")
        shrunk = list(trace)
        if shrink:
            tight = replace(case, interval=1)

            def same_failure(candidate: Sequence[Ref]) -> bool:
                again = _failure_for(tight, candidate)
                return again is not None and getattr(again, "invariant", None) == invariant

            if same_failure(trace):
                shrunk = shrink_trace(trace, same_failure)
        failures.append(FuzzFailure(case, invariant, str(exc), shrunk))
    return failures
