"""Seeded trace fuzzer with failure shrinking for the invariant checker.

The invariant catalog is only as strong as the states it visits. The
micro-trace tests walk the paper's worked examples; this fuzzer walks
everything else: phased random traces (loop sweeps, hot sets, strides,
write bursts — the access shapes the synthetic workloads are built
from — and dirty lines swept by another core) replayed through a
deliberately tiny hierarchy so every ref lands in a handful of sets and
eviction/invalidation paths fire constantly.

Everything derives from an integer seed via ``random.Random``, so a
failure report is a complete reproduction recipe. When a case fails,
:func:`shrink_trace` reduces it ddmin-style — drop exponentially
shrinking chunks while the *same* invariant keeps failing — which
typically turns a few-hundred-reference trace into the handful of
refs a regression test wants.

A case whose policy the batched kernel takes also replays its trace on
the kernel and on the generic loop (:mod:`repro.validate.parity`), at a
batch size, sampler interval and instrumentation drawn from its seed;
coherent cases drive its pass 2 from the live coherent walk, the others
replay a recorded pass 1. That replay runs the trace twice; some
two-core cases of kernel policies are shaped to straddle that run
boundary (:func:`boundary_trace`). A divergence shrinks the same way,
to ``kernel-parity``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import InvariantViolation
from .differential import DEFAULT_POLICIES, Ref, run_trace
from .parity import KernelDivergence, check_kernel_parity, kernel_takes

BLOCK = 64

#: phase kinds the generator mixes; weights favour looping/hot shapes
#: because those exercise the clean-trip (loop-block) machinery.
_PHASES = ("loop", "loop", "hot", "random", "stride", "writeburst", "handoff")


@dataclass(frozen=True)
class FuzzCase:
    """One deterministic fuzzing unit: a seed plus the run shape."""

    seed: int
    policy: str
    ncores: int = 1
    enable_coherence: bool = False
    refs: int = 600
    interval: int = 32
    #: the kernel-parity replay's shape (kernel policies only)
    batch: int = 97
    sample_interval: int = 7
    instrumentation: str = "default"

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
        elif kind == "handoff":
            # One core stores to two lines, holds them dirty (reading a
            # third) and stores to them again, while the next core
            # sweeps them with more lines than its L2 holds: its LLC
            # fills and clean evictions open clean-trip streaks on
            # lines the first L2 holds dirty. A dirty line that is
            # stored to again after the run boundary (or, under an
            # invalidate-on-hit flow, handed over dirty from the LLC)
            # must not end its streak.
            base = rng.randrange(footprint)
            window = [addrs[(base + i) % footprint] for i in range(rng.randint(5, 8))]
            sweeper = (core + 1) % ncores
            stores = [(core, addr, True) for addr in window[:2]]
            trace.extend(stores)
            for i in range(length):
                trace.append((core, window[2], False))
                trace.append((sweeper, window[i % len(window)], False))
            trace.extend(stores)
            continue
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


def boundary_trace(seed: int, block: int = BLOCK) -> List[Ref]:
    """A two-core trace that straddles the run boundary of a replay that
    runs it twice, as :func:`~repro.validate.parity.check_kernel_parity`
    does: both cores have equally many references, so both begin the
    second run at their first.

    One core reads a line 2W–4W times, stores to two more lines and
    reads on, so it ends the first run holding the two dirty. The other
    sweeps W ∈ {5, 6, 7} lines, the two among them, more than its L2
    holds. In the second run the sweep's LLC hits and clean evictions
    open clean-trip streaks on the two lines before their holder stores
    to them again, and a store to a line that was already dirty when the
    run began must not end them.
    """
    rng = random.Random(seed)
    width = rng.choice((5, 6, 7))
    held, *swept = rng.sample(range(64), width + 1)
    holder = [(held, False)] * rng.randint(2 * width, 4 * width)
    holder += [(addr, True) for addr in rng.sample(swept, 2)]
    holder += [(held, False)] * rng.randint(0, 2 * width)
    start = rng.randrange(width)
    sweeper = [(swept[(start + i) % width], False) for i in range(len(holder))]
    per_core = (holder, sweeper) if rng.randrange(2) == 0 else (sweeper, holder)
    return [
        (core, addr * block, w) for step in zip(*per_core) for core, (addr, w) in enumerate(step)
    ]


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
        c = self.case
        if self.invariant == KERNEL_PARITY:
            return (
                "from repro.validate.parity import check_kernel_parity\n"
                f"trace = {self.trace!r}\n"
                f"check_kernel_parity({c.policy!r}, trace, ncores={c.ncores}, "
                f"enable_coherence={c.enable_coherence}, batch={c.batch}, "
                f"sample_interval={c.sample_interval}, "
                f"instrumentation={c.instrumentation!r})"
            )
        return (
            "from repro.validate import run_trace\n"
            f"trace = {self.trace!r}\n"
            f"run_trace({self.case.policy!r}, trace, ncores={self.case.ncores}, "
            f"enable_coherence={self.case.enable_coherence}, interval=1)"
        )


#: the failure name of a kernel-vs-generic divergence
KERNEL_PARITY = "kernel-parity"


def _failure_for(case: FuzzCase, trace: Sequence[Ref]) -> Optional[InvariantViolation]:
    try:
        run_case(case, trace)
    except InvariantViolation as exc:
        return exc
    return None


def _divergence_for(case: FuzzCase, trace: Sequence[Ref]) -> Optional[KernelDivergence]:
    try:
        check_kernel_parity(
            case.policy, trace, ncores=case.ncores, enable_coherence=case.enable_coherence,
            batch=case.batch, sample_interval=case.sample_interval,
            instrumentation=case.instrumentation,
        )
    except KernelDivergence as exc:
        return exc
    return None


def _kernel_failure(case: FuzzCase, trace: Sequence[Ref], shrink: bool) -> Optional[FuzzFailure]:
    """The case's kernel-vs-generic replay, shrunk on a divergence."""
    diverged = _divergence_for(case, trace)
    if diverged is None:
        return None
    shrunk = list(trace)
    if shrink:
        shrunk = shrink_trace(trace, lambda candidate: _divergence_for(case, candidate) is not None)
    return FuzzFailure(case, KERNEL_PARITY, str(diverged), shrunk)


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
    smallest configuration where sharing exists, and so do two in five
    non-coherent ones, shifting by one policy per pass so that every
    policy gets some); a kernel policy's case
    is also replayed on both loops (module docstring), and one in five of
    its non-coherent ones, instead of a one-core case, is a two-core
    :func:`boundary_trace` with the loop tracker on (the streaks it
    tests live there). Returns the list of shrunk failures — empty means
    every case held.
    """
    failures: List[FuzzFailure] = []
    for i in range(rounds):
        policy = policies[i % len(policies)]
        coherent = coherence_modes[(i // len(policies)) % len(coherence_modes)]
        slot = (i + i // len(policies)) % 5
        boundary = not coherent and slot == 2 and kernel_takes(policy)
        shape = random.Random(base_seed + i)
        case = FuzzCase(
            seed=base_seed + i,
            policy=policy,
            ncores=2 if coherent or boundary or slot in (1, 4) else 1,
            enable_coherence=coherent,
            refs=refs,
            batch=shape.choice((1, 7, 97, 4096)),
            sample_interval=shape.choice((1, 7, 64, 1777)),
            instrumentation=shape.choice(("default", "none")),
        )
        if boundary:
            trace = boundary_trace(case.seed)
            case = replace(case, instrumentation="default", refs=len(trace))
        else:
            trace = generate_trace(case.seed, case.refs, case.ncores)
        if progress is not None:
            progress(i, case)
        if kernel_takes(case.policy):
            diverged = _kernel_failure(case, trace, shrink)
            if diverged is not None:
                failures.append(diverged)
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
