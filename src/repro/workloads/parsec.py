"""PARSEC-like multithreaded synthetic workloads (Fig. 20).

Each workload builds one set of *shared* regions — region objects whose
internal cursors are advanced collectively by all threads, the way
data-parallel workers split an iteration space — plus per-thread private
regions. Threads draw from both through their own seeded RNGs.

Parameters follow the paper's characterisations: blackscholes,
bodytrack, and swaptions are compute-intensive with small footprints;
canneal chases pointers over a set much larger than the LLC;
streamcluster "demands high cache capacity and frequently reuses clean
data with a footprint larger than L2 but smaller than the LLC" — the
loop-block-rich case where the paper reports LAP's largest
multithreaded savings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..errors import WorkloadError
from .regions import HotRegion, LoopRegion, RandomRegion, Region, StreamRegion
from .spec import REGION_SPAN
from .synthetic import ScaleContext, SharedStateTrace
from .trace import TraceGenerator

RegionList = List[Tuple[Region, float]]
# (ctx, base) -> (shared regions, per-thread private regions)
RegionsFn = Callable[[ScaleContext, int], Tuple[RegionList, RegionList]]


@dataclass(frozen=True)
class ParsecSpec:
    """A multithreaded workload: shared + per-thread regions."""

    name: str
    description: str
    instr_per_ref: float
    regions: RegionsFn

    def build_threads(
        self, ctx: ScaleContext, seed: int, nthreads: int, base: int = 0
    ) -> List[TraceGenerator]:
        """One generator per thread over common shared-region objects."""
        if nthreads < 1:
            raise WorkloadError(f"need at least one thread, got {nthreads}")
        shared = self.regions(ctx, base)[0]
        threads: List[TraceGenerator] = []
        for tid in range(nthreads):
            private_base = base + (8 + tid * 4) * REGION_SPAN
            regions = list(shared) + self.regions(ctx, private_base)[1]
            threads.append(
                SharedStateTrace(
                    regions,
                    seed=seed * 1009 + tid,
                    name=f"{self.name}.t{tid}",
                    instr_per_ref=self.instr_per_ref,
                )
            )
        return threads


PARSEC_BENCHMARKS: Dict[str, ParsecSpec] = {}


def _register(
    name: str, description: str, instr_per_ref: float
) -> Callable[[RegionsFn], None]:
    def deco(fn: RegionsFn) -> None:
        PARSEC_BENCHMARKS[name] = ParsecSpec(
            name=name,
            description=description,
            instr_per_ref=instr_per_ref,
            regions=fn,
        )

    return deco


def _slot(base: int, i: int) -> int:
    return base + i * REGION_SPAN


def _llc_frac(ctx: ScaleContext, frac: float) -> int:
    raw = int(ctx.llc_bytes * frac)
    return max(ctx.block_size, (raw // ctx.block_size) * ctx.block_size)


@_register(
    "blackscholes",
    "Option pricing: compute-bound, tiny per-thread footprint, few memory "
    "requests reaching the LLC.",
    12.0,
)
def _blackscholes(ctx: ScaleContext, base: int):
    shared = [
        (RandomRegion(_slot(base, 0), _llc_frac(ctx, 0.015), ctx.block_size, write_prob=0.05), 0.15)
    ]
    private = [
        (HotRegion(_slot(base, 0), ctx.region_size(0.3), ctx.block_size, write_prob=0.25), 0.85),
    ]
    return shared, private


@_register(
    "swaptions",
    "Swaption pricing: compute-bound Monte-Carlo with small private state.",
    14.0,
)
def _swaptions(ctx: ScaleContext, base: int):
    shared = [
        (RandomRegion(_slot(base, 0), _llc_frac(ctx, 0.01), ctx.block_size, write_prob=0.02), 0.10)
    ]
    private = [
        (HotRegion(_slot(base, 0), ctx.region_size(0.25), ctx.block_size, write_prob=0.30), 0.90),
    ]
    return shared, private


@_register(
    "bodytrack",
    "Computer vision: shared read-mostly image data plus per-thread "
    "particle state.",
    8.0,
)
def _bodytrack(ctx: ScaleContext, base: int):
    # Particles are partitioned per thread (each re-reads its own slice
    # of the image/particle data); the small shared state is the model
    # configuration, occasionally updated.
    shared = [
        (RandomRegion(_slot(base, 1), _llc_frac(ctx, 0.04), ctx.block_size, write_prob=0.15), 0.10),
    ]
    private = [
        (LoopRegion(_slot(base, 1), _llc_frac(ctx, 0.04), ctx.block_size, write_prob=0.30), 0.30),
        (HotRegion(_slot(base, 0), ctx.region_size(0.4), ctx.block_size, write_prob=0.25), 0.60),
    ]
    return shared, private


@_register(
    "canneal",
    "Chip routing via simulated annealing: random pointer chasing over a "
    "shared netlist much larger than the LLC, with element swaps (writes).",
    3.0,
)
def _canneal(ctx: ScaleContext, base: int):
    shared = [
        (RandomRegion(_slot(base, 0), ctx.llc_bytes * 6, ctx.block_size, write_prob=0.20), 0.65),
    ]
    private = [
        (HotRegion(_slot(base, 0), ctx.region_size(0.3), ctx.block_size, write_prob=0.25), 0.35),
    ]
    return shared, private


@_register(
    "dedup",
    "Compression pipeline: streaming input chunks (read-modify-write) plus "
    "a shared hash table.",
    3.5,
)
def _dedup(ctx: ScaleContext, base: int):
    shared = [
        (StreamRegion(_slot(base, 0), ctx.llc_bytes * 16, ctx.block_size, rw_pair=True), 0.35),
        (RandomRegion(_slot(base, 1), _llc_frac(ctx, 1.1), ctx.block_size, write_prob=0.30), 0.25),
    ]
    private = [
        (HotRegion(_slot(base, 0), ctx.region_size(0.3), ctx.block_size, write_prob=0.25), 0.40),
    ]
    return shared, private


@_register(
    "ferret",
    "Content-based similarity search: shared image database re-read by all "
    "threads (moderate loop-block population).",
    5.0,
)
def _ferret(ctx: ScaleContext, base: int):
    # Pipeline stages work on thread-affine slices of the database
    # (re-read clean) and index lookups touch a shared table slightly
    # larger than the LLC.
    shared = [
        (RandomRegion(_slot(base, 0), _llc_frac(ctx, 1.2), ctx.block_size, write_prob=0.10), 0.20),
    ]
    private = [
        (LoopRegion(_slot(base, 1), _llc_frac(ctx, 0.12), ctx.block_size), 0.20),
        (HotRegion(_slot(base, 0), ctx.region_size(0.35), ctx.block_size, write_prob=0.25), 0.60),
    ]
    return shared, private


@_register(
    "fluidanimate",
    "Fluid dynamics: shared particle grid streamed with in-place dirty "
    "updates plus private accumulation state.",
    4.0,
)
def _fluidanimate(ctx: ScaleContext, base: int):
    # The grid is spatially partitioned: each thread sweeps its own
    # sub-grid (thread-affine, together ~1.3x the LLC so exclusion's
    # capacity benefit shows), exchanging only boundary cells.
    shared = [
        (RandomRegion(_slot(base, 0), _llc_frac(ctx, 0.05), ctx.block_size, write_prob=0.30), 0.08),
    ]
    private = [
        (LoopRegion(_slot(base, 1), _llc_frac(ctx, 0.33), ctx.block_size, write_prob=0.30), 0.40),
        (HotRegion(_slot(base, 0), ctx.region_size(0.4), ctx.block_size, write_prob=0.30), 0.52),
    ]
    return shared, private


@_register(
    "freqmine",
    "Frequent itemset mining: shared FP-tree with read-dominant traversal "
    "that mostly fits in the LLC.",
    5.0,
)
def _freqmine(ctx: ScaleContext, base: int):
    # FP-growth mines thread-private projected trees; the global tree
    # root area is shared read-mostly.
    shared = [
        (RandomRegion(_slot(base, 0), _llc_frac(ctx, 0.06), ctx.block_size, write_prob=0.05), 0.10),
    ]
    private = [
        (RandomRegion(_slot(base, 1), _llc_frac(ctx, 0.10), ctx.block_size, write_prob=0.35), 0.28),
        (HotRegion(_slot(base, 0), ctx.region_size(0.35), ctx.block_size, write_prob=0.25), 0.62),
    ]
    return shared, private


@_register(
    "streamcluster",
    "Online clustering: shared point set larger than L2 but smaller than "
    "the LLC, re-read clean every iteration — the loop-block-dominated "
    "case with the paper's largest multithreaded LAP savings.",
    3.5,
)
def _streamcluster(ctx: ScaleContext, base: int):
    # Each thread repeatedly re-reads its own partition of the point
    # set (clean, between L2 and the LLC: the loop-block source) and
    # all threads share the small set of cluster centres.
    shared = [
        (LoopRegion(_slot(base, 0), _llc_frac(ctx, 0.04), ctx.block_size, write_prob=0.10), 0.12),
    ]
    private = [
        (LoopRegion(_slot(base, 1), _llc_frac(ctx, 0.28), ctx.block_size), 0.50),
        (StreamRegion(_slot(base, 2), ctx.llc_bytes * 8, ctx.block_size, write_prob=0.10), 0.08),
        (HotRegion(_slot(base, 0), ctx.region_size(0.25), ctx.block_size, write_prob=0.25), 0.30),
    ]
    return shared, private


@_register(
    "x264",
    "Video encoding: streaming frame data with moderate writes plus "
    "per-thread macroblock state.",
    5.0,
)
def _x264(ctx: ScaleContext, base: int):
    shared = [
        (StreamRegion(_slot(base, 0), ctx.llc_bytes * 10, ctx.block_size, write_prob=0.25), 0.30),
        (LoopRegion(_slot(base, 1), _llc_frac(ctx, 0.20), ctx.block_size), 0.15),
    ]
    private = [
        (HotRegion(_slot(base, 0), ctx.region_size(0.4), ctx.block_size, write_prob=0.30), 0.55),
    ]
    return shared, private


# Order used on Fig. 20's x-axis (the PARSEC benchmarks we model).
PARSEC_ORDER = (
    "blackscholes",
    "bodytrack",
    "canneal",
    "dedup",
    "ferret",
    "fluidanimate",
    "freqmine",
    "streamcluster",
    "swaptions",
    "x264",
)


def get_parsec(name: str) -> ParsecSpec:
    """Look up a PARSEC-like workload spec by name."""
    try:
        return PARSEC_BENCHMARKS[name]
    except KeyError:
        raise WorkloadError(f"unknown PARSEC workload {name!r}; known: {sorted(PARSEC_BENCHMARKS)}")
