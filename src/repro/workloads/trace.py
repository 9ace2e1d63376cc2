"""Memory-reference traces.

The simulator is trace-driven: each core consumes a stream of
``(address, is_write)`` references. Streams are produced in NumPy
batches for speed, via the :class:`TraceGenerator` interface. A small
:class:`MemRef` record and :class:`FixedTrace` exist for hand-written
micro-traces (the Fig. 3 / Fig. 5 walk-throughs and unit tests).

Every reference stands for one memory instruction; the surrounding
non-memory instructions are accounted through the generator's
``instr_per_ref`` weight (committed instructions per memory reference),
which feeds both the EPI denominator and the timing model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import WorkloadError


@dataclass(frozen=True)
class MemRef:
    """One memory reference: block-addressable byte address + op kind."""

    addr: int
    is_write: bool = False
    comment: str = ""


class TraceGenerator:
    """Produces memory references in batches.

    Subclasses implement :meth:`batch`; consumers must treat generators
    as stateful single-pass streams. ``instr_per_ref`` scales references
    to committed instructions.
    """

    name: str = "trace"
    instr_per_ref: float = 4.0

    def batch(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return the next ``n`` references as (addrs:uint64, writes:bool)."""
        raise NotImplementedError

    def refs(self, n: int) -> Iterable[MemRef]:
        """Convenience scalar iterator over the next ``n`` references."""
        addrs, writes = self.batch(n)
        for a, w in zip(addrs.tolist(), writes.tolist()):
            yield MemRef(int(a), bool(w))


class FixedTrace(TraceGenerator):
    """A finite, hand-authored reference list; raises when exhausted.

    Used by the Fig. 3 / Fig. 5 micro-flow reproductions, where the
    exact sequence of fills, hits, and evictions matters.
    """

    def __init__(self, refs: Sequence[MemRef], name: str = "fixed", instr_per_ref: float = 1.0):
        if not refs:
            raise WorkloadError("FixedTrace needs at least one reference")
        self.name = name
        self.instr_per_ref = instr_per_ref
        self._refs: List[MemRef] = list(refs)
        self._pos = 0

    def __len__(self) -> int:
        return len(self._refs)

    @property
    def remaining(self) -> int:
        """References left before exhaustion."""
        return len(self._refs) - self._pos

    def batch(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._pos + n > len(self._refs):
            raise WorkloadError(
                f"FixedTrace {self.name!r} exhausted: asked for {n}, "
                f"only {self.remaining} remain"
            )
        chunk = self._refs[self._pos : self._pos + n]
        self._pos += n
        addrs = np.fromiter((r.addr for r in chunk), dtype=np.uint64, count=n)
        writes = np.fromiter((r.is_write for r in chunk), dtype=bool, count=n)
        return addrs, writes


class ConcatTrace(TraceGenerator):
    """Chains several generators, consuming each in turn.

    Useful for phase-change workloads (e.g. testing that dynamic
    switching policies actually switch between program phases).
    """

    def __init__(
        self,
        parts: Sequence[Tuple[TraceGenerator, int]],
        name: str = "concat",
    ) -> None:
        if not parts:
            raise WorkloadError("ConcatTrace needs at least one part")
        self.name = name
        self._parts = list(parts)
        self._index = 0
        self._consumed_in_part = 0
        self.instr_per_ref = parts[0][0].instr_per_ref

    def batch(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """The next ``n`` references; ``instr_per_ref`` becomes their
        mean weight, each charged at its own part's."""
        addr_chunks: List[np.ndarray] = []
        write_chunks: List[np.ndarray] = []
        instrs = 0.0
        need = n
        while need > 0:
            if self._index >= len(self._parts):
                # Loop back to the first phase so the stream is endless.
                self._index = 0
                self._consumed_in_part = 0
            gen, budget = self._parts[self._index]
            take = min(need, budget - self._consumed_in_part)
            if take <= 0:
                self._index += 1
                self._consumed_in_part = 0
                continue
            a, w = gen.batch(take)
            addr_chunks.append(a)
            write_chunks.append(w)
            self._consumed_in_part += take
            need -= take
            instrs += take * gen.instr_per_ref
        if n > 0:
            self.instr_per_ref = instrs / n
        return np.concatenate(addr_chunks), np.concatenate(write_chunks)
