"""The probe observer protocol and its compiled dispatch bus.

The hierarchy engine (:mod:`repro.hierarchy.hierarchy`) models cache
*mechanics*: inclusion dispatch, L1⊆L2 maintenance, writebacks and
timing. Everything the paper's figures *measure on the side* — the
loop-block tracker (Fig. 4), redundant-fill detection (Figs. 5/6/17),
LLC occupancy sampling (Fig. 16) — is an *observer* of that mechanics
stream, and lives here as a :class:`Probe`.

A probe subscribes to events by overriding the matching ``on_*`` method;
:class:`ProbeBus` compiles, per event, the tuple of bound handlers of
probes that actually override it. The hierarchy caches those tuples and
guards every dispatch with a truthiness check, so a run with no probes
(or no subscriber for an event) pays a single attribute load and branch
per event site — no calls, no allocation.

Event vocabulary (one dispatch site each in the hierarchy):

========================  ====================================================
``access``                one memory reference retired (any level)
``l2_fill``               a line was filled into an L2 (``from_llc``: LLC hit)
``l2_victim``             a line left an L2 (eviction, back- or peer-invalidation)
``llc_fill``              an LLC data-fill from memory (non-inclusive flows)
``llc_evict``             a line left the LLC (eviction or invalidation)
``demand_hit``            an LLC demand lookup hit
``dirtied``               an L2-resident block went clean→dirty (first store)
``clean_insert``          a clean L2 victim's data was written into the LLC
``dirty_victim``          a dirty L2 victim's data reached the LLC copy
``mem_writeback``         dirty data for an address reached main memory
``occupancy_sample``      a periodic (valid, loop) LLC occupancy sample
========================  ====================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hierarchy.hierarchy import CacheHierarchy

#: Every event the bus can dispatch, in documentation order. The bus
#: derives handler names mechanically (``on_<event>``).
PROBE_EVENTS: Tuple[str, ...] = (
    "access",
    "l2_fill",
    "l2_victim",
    "llc_fill",
    "llc_evict",
    "demand_hit",
    "dirtied",
    "clean_insert",
    "dirty_victim",
    "mem_writeback",
    "occupancy_sample",
)


class Probe:
    """Base observer: every handler is a no-op.

    Subclasses override only the events they need; the bus detects
    overrides by comparing against these base methods, so an inherited
    no-op costs nothing at runtime.
    """

    #: registry name (used by :func:`repro.instr.probes.make_probes`)
    name = "probe"

    def bind(self, hierarchy: "CacheHierarchy") -> None:
        """Attach to a hierarchy before the run starts (optional).

        Bind what the handlers read (the LLC, a stats object), never the
        hierarchy itself: a probe that pointed back at it would make
        every finished hierarchy garbage for the cycle collector.
        """

    # ---- event handlers (signatures are the dispatch contract) -------
    def on_access(self, core: int, addr: int, is_write: bool) -> None:
        """One memory reference finished processing."""

    def on_l2_fill(self, addr: int, from_llc: bool) -> None:
        """A line was installed into an L2."""

    def on_l2_victim(self, addr: int, dirty: bool) -> None:
        """A line left an L2 (eviction or invalidation)."""

    def on_llc_fill(self, addr: int) -> None:
        """An LLC data-fill from memory happened."""

    def on_llc_evict(self, addr: int) -> None:
        """A line left the LLC."""

    def on_demand_hit(self, addr: int) -> None:
        """An LLC demand access hit."""

    def on_dirtied(self, addr: int) -> None:
        """An L2 block transitioned clean→dirty."""

    def on_clean_insert(self, addr: int) -> None:
        """A clean victim's data was written into the LLC."""

    def on_dirty_victim(self, addr: int) -> None:
        """A dirty victim's data reached the LLC copy."""

    def on_mem_writeback(self, addr: int) -> None:
        """Dirty data for ``addr`` was written back to main memory
        (an LLC dirty eviction, or a back-invalidated dirty L2 drop)."""

    def on_occupancy_sample(self, valid: int, loops: int) -> None:
        """A periodic LLC occupancy sample was taken."""

    def finish(self) -> None:
        """End-of-run flush (histograms, open streaks)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


Handler = Callable[..., None]


class ProbeBus:
    """Compiled dispatch over an ordered probe list.

    Dispatch order within one event follows the probe list order, which
    is how cross-probe protocols (the occupancy sampler feeding the
    loop tracker) stay deterministic.
    """

    def __init__(self, probes: Sequence[Probe] = ()) -> None:
        self.probes: Tuple[Probe, ...] = tuple(probes)
        self._compiled: dict[str, Tuple[Handler, ...]] = {}
        self.recompile()

    def recompile(self) -> None:
        """Rebuild the per-event handler tuples (after probe changes).

        A probe that overrides no ``on_*`` method would silently
        subscribe to nothing — almost always a typo'd handler name
        (``on_llc_evicted`` instead of ``on_llc_evict``) — so it is
        rejected with a :class:`ValueError` naming the class instead of
        being dropped on the floor.
        """
        for probe in self.probes:
            if not any(
                getattr(type(probe), f"on_{event}") is not getattr(Probe, f"on_{event}")
                for event in PROBE_EVENTS
            ):
                raise ValueError(
                    f"{type(probe).__name__} overrides no on_* handler, so it "
                    f"would observe nothing; override at least one of "
                    f"{', '.join('on_' + e for e in PROBE_EVENTS)} "
                    f"(check for misspelled handler names)"
                )
        self._compiled = {
            event: tuple(
                getattr(probe, f"on_{event}")
                for probe in self.probes
                if getattr(type(probe), f"on_{event}") is not getattr(Probe, f"on_{event}")
            )
            for event in PROBE_EVENTS
        }

    def bind(self, hierarchy: "CacheHierarchy") -> None:
        """Bind every probe to the hierarchy."""
        for probe in self.probes:
            probe.bind(hierarchy)

    def handlers(self, event: str) -> Tuple[Handler, ...]:
        """The compiled handler tuple for ``event`` (possibly empty)."""
        if event not in self._compiled:  # pragma: no cover - programming error
            raise KeyError(f"unknown probe event {event!r}; known: {PROBE_EVENTS}")
        return self._compiled[event]

    def find(self, probe_type: type) -> Probe | None:
        """First probe that is an instance of ``probe_type``, or None."""
        for probe in self.probes:
            if isinstance(probe, probe_type):
                return probe
        return None

    def finish(self) -> None:
        """Run every probe's end-of-run hook, in order."""
        for probe in self.probes:
            probe.finish()

    def __len__(self) -> int:
        return len(self.probes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProbeBus({', '.join(p.name for p in self.probes) or 'empty'})"
