"""Standard probes: the paper's always-on instrumentation, as plug-ins.

These reimplement — bit-for-bit — the three instrumentation mechanisms
that used to be hard-wired into the hierarchy engine:

- :class:`LoopProbe` owns the :class:`~repro.core.loop_bits.
  LoopBlockTracker` (Fig. 4 loop-block fractions, CTC histogram,
  Fig. 16 re-insertions and occupancy shares);
- :class:`RedundantFillProbe` owns the fresh-fill set behind the
  redundant-LLC-fill counters (Figs. 5/6/17);
- :class:`OccupancySampler` takes the periodic (valid, loop) LLC
  occupancy sample and re-emits it as the ``occupancy_sample`` event so
  any probe (the loop tracker, by default) can accumulate it.

``make_probes`` turns a :class:`~repro.sim.system.SystemConfig`-level
instrumentation spec — ``"default"``, ``"none"``, or a comma-separated
list of registry names — into a concrete probe list.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Set

from ..core.loop_bits import LoopBlockTracker
from ..errors import ConfigurationError
from .probe import Probe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache import Cache
    from ..hierarchy.hierarchy import CacheHierarchy


class LoopProbe(Probe):
    """Loop-block instrumentation (Figs. 4 and 16) as a probe.

    Wraps a :class:`LoopBlockTracker` so its measurement semantics (and
    every existing consumer of ``tracker.stats``) stay unchanged.
    """

    name = "loop"

    def __init__(self, tracker: LoopBlockTracker | None = None) -> None:
        self.tracker = tracker if tracker is not None else LoopBlockTracker()

    def on_l2_fill(self, addr: int, from_llc: bool) -> None:
        self.tracker.on_l2_fill(addr, from_llc)

    def on_l2_victim(self, addr: int, dirty: bool) -> None:
        self.tracker.on_l2_evict(addr, dirty)

    def on_dirtied(self, addr: int) -> None:
        self.tracker.on_dirtied(addr)

    def on_clean_insert(self, addr: int) -> None:
        self.tracker.on_clean_insert(addr)

    def on_occupancy_sample(self, valid: int, loops: int) -> None:
        self.tracker.sample_llc_occupancy(valid, loops)

    def finish(self) -> None:
        self.tracker.finalize()


class RedundantFillProbe(Probe):
    """Fresh-fill bookkeeping behind ``redundant_fills`` (Fig. 5).

    An LLC data-fill is *fresh* until a demand hit consumes it; a dirty
    victim overwriting a still-fresh fill proves the fill redundant and
    bumps the LLC's ``redundant_fills`` counter.
    """

    name = "redundant-fill"

    def __init__(self) -> None:
        self._fresh: Set[int] = set()
        self._llc_stats = None

    def bind(self, hierarchy: "CacheHierarchy") -> None:
        self._llc_stats = hierarchy.llc.stats

    def on_llc_fill(self, addr: int) -> None:
        self._fresh.add(addr)

    def on_demand_hit(self, addr: int) -> None:
        self._fresh.discard(addr)

    def on_dirty_victim(self, addr: int) -> None:
        fresh = self._fresh
        if addr in fresh:
            self._llc_stats.redundant_fills += 1
            fresh.discard(addr)

    def on_llc_evict(self, addr: int) -> None:
        self._fresh.discard(addr)


class OccupancySampler(Probe):
    """Periodic LLC occupancy sampling (Fig. 16's x-axis).

    Every ``interval`` accesses, reads the LLC's incrementally
    maintained (valid, loop) occupancy counters and re-emits them as an
    ``occupancy_sample`` event to the bus's subscribers, so downstream
    probes (the loop tracker) accumulate the shares.
    """

    name = "occupancy"

    def __init__(self, interval: int) -> None:
        if interval <= 0:
            raise ConfigurationError(
                f"OccupancySampler interval must be positive, got {interval}"
            )
        self.interval = interval
        self._since = 0
        self._llc: Cache | None = None
        self._on_sample: tuple = ()

    def bind(self, hierarchy: "CacheHierarchy") -> None:
        # Rebound whenever the hierarchy installs a new bus, so the
        # subscriber tuple is always the current bus's.
        self._llc = hierarchy.llc
        self._on_sample = hierarchy.probe_bus.handlers("occupancy_sample")

    def on_access(self, core: int, addr: int, is_write: bool) -> None:
        self._since += 1
        if self._since >= self.interval:
            self._since = 0
            valid, loops = self._llc.loop_block_occupancy()
            for cb in self._on_sample:
                cb(valid, loops)


# ----------------------------------------------------------------------
# registry / spec parsing
# ----------------------------------------------------------------------
#: Probe factories by registry name. Factories receive the occupancy
#: sampling interval (most ignore it).
PROBE_FACTORIES: Dict[str, Callable[[int], Probe]] = {
    "loop": lambda interval: LoopProbe(),
    "redundant-fill": lambda interval: RedundantFillProbe(),
    "occupancy": lambda interval: OccupancySampler(interval),
}

#: Spec aliases meaning "no instrumentation at all".
_NONE_SPECS = frozenset({"none", "off", ""})


def probe_names() -> List[str]:
    """Registered probe names (stable order)."""
    return sorted(PROBE_FACTORIES)


def make_probes(spec: str, *, occupancy_interval: int = 0) -> List[Probe]:
    """Build a probe list from an instrumentation spec string.

    ``"default"`` (the legacy-equivalent set) yields the loop tracker,
    the redundant-fill detector, and — when ``occupancy_interval`` is
    positive — the occupancy sampler, reproducing exactly the
    instrumentation that used to be hard-wired into the hierarchy.
    ``"none"``/``"off"``/``""`` yields the empty list (zero per-access
    instrumentation overhead). Anything else is a comma-separated list
    of registry names, applied in the given order.
    """
    spec = spec.strip().lower()
    if spec == "default":
        probes: List[Probe] = [LoopProbe(), RedundantFillProbe()]
        if occupancy_interval > 0:
            probes.append(OccupancySampler(occupancy_interval))
        return probes
    if spec in _NONE_SPECS:
        return []
    probes = []
    for raw in spec.split(","):
        name = raw.strip()
        if not name:
            continue
        factory = PROBE_FACTORIES.get(name)
        if factory is None:
            raise ConfigurationError(
                f"unknown probe {name!r}; known: {probe_names()} "
                f"(or 'default' / 'none')"
            )
        if name == "occupancy" and occupancy_interval <= 0:
            raise ConfigurationError(
                "the 'occupancy' probe needs a positive occupancy_sample_interval"
            )
        probes.append(factory(occupancy_interval))
    return probes
