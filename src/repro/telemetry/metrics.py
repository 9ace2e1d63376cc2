"""Process-local metrics: counters and log-bucket histograms.

The registry is the cross-run companion to :mod:`repro.instr`'s
per-run probes: the simulator, the hierarchy, and the execution pool
all report coarse-grained facts into it (runs completed, accesses
simulated, jobs executed, cache hit/miss counts, per-job wall times),
and a snapshot can be dumped to JSON at any point — the CLI's global
``--metrics PATH`` does exactly that after every command.

Design rules:

- **Reporting is edge-triggered, never per-access.** Instruments write
  once per run/job, so an enabled registry costs nothing on the
  simulator's hot path.
- **No wall-clock dependence in keys.** Histogram buckets are fixed
  log-scale boundaries (a 1-2-5 ladder per decade), so two snapshots of
  the same work are structurally identical and diffable; wall time only
  ever appears as *observed values*, never as part of a metric or
  bucket name.
- **Process-local.** Worker processes report into their own registries;
  the pool aggregates what it needs (wall times, provenance) explicitly
  through job profiles rather than through shared mutable state.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..errors import TelemetryError

Number = Union[int, float]

#: Fixed log-scale histogram boundaries: a 1-2-5 ladder from 1e-9 to
#: 1e9 (wide enough for nanosecond latencies and giga-scale counts).
#: Being a module constant — not derived from the data, the clock, or
#: the host — keeps bucket keys stable across runs and machines.
_DECADES = range(-9, 10)
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    mantissa * (10.0**exp) for exp in _DECADES for mantissa in (1, 2, 5)
)


def _bucket_label(bound: float) -> str:
    """Short, stable label for one upper bound (``"2e-03"``, ``"5e+06"``)."""
    exp = math.floor(math.log10(bound) + 1e-12)
    mantissa = round(bound / 10.0**exp)
    return f"{mantissa}e{exp:+03d}"


BUCKET_LABELS: Tuple[str, ...] = tuple(_bucket_label(b) for b in BUCKET_BOUNDS)
OVERFLOW_LABEL = "inf"


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise TelemetryError(f"counter {self.name!r} cannot decrease (inc {amount})")
        # += is a read-modify-write, NOT atomic under the GIL; any
        # library caller's threads may inc the same counter.
        with self._lock:
            self.value += amount


class Histogram:
    """A fixed log-bucket histogram of non-negative observations.

    Bucket boundaries come from :data:`BUCKET_BOUNDS`; an observation
    lands in the first bucket whose upper bound is >= the value, with
    one overflow bucket (``"inf"``) above the ladder. Count, sum, min
    and max are tracked exactly alongside the buckets.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_buckets", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: Dict[str, int] = {}
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        value = float(value)
        if value < 0 or math.isnan(value):
            raise TelemetryError(
                f"histogram {self.name!r} takes non-negative values, got {value}"
            )
        label = self._label_for(value)
        # One lock for the whole update keeps count/sum/buckets mutually
        # consistent: a snapshot taken mid-observe never sees a count
        # that disagrees with the bucket totals.
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            self._buckets[label] = self._buckets.get(label, 0) + 1

    @staticmethod
    def _label_for(value: float) -> str:
        # Linear scan would be fine (57 buckets) but bisect is clearer
        # about intent: first bound >= value.
        import bisect

        idx = bisect.bisect_left(BUCKET_BOUNDS, value)
        if idx >= len(BUCKET_BOUNDS):
            return OVERFLOW_LABEL
        return BUCKET_LABELS[idx]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def buckets(self) -> Dict[str, int]:
        """Non-empty buckets in ladder order (overflow last)."""
        ordered = {
            label: self._buckets[label]
            for label in BUCKET_LABELS
            if label in self._buckets
        }
        if OVERFLOW_LABEL in self._buckets:
            ordered[OVERFLOW_LABEL] = self._buckets[OVERFLOW_LABEL]
        return ordered

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "min": self.min,
                "max": self.max,
                "mean": self.total / self.count if self.count else 0.0,
                "buckets": self.buckets(),
            }


Instrument = Union[Counter, Histogram]


class MetricsRegistry:
    """Named instruments, created on first use, snapshot-able to JSON.

    ``counter``/``histogram`` are get-or-create: the first
    call for a name fixes its kind, and asking for the same name as a
    different kind raises :class:`~repro.errors.TelemetryError` (a
    silent re-type would corrupt dashboards downstream). Creation takes
    a registry lock and every instrument guards its own updates, so
    concurrent ``inc``/``observe`` from worker threads never lose
    writes and a snapshot taken mid-update stays internally consistent.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, cls) -> Instrument:
        if not name or not isinstance(name, str):
            raise TelemetryError(f"metric names must be non-empty strings, got {name!r}")
        found = self._instruments.get(name)
        if found is not None:
            if not isinstance(found, cls):
                raise TelemetryError(
                    f"metric {name!r} is a {type(found).__name__}, "
                    f"not a {cls.__name__}"
                )
            return found
        with self._lock:
            found = self._instruments.get(name)
            if found is None:
                found = self._instruments[name] = cls(name)
            elif not isinstance(found, cls):
                raise TelemetryError(
                    f"metric {name!r} is a {type(found).__name__}, "
                    f"not a {cls.__name__}"
                )
            return found

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        return iter(list(self._instruments.values()))

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def reset(self) -> None:
        """Drop every instrument (tests, per-sweep isolation)."""
        with self._lock:
            self._instruments.clear()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-safe dict of every instrument, grouped by kind."""
        counters: Dict[str, int] = {}
        histograms: Dict[str, object] = {}
        for name in self.names():
            inst = self._instruments[name]
            if isinstance(inst, Counter):
                counters[name] = inst.value
            else:
                histograms[name] = inst.as_dict()
        return {"counters": counters, "histograms": histograms}

    def snapshot_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


# ----------------------------------------------------------------------
# the process-wide default registry
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every built-in instrument reports into."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process default; returns the old one."""
    global _default_registry
    if not isinstance(registry, MetricsRegistry):
        raise TelemetryError(
            f"set_registry needs a MetricsRegistry, got {type(registry).__name__}"
        )
    previous = _default_registry
    _default_registry = registry
    return previous
