"""Per-PR perf trajectory analysis over ``BENCH_hotpath.json``.

The bench file is append-only history (one timestamped entry per
``repro bench`` run); this module turns it into trends: for every
(policy, backend, instrumentation) cell, the series of accesses/sec
across entries, the latest value, the best *prior* value, and the
percentage delta between them. ``repro bench trend`` renders that as
a table (or JSON) and, with ``--fail-on-regression PCT``, exits
non-zero when any cell's latest measurement sits more than PCT percent
below its prior best — the guard CI uses to keep the hot path from
quietly decaying.

Comparing latest-vs-prior-best (not latest-vs-previous) is deliberate:
throughput measurements are best-of-N but still noisy, and a slow CI
host should not *reset* the baseline — a regression is only real when
the newest number cannot reach what the same cell has provably done
before, within the tolerance.

Entries that record a host-speed reading per cell (``"host_ref_ms"``,
see :func:`repro.bench.host_reference_ms`) are compared with each
other by rate × reading, which takes out a shared host's slow speed
drift (not its sub-second jitter). Against an entry without a reading
the raw rates are compared, as before; the cell's delta is the worse of
the two comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import TelemetryError


def entry_rates(entry: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """``{instrumentation: {policy: {backend: rate}}}`` for one entry.

    Entries that predate the instrumentation axis (no
    ``"instrumentation"`` key, flat ``{policy: {backend: rate}}``) were
    all probe-free and read as ``"none"``. Malformed parts come back
    as-is for the caller to skip.
    """
    rates = entry.get("accesses_per_sec", {})
    if "instrumentation" not in entry:
        return {"none": rates}
    return rates if isinstance(rates, dict) else {}


def _cell_ref(entry: Dict[str, Any], spec: str, policy: str, backend: str) -> Optional[float]:
    """The host-speed reading taken around one cell, or None."""
    try:
        value = entry["host_ref_ms"][spec][policy][backend]
    except (KeyError, TypeError):
        return None
    return float(value) if isinstance(value, (int, float)) and value > 0 else None


@dataclass
class TrendCell:
    """One (policy, backend, instrumentation) series across bench entries."""

    policy: str
    backend: str
    #: (timestamp, accesses/sec) in file (= chronological append) order.
    series: List[tuple] = field(default_factory=list)
    #: instrumentation spec the cell ran with (``"none"``: probe-free)
    instrumentation: str = "none"
    #: host-speed reading (ms) per series point, None where not recorded
    refs: List[Optional[float]] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.policy}/{self.backend}/{self.instrumentation}"

    @property
    def latest(self) -> Optional[float]:
        return self.series[-1][1] if self.series else None

    @property
    def best_prior(self) -> Optional[float]:
        """The best raw rate before the latest point."""
        if len(self.series) < 2:
            return None
        return max(v for _, v in self.series[:-1])

    def _ref(self, i: int) -> Optional[float]:
        return self.refs[i] if i < len(self.refs) else None

    def _deltas(self) -> Dict[str, float]:
        """Latest vs best prior per comparison basis, in percent:
        ``"host-normalised"`` (rate × reading) over the prior points that
        carry a reading when the latest does, ``"raw"`` over the rest."""
        n = len(self.series)
        if n < 2:
            return {}
        latest_ref = self._ref(n - 1)
        raw, norm = [], []
        for i, (_, value) in enumerate(self.series[:-1]):
            ref = self._ref(i)
            if latest_ref is not None and ref is not None:
                norm.append(value * ref)
            else:
                raw.append(value)
        deltas = {}
        if raw and max(raw):
            deltas["raw"] = (self.latest - max(raw)) / max(raw) * 100.0
        if norm:
            best = max(norm)
            deltas["host-normalised"] = (self.latest * latest_ref - best) / best * 100.0
        return deltas

    @property
    def basis(self) -> Optional[str]:
        """Which comparison :attr:`delta_pct` comes from."""
        deltas = self._deltas()
        return min(deltas, key=deltas.get) if deltas else None

    @property
    def delta_pct(self) -> Optional[float]:
        """Latest vs best prior, in percent (negative = slower): the
        worse of the host-normalised and raw comparisons."""
        deltas = self._deltas()
        return min(deltas.values()) if deltas else None

    def regressed(self, threshold_pct: float) -> bool:
        delta = self.delta_pct
        return delta is not None and delta < -abs(threshold_pct)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "backend": self.backend,
            "instrumentation": self.instrumentation,
            "entries": len(self.series),
            "series": [{"timestamp": t, "accesses_per_sec": v,
                        "host_ref_ms": self._ref(i)}
                       for i, (t, v) in enumerate(self.series)],
            "latest": self.latest,
            "best_prior": self.best_prior,
            "delta_pct": self.delta_pct,
            "basis": self.basis,
        }


def bench_trend(doc: Dict[str, Any]) -> List[TrendCell]:
    """Extract every (policy, backend, instrumentation) trend cell from a
    bench document.

    ``doc`` is the schema-2 shape :func:`repro.bench.load_bench_file`
    returns; a v1 ``legacy`` record (flat, backend-less) contributes a
    leading ``object``-backend point when its rates are recoverable, so
    the trajectory reaches back past the schema migration.
    """
    if not isinstance(doc, dict):
        raise TelemetryError("bench trend needs the parsed BENCH_hotpath.json dict")
    cells: Dict[tuple, TrendCell] = {}

    def cell(policy: str, backend: str, spec: str = "none") -> TrendCell:
        key = (policy, backend, spec)
        found = cells.get(key)
        if found is None:
            found = cells[key] = TrendCell(
                policy=policy, backend=backend, instrumentation=spec
            )
        return found

    legacy = doc.get("legacy")
    if isinstance(legacy, dict):
        rates = legacy.get("accesses_per_sec")
        if isinstance(rates, dict):
            stamp = legacy.get("timestamp", "legacy")
            for policy, value in sorted(rates.items()):
                if isinstance(value, (int, float)):
                    found = cell(policy, "object")
                    found.series.append((stamp, float(value)))
                    found.refs.append(None)

    for entry in doc.get("entries", []):
        if not isinstance(entry, dict):
            continue
        stamp = entry.get("timestamp", "?")
        for spec, rates in sorted(entry_rates(entry).items()):
            if not isinstance(rates, dict):
                continue
            for policy in sorted(rates):
                per_backend = rates[policy]
                if not isinstance(per_backend, dict):
                    continue
                for backend in sorted(per_backend):
                    value = per_backend[backend]
                    if isinstance(value, (int, float)):
                        found = cell(policy, backend, spec)
                        found.series.append((stamp, float(value)))
                        found.refs.append(_cell_ref(entry, spec, policy, backend))

    return sorted(cells.values(), key=lambda c: (c.policy, c.backend, c.instrumentation))


def regressions(
    cells: List[TrendCell], threshold_pct: float
) -> List[TrendCell]:
    """The cells whose latest point regressed beyond the tolerance."""
    return [c for c in cells if c.regressed(threshold_pct)]


def trend_rows(cells: List[TrendCell], threshold_pct: Optional[float] = None) -> List[list]:
    """CLI table rows: policy, backend, instrumentation, n, latest, best
    prior, delta."""
    rows: List[list] = []
    for c in cells:
        delta = c.delta_pct
        verdict = "-"
        if delta is not None:
            verdict = f"{delta:+.1f}%"
            if c.basis == "host-normalised":
                verdict += " (host-normalised)"
            if threshold_pct is not None and c.regressed(threshold_pct):
                verdict += " REGRESSION"
        rows.append([
            c.policy,
            c.backend,
            c.instrumentation,
            len(c.series),
            round(c.latest) if c.latest is not None else "-",
            round(c.best_prior) if c.best_prior is not None else "-",
            verdict,
        ])
    return rows
