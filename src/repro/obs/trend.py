"""Perf trajectories over the two ``BENCH_*.json`` records.

A :class:`Series` is a key plus a list of (stamp, value) points in file
(= chronological append) order, with a better direction. Its latest
point is compared with the best *prior* point, not the previous one:
measurements are noisy, and a slow run should not reset the baseline —
a regression is only real when the newest number cannot reach what the
same series has provably done before, within the tolerance.
``repro bench trend`` renders the series as a table (or JSON) and, with
``--fail-on-regression PCT``, exits non-zero when any series' latest
point is more than PCT percent worse than its best prior (the CI
guard).

:func:`bench_trend` reads each entry of a document by its shape:

- a ``BENCH_e2e.json`` record (``benchmarks/bench_e2e.py``; it has a
  ``"result"``) at ``trace == 0`` adds its ``norm_wall_s`` to the
  (workload, seed) series, lower is better; a record without a seed ran
  at perfbench's default, 0. A record that is not ``correct`` adds no
  point, and a series whose latest record is one fails the guard.
- a path-keyed ``BENCH_hotpath.json`` entry (:mod:`repro.bench`; it has
  ``"paths"``) adds one point per (policy, path, instrumentation) cell:
  the rate times the host-speed reading taken around it
  (:func:`repro.bench.host_reference_ms`), which takes out a shared
  host's slow speed drift (not its sub-second jitter); higher is
  better.

Anything else (the hot-path file's ``legacy`` record and its entries
from before the path axis) is frozen history and is not read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import TelemetryError


@dataclass
class Series:
    """One keyed series of measurements across bench entries."""

    key: Tuple[str, ...]
    #: ``"higher"`` or ``"lower"``: which way is better
    better: str
    #: (stamp, value) in file (= chronological append) order
    points: List[Tuple[str, float]] = field(default_factory=list)
    #: whether the latest record came from a correct run
    ok: bool = True

    @property
    def label(self) -> str:
        return "/".join(self.key)

    @property
    def latest(self) -> Optional[float]:
        return self.points[-1][1] if self.points else None

    @property
    def best_prior(self) -> Optional[float]:
        """The best value before the latest point."""
        if len(self.points) < 2:
            return None
        prior = [v for _, v in self.points[:-1]]
        return max(prior) if self.better == "higher" else min(prior)

    @property
    def delta_pct(self) -> Optional[float]:
        """Latest vs best prior, in percent of the best prior."""
        best = self.best_prior
        if not best:
            return None
        return (self.latest - best) / best * 100.0

    def regressed(self, threshold_pct: float) -> bool:
        """The latest run was incorrect, or its point is worse than the
        best prior by more than ``threshold_pct`` percent."""
        if not self.ok:
            return True
        delta = self.delta_pct
        if delta is None:
            return False
        worse = -delta if self.better == "higher" else delta
        return worse > abs(threshold_pct)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": list(self.key),
            "better": self.better,
            "points": [{"stamp": t, "value": v} for t, v in self.points],
            "ok": self.ok,
            "latest": self.latest,
            "best_prior": self.best_prior,
            "delta_pct": self.delta_pct,
        }


def _e2e_points(entry: Dict[str, Any]) -> Iterator[tuple]:
    result = entry["result"]
    if entry.get("trace") != 0 or not isinstance(result, dict):
        return
    try:
        value = float(result["metrics"]["norm_wall_s"]["value"])
    except (KeyError, TypeError, ValueError):
        value = None
    key = (str(entry.get("workload", "?")), f"seed {entry.get('seed') or 0}")
    yield key, "lower", value, result.get("correct") is True


def _hotpath_points(entry: Dict[str, Any]) -> Iterator[tuple]:
    rates, refs = entry.get("accesses_per_sec"), entry.get("host_ref_ms")
    if not isinstance(rates, dict) or not isinstance(refs, dict):
        return
    for spec, per_policy in sorted(rates.items()):
        for policy, per_path in sorted(per_policy.items()):
            for path, rate in sorted(per_path.items()):
                try:
                    value = float(rate) * float(refs[spec][policy][path])
                except (KeyError, TypeError, ValueError):
                    continue
                yield (policy, path, spec), "higher", value, True


def bench_trend(doc: Dict[str, Any]) -> List[Series]:
    """Every series in a parsed ``BENCH_e2e.json`` or
    ``BENCH_hotpath.json`` document, sorted by key."""
    if not isinstance(doc, dict):
        raise TelemetryError("bench trend needs a parsed BENCH_*.json dict")
    found: Dict[tuple, Series] = {}
    for entry in doc.get("entries", []):
        if not isinstance(entry, dict):
            continue
        if "result" in entry:
            points = _e2e_points(entry)
            stamp = str(entry.get("sha", "?"))[:7]
        elif "paths" in entry:
            points = _hotpath_points(entry)
            stamp = str(entry.get("timestamp", "?"))
        else:
            continue
        for key, better, value, ok in points:
            series = found.setdefault(key, Series(key, better))
            if value is not None and ok:
                series.points.append((stamp, value))
            series.ok = ok
    return sorted(found.values(), key=lambda s: s.key)


def regressions(series: List[Series], threshold_pct: float) -> List[Series]:
    """The series whose latest point regressed beyond the tolerance."""
    return [s for s in series if s.regressed(threshold_pct)]


def trend_rows(series: List[Series], threshold_pct: Optional[float] = None) -> List[list]:
    """CLI table rows: series, n, latest, best prior, delta."""

    def num(value: Optional[float]) -> str:
        if value is None:
            return "-"
        return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"

    rows: List[list] = []
    for s in series:
        delta = s.delta_pct
        verdict = "-" if delta is None else f"{delta:+.1f}%"
        if not s.ok:
            verdict += " INCORRECT"
        elif threshold_pct is not None and s.regressed(threshold_pct):
            verdict += " REGRESSION"
        rows.append([
            s.label,
            len(s.points),
            num(s.latest),
            num(s.best_prior),
            verdict,
        ])
    return rows
