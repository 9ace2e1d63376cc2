"""Speed verdicts over the pair records of ``BENCH_e2e.json``.

A pair record (``benchmarks/bench_e2e.py --checkout PARENT --pairs N``;
it has ``"pair"``) holds a paired, interleaved before/after: N runs of
the parent and N of the change per workload and seed, back to back with
the order swapped every pair, so both sides of a pair see the same host
phase. It is the unit of a speed claim, and it is judged on its own,
with no comparison across records or days: :func:`bench_pairs` reads
each as a :class:`Pair`, which regresses when its median change/parent
``norm_wall_s`` ratio is above ``1 + REGRESSION_PCT/100`` or its change
side ran incorrectly. ``repro bench pairs`` lists the verdicts (and
exits 1 on a regressed pair; the CI guard), and ``repro report``'s
bench card shows the same ones.

Every other entry (single perfbench runs, ``BENCH_hotpath.json``) is a
record of what was measured; no verdict reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import TelemetryError

#: The one regression tolerance, in percent: a pair whose median
#: change/parent ratio is above ``1 + REGRESSION_PCT/100`` regressed.
REGRESSION_PCT = 15.0


@dataclass(frozen=True)
class Pair:
    """One paired before/after record of ``BENCH_e2e.json``."""

    label: str
    #: median change/parent ``norm_wall_s``; lower is better
    median_ratio: float
    change_wins: int
    pairs: int
    correct: bool
    #: interquartile range of the parent's ``norm_wall_s`` runs (None in
    #: records written before it was kept)
    parent_iqr: Optional[float] = None

    @property
    def regressed(self) -> bool:
        return not self.correct or self.median_ratio > 1.0 + REGRESSION_PCT / 100.0

    @property
    def verdict(self) -> str:
        if not self.correct:
            return "INCORRECT"
        return "REGRESSION" if self.regressed else "ok"


def bench_pairs(doc: Dict[str, Any]) -> List[Pair]:
    """Every pair record of a parsed ``BENCH_e2e.json`` document, in
    file order; an unreadable ratio reads as infinitely worse."""
    if not isinstance(doc, dict):
        raise TelemetryError("bench pairs needs a parsed BENCH_e2e.json dict")
    found: List[Pair] = []
    for entry in doc.get("entries", []):
        pair = entry.get("pair") if isinstance(entry, dict) else None
        if not isinstance(pair, dict):
            continue
        try:
            ratio = float(pair["median_ratio"])
        except (KeyError, TypeError, ValueError):
            ratio = float("inf")
        parent = str((entry.get("parent") or {}).get("sha", "?"))[:7]
        found.append(Pair(
            label=f"{entry.get('workload', '?')}/seed {pair.get('seed') or 0} vs {parent}",
            median_ratio=ratio,
            change_wins=int(pair.get("change_wins") or 0),
            pairs=int(pair.get("pairs") or 0),
            correct=(entry.get("change") or {}).get("correct") is not False,
            parent_iqr=pair.get("parent_iqr"),
        ))
    return found
