"""Static HTML fleet dashboard rendered from the run ledger.

:func:`render_dashboard` produces one **self-contained** HTML file —
inline CSS, no scripts, no external fetches — from a
:class:`~repro.obs.ledger.RunLedger` plus (optionally) the
``BENCH_hotpath.json`` document and an invariant-check report. It is
the paper's own evaluation shape turned into an operational view:
policy-grid summary tables (the Fig. 14/15 axes), job throughput and
latency histograms, invariant status, span hot spots, and the per-PR
bench trend with regression highlighting.

Chart conventions (kept deliberately boring so the data is the loud
part): single-series charts use one accent hue with no legend; the
bench trend's two backend columns use the first two categorical slots
(blue = object, orange = soa, which only entries from before the numpy
layout was removed hold) with a legend; pass/fail status uses the
reserved status palette *with* a textual badge so color never carries
meaning alone; all text wears text tokens, never a series color; dark
mode is its own selected steps behind ``prefers-color-scheme``, not an
automatic inversion. Bars are thin with a rounded data-end and grow
from a hairline baseline; values are labeled selectively (extremes)
with the rest on native ``title`` tooltips and in the adjacent tables.
"""

from __future__ import annotations

import html
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .ledger import RunLedger
from .spans import summarize_spans
from .trend import TrendCell, bench_trend

#: Metrics the policy grid renders, with direction (is lower better?).
GRID_METRICS: Tuple[Tuple[str, str, bool], ...] = (
    ("epi", "Energy per instruction (nJ)", True),
    ("mpki", "LLC misses per kilo-instruction", True),
    ("llc_writes", "LLC writes", True),
    ("llc_hit_rate", "LLC hit rate", False),
)

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px 28px 48px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--ink);
  font-size: 14px; line-height: 1.45;
}
.viz-root {
  --page: #f9f9f7; --surface: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834;
  --seq-150: #b7d3f6; --seq-300: #6da7ec;
  --good: #0ca30c; --warning: #fab219; --critical: #d03b3b;
  --good-text: #006300;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --page: #0d0d0d; --surface: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926;
    --seq-150: #184f95; --seq-300: #1c5cab;
    --good-text: #0ca30c;
  }
}
h1 { font-size: 22px; font-weight: 650; margin: 0 0 2px; }
h2 { font-size: 15px; font-weight: 650; margin: 34px 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 18px 0 6px; }
.tile {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 10px; padding: 12px 16px; min-width: 128px;
}
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 24px; font-weight: 600; margin-top: 2px; }
.tile .delta { font-size: 12px; color: var(--ink-2); margin-top: 2px; }
.card {
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 10px; padding: 14px 16px; margin: 10px 0;
}
table { border-collapse: collapse; width: 100%; }
th, td { text-align: right; padding: 5px 10px; font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; border-bottom: 1px solid var(--grid); }
th:first-child, td:first-child { text-align: left; }
tr + tr td { border-top: 1px solid var(--grid); }
td.best { font-weight: 650; }
td.best::after { content: " \\25C2"; color: var(--series-1); }
.note { color: var(--muted); font-size: 12px; margin-top: 8px; }
.badge {
  display: inline-block; padding: 1px 8px; border-radius: 999px;
  font-size: 12px; font-weight: 600; border: 1px solid var(--border);
}
.badge.ok   { color: var(--good-text); }
.badge.fail { color: var(--critical); }
.badge.warn { color: var(--ink-2); }
.chart { display: flex; align-items: flex-end; gap: 6px; height: 120px;
         padding: 6px 2px 0; border-bottom: 1px solid var(--baseline); }
.chart .col { display: flex; flex-direction: column; justify-content: flex-end;
              align-items: center; flex: 0 1 28px; height: 100%; }
.chart .bar { width: 100%; max-width: 24px;
              border-radius: 4px 4px 0 0; background: var(--series-1); }
.chart .bar.alt { background: var(--series-2); }
.chart .bar.down { background: var(--critical); }
.chart .cap { font-size: 11px; color: var(--ink-2); margin-bottom: 3px;
              white-space: nowrap; }
.xlabels { display: flex; gap: 6px; padding: 4px 2px 0; }
.xlabels span { flex: 0 1 28px; max-width: 28px; text-align: center;
                font-size: 10px; color: var(--muted); overflow: hidden; }
.legend { display: flex; gap: 16px; margin: 6px 0 2px; font-size: 12px;
          color: var(--ink-2); }
.key { display: inline-block; width: 10px; height: 10px; border-radius: 3px;
       margin-right: 5px; vertical-align: -1px; background: var(--series-1); }
.key.alt { background: var(--series-2); }
.grid-wrap { display: grid; grid-template-columns: repeat(auto-fit, minmax(300px, 1fr));
             gap: 12px; }
.multiples { display: grid; grid-template-columns: repeat(auto-fit, minmax(240px, 1fr));
             gap: 12px; }
.mono { font-family: ui-monospace, SFMono-Regular, Menlo, monospace; font-size: 12px; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: float) -> str:
    """Compact numeric formatting for cells and labels."""
    if value != value:
        return "nan"
    a = abs(value)
    if a >= 1e9:
        return f"{value / 1e9:.2f}B"
    if a >= 1e6:
        return f"{value / 1e6:.2f}M"
    if a >= 1e4:
        return f"{value / 1e3:.1f}K"
    if a >= 100 or value == int(value):
        return f"{value:,.0f}"
    if a >= 1:
        return f"{value:.3g}"
    return f"{value:.3g}"


def _tile(label: str, value: str, delta: Optional[str] = None) -> str:
    delta_html = f'<div class="delta">{_esc(delta)}</div>' if delta else ""
    return (
        f'<div class="tile"><div class="label">{_esc(label)}</div>'
        f'<div class="value">{_esc(value)}</div>{delta_html}</div>'
    )


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]],
           raw: bool = False) -> str:
    """Plain table; ``raw=True`` trusts cell strings as HTML."""
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = []
    for row in rows:
        cells = "".join(
            (cell if raw else f"<td>{_esc(cell)}</td>") for cell in row
        )
        body.append(f"<tr>{cells}</tr>")
    return f"<table><thead><tr>{head}</tr></thead><tbody>{''.join(body)}</tbody></table>"


# ----------------------------------------------------------------------
# chart pieces (pure HTML/CSS)
# ----------------------------------------------------------------------
def _columns(
    values: Sequence[float],
    labels: Sequence[str],
    titles: Sequence[str],
    classes: Optional[Sequence[str]] = None,
    label_max_only: bool = True,
) -> str:
    """A column chart: thin bars, rounded data-end, hairline baseline.

    Values are labeled selectively — the extreme only — with every
    column carrying a native tooltip (``title``) for the rest.
    """
    if not values:
        return '<p class="note">no data</p>'
    peak = max(values) or 1.0
    vmax = max(values)
    cols = []
    for i, v in enumerate(values):
        height = max(2, round(v / peak * 100))
        cap = ""
        if not label_max_only or (v == vmax and v > 0):
            cap = f'<div class="cap">{_esc(_fmt(v))}</div>'
        cls = "bar" if classes is None else f"bar {classes[i]}".strip()
        cols.append(
            f'<div class="col" title="{_esc(titles[i])}">{cap}'
            f'<div class="{cls}" style="height:{height}%"></div></div>'
        )
    xlabels = "".join(f"<span>{_esc(lbl)}</span>" for lbl in labels)
    return (
        f'<div class="chart">{"".join(cols)}</div>'
        f'<div class="xlabels">{xlabels}</div>'
    )


def _histogram(values: Sequence[float], unit: str, bins: int = 12) -> str:
    """Bucket ``values`` into ``bins`` equal-width bins and chart them."""
    finite = [v for v in values if v == v and v >= 0]
    if not finite:
        return '<p class="note">no data</p>'
    lo, hi = min(finite), max(finite)
    if hi <= lo:
        hi = lo + (abs(lo) or 1.0)
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in finite:
        idx = min(bins - 1, int((v - lo) / width))
        counts[idx] += 1
    labels = []
    titles = []
    for i in range(bins):
        left, right = lo + i * width, lo + (i + 1) * width
        labels.append(_fmt(left))
        titles.append(
            f"{counts[i]} job(s) in [{_fmt(left)}, {_fmt(right)}) {unit}"
        )
    return _columns([float(c) for c in counts], labels, titles)


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------
def _section_tiles(ledger: RunLedger) -> str:
    hit_share = ledger.cache_hit_share()
    tiles = [
        _tile("Jobs in ledger", _fmt(len(ledger.rows))),
        _tile("Workloads", _fmt(len(ledger.workloads()))),
        _tile("Policies", _fmt(len(ledger.policies()))),
        _tile(
            "Cache-hit share",
            "-" if hit_share is None else f"{hit_share * 100:.0f}%",
            "jobs answered without simulating",
        ),
        _tile("Simulated accesses", _fmt(ledger.simulated_accesses())),
        _tile("Job wall time", f"{ledger.total_wall_s():.2f}s",
              f"{ledger.total_retries()} retr{'y' if ledger.total_retries() == 1 else 'ies'}"),
    ]
    return f'<div class="tiles">{"".join(tiles)}</div>'


def _section_policy_grids(ledger: RunLedger) -> str:
    cards = []
    policies = ledger.policies()
    for metric, caption, lower_better in GRID_METRICS:
        grid = ledger.grid(metric)
        if not grid:
            continue
        rows = []
        for workload in sorted(grid):
            cells = [f"<td>{_esc(workload)}</td>"]
            values = grid[workload]
            present = [v for v in values.values() if v == v]
            best = (min(present) if lower_better else max(present)) if present else None
            for policy in policies:
                v = values.get(policy)
                if v is None:
                    cells.append("<td>-</td>")
                    continue
                cls = ' class="best"' if best is not None and v == best else ""
                cells.append(f"<td{cls}>{_esc(_fmt(v))}</td>")
            rows.append(cells)
        cards.append(
            f'<div class="card"><h2 style="margin-top:0">{_esc(caption)}</h2>'
            + _table(["workload", *policies], rows, raw=True)
            + '<p class="note">◂ marks the best policy per row '
            + f"({'lower' if lower_better else 'higher'} is better)</p></div>"
        )
    if not cards:
        return (
            '<div class="card"><p class="note">no result metrics in the '
            "scanned directories (manifest-only rows)</p></div>"
        )
    return f'<div class="grid-wrap">{"".join(cards)}</div>'


def _section_perf(ledger: RunLedger) -> str:
    sim_rows = [r for r in ledger.rows if r.source not in ("cache", "disk")]
    walls = [r.wall_s for r in sim_rows if r.wall_s > 0]
    rates = [r.accesses_per_s for r in sim_rows if r.accesses_per_s > 0]
    return (
        '<div class="grid-wrap">'
        '<div class="card"><h2 style="margin-top:0">Job latency</h2>'
        + _histogram(walls, "s")
        + '<p class="note">wall seconds per simulated job (cache hits excluded)</p></div>'
        '<div class="card"><h2 style="margin-top:0">Job throughput</h2>'
        + _histogram(rates, "accesses/s")
        + '<p class="note">simulated accesses per second per job</p></div>'
        "</div>"
    )


def _badge(ok: Optional[bool], text: str) -> str:
    if ok is None:
        return f'<span class="badge warn">○ {_esc(text)}</span>'
    cls = "ok" if ok else "fail"
    icon = "✓" if ok else "✗"
    return f'<span class="badge {cls}">{icon} {_esc(text)}</span>'


def _section_invariants(check_rows: Optional[Sequence[Tuple[str, Optional[bool], str]]]) -> str:
    if check_rows is None:
        return (
            '<div class="card">'
            + _badge(None, "not run")
            + ' <span class="note">invariant checks were skipped '
            "(re-run without --no-check)</span></div>"
        )
    rows = []
    for name, ok, detail in check_rows:
        rows.append([
            f"<td>{_esc(name)}</td>",
            f'<td style="text-align:left">{_badge(ok, "pass" if ok else "FAIL")}</td>',
            f'<td style="text-align:left">{_esc(detail)}</td>',
        ])
    failed = sum(1 for _, ok, _ in check_rows if not ok)
    verdict = _badge(failed == 0,
                     "all checks passed" if failed == 0 else f"{failed} check(s) failed")
    return (
        f'<div class="card">{verdict}'
        + _table(["check", "status", "detail"], rows, raw=True)
        + "</div>"
    )


def _section_provenance(ledger: RunLedger) -> str:
    source_rows = [[k, _fmt(v)] for k, v in sorted(ledger.by_source().items())]
    dirs = "".join(f'<div class="mono">{_esc(d)}</div>' for d in ledger.dirs)
    problems = ""
    if ledger.problems:
        items = "".join(f"<li>{_esc(p)}</li>" for p in ledger.problems[:20])
        problems = (
            f'<p class="note">{len(ledger.problems)} scan problem(s):</p>'
            f'<ul class="note">{items}</ul>'
        )
    return (
        '<div class="card"><h2 style="margin-top:0">Result provenance</h2>'
        + _table(["source", "jobs"], source_rows)
        + '<p class="note">cache = warm result-cache hit; pool/serial = freshly '
        "simulated; disk = cache entry with no manifest row</p></div>"
        f'<div class="card"><h2 style="margin-top:0">Scanned directories</h2>{dirs}'
        f"{problems}</div>"
    )


def _section_spans(ledger: RunLedger) -> str:
    if not ledger.spans:
        return ""
    summary = summarize_spans(ledger.spans)
    ranked = sorted(summary.items(), key=lambda kv: -kv[1]["wall_s"])[:12]
    rows = [
        [name, _fmt(s["count"]), f"{s['wall_s']:.3f}",
         f"{s['mean_wall_s'] * 1e3:.1f}", f"{s['cpu_s']:.3f}"]
        for name, s in ranked
    ]
    return (
        '<h2>Span hot spots</h2><div class="card">'
        + _table(["span", "count", "total wall (s)", "mean (ms)", "cpu (s)"], rows)
        + f'<p class="note">{len(ledger.spans)} span(s) from spans.jsonl; '
        "top 12 by total wall time</p></div>"
    )


def _section_bench(bench_doc: Optional[Dict[str, Any]],
                   regression_pct: Optional[float]) -> str:
    if not bench_doc:
        return ""
    cells = bench_trend(bench_doc)
    cells = [c for c in cells if c.series]
    if not cells:
        return ""
    multiples = []
    any_regressed = False
    for cell in cells:
        values = [v for _, v in cell.series]
        stamps = [t for t, _ in cell.series]
        classes = []
        for i in range(len(values)):
            cls = "alt" if cell.backend == "soa" else ""
            if (
                i == len(values) - 1
                and regression_pct is not None
                and cell.regressed(regression_pct)
            ):
                cls = "down"
                any_regressed = True
            classes.append(cls)
        titles = [
            f"{cell.label} @ {t}: {_fmt(v)} accesses/s"
            for t, v in cell.series
        ]
        labels = [t[5:10] if len(t) >= 10 else t for t in stamps]
        delta = cell.delta_pct
        delta_text = "" if delta is None else f" ({delta:+.1f}% vs best prior)"
        multiples.append(
            f'<div class="card"><h2 style="margin-top:0">{_esc(cell.policy)} '
            f"· {_esc(cell.backend)} · {_esc(cell.instrumentation)}"
            f"{_esc(delta_text)}</h2>"
            + _columns(values, labels, titles, classes)
            + "</div>"
        )
    legend = (
        '<div class="legend">'
        '<span><span class="key"></span>object backend</span>'
        '<span><span class="key alt"></span>soa backend</span>'
        "</div>"
    )
    header = ""
    if regression_pct is not None:
        header = _badge(
            not any_regressed,
            "no bench regressions" if not any_regressed
            else f"regression beyond {regression_pct:g}% tolerance",
        )
    return (
        f"<h2>Hot-path bench trend</h2>{header}{legend}"
        f'<div class="multiples">{"".join(multiples)}</div>'
        '<p class="note">accesses/sec per BENCH_hotpath.json entry, '
        "chronological; the latest column turns red when it falls beyond "
        "the regression tolerance below the cell's best prior value</p>"
    )


# ----------------------------------------------------------------------
# the document
# ----------------------------------------------------------------------
def render_dashboard(
    ledger: RunLedger,
    bench_doc: Optional[Dict[str, Any]] = None,
    check_rows: Optional[Sequence[Tuple[str, Optional[bool], str]]] = None,
    title: str = "repro fleet report",
    regression_pct: Optional[float] = 10.0,
) -> str:
    """The complete self-contained dashboard document as a string."""
    generated = time.strftime("%Y-%m-%d %H:%M:%SZ", time.gmtime())
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        '<meta name="viewport" content="width=device-width, initial-scale=1">',
        f"<style>{_CSS}</style></head>",
        '<body class="viz-root"><main>',
        f"<h1>{_esc(title)}</h1>",
        f'<p class="sub">generated {generated} · '
        f"{len(ledger.rows)} job(s) across {len(ledger.dirs)} "
        f"director{'y' if len(ledger.dirs) == 1 else 'ies'}</p>",
        _section_tiles(ledger),
        "<h2>Policy grids</h2>",
        _section_policy_grids(ledger),
        "<h2>Execution performance</h2>",
        _section_perf(ledger),
        "<h2>Invariant checks</h2>",
        _section_invariants(check_rows),
        _section_bench(bench_doc, regression_pct),
        _section_spans(ledger),
        "<h2>Provenance</h2>",
        _section_provenance(ledger),
        "</main></body></html>",
    ]
    return "\n".join(p for p in parts if p)
