"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Enumerate registered policies, workloads, and technologies.
``run``
    Simulate one (workload, policy) pair and print the metric summary.
``compare``
    Run several policies against bit-identical traces and print a
    normalised comparison table.
``characterize``
    Measure the Section II workload characteristics (loop-block
    fraction, redundant fills, WL/WH class) for named benchmarks.
``figure``
    Regenerate one of the paper's figures by id (e.g. ``fig14``).
``report``
    Assemble a markdown experiment record from the benchmark harness's
    result files (``benchmarks/results``) — or, with ``--out`` /
    ``--cache-dir``, render the self-contained HTML fleet dashboard
    from one or more result-cache directories (``repro.obs``): policy
    grids, throughput/latency histograms, invariant status, span hot
    spots, and the bench trend with regression highlighting.
``validate-workloads``
    Re-measure every synthetic benchmark's declared traits.
``sweep``
    Run a workloads x policies grid on one system and export CSV.
``cache``
    Inspect (``stats``, optionally ``--json``) or empty (``clear``)
    the result cache.
``trace``
    The flight recorder: ``record`` a simulation's cache-event stream
    to compressed JSONL, ``summarize`` a recording, or ``diff`` two
    recordings (first divergence + per-event-type deltas).
``check``
    Machine-check the simulator's per-policy invariants
    (``repro.validate``): deterministic invariant + differential
    stages, plus ``--fuzz N`` randomized cases with failure shrinking.
``suite``
    Named benchmark sets (``repro.suite``): ``list`` the registry
    (Table III mixes, SPEC-like int/fp splits, trait families, trace
    corpora) or ``run`` one set through the exec pool with
    per-benchmark error surfacing and a geomean summary normalised to
    the baseline policy.
``corpus``
    The content-addressed trace store (``repro.workloads.corpus``):
    ``add`` archives (verified before ingest), ``list`` entries,
    ``verify`` every stored trace against its manifest and checksums,
    or ``capture`` a synthetic workload's streams straight into the
    corpus.

Every command accepts ``--refs``, ``--seed`` and system-shape flags so
sweeps can be scripted from the shell; all output is plain ASCII.

Three *global* options (they precede the subcommand) drive the
execution engine and tracing: ``--jobs N`` fans grid commands out
over N worker processes, ``--cache-dir PATH`` memoises every
spec-described simulation in a content-addressed on-disk cache
(``$REPRO_CACHE_DIR`` is honoured when the flag is absent), and
``--spans PATH`` turns on span tracing
for the command and dumps the trace as JSONL (``$REPRO_SPANS`` enables
tracing without a dump path; the exec pool then writes ``spans.jsonl``
next to ``manifest.json``), e.g.::

    python -m repro --jobs 4 --cache-dir ~/.repro-cache sweep --workloads WL2,WH1
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import make_workload, simulate
from .analysis import classify_wl_wh, favors_exclusion, render_mapping_table, render_table
from .energy import SRAM, STT_RAM
from .errors import ReproError
from .exec import (
    ResultCache,
    WorkloadSpec,
    cache_from_env,
    get_active_cache,
    set_active_cache,
)
from .sim import SystemConfig, run_policies
from .workloads import PARSEC_ORDER, TABLE3_ORDER, benchmark_names

FIGURES = {
    "fig2": "fig2_motivation",
    "fig4": "fig4_loop_blocks",
    "fig6": "fig6_redundant_fill",
    "fig12": "fig12_noni_vs_ex",
    "fig13": "fig13_scatter",
    "fig14": "fig14_policy_comparison",
    "fig15": "fig15_write_breakdown",
    "fig16": "fig16_loop_occupancy",
    "fig17": "fig17_redundant_fill_mixes",
    "fig18": "fig18_mpki",
    "fig19": "fig19_lap_variants",
    "fig20": "fig20_multithreaded",
    "fig21": "fig21_capacity_ratio",
    "fig22": "fig22_core_count",
    "fig23": "fig23_energy_ratio",
    "fig24": "fig24_hybrid",
    "fig25": "fig25_lhybrid_stages",
}


def _add_system_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tech", choices=("stt", "sram"), default="stt",
                        help="LLC technology (default: stt)")
    parser.add_argument("--ratio", type=float, default=None,
                        help="override the STT write/read energy ratio")
    parser.add_argument("--hybrid", action="store_true",
                        help="hybrid SRAM/STT-RAM LLC (Table II split)")
    parser.add_argument("--ncores", type=int, default=4)
    parser.add_argument("--llc-kb", type=int, default=128)
    parser.add_argument("--l2-kb", type=int, default=8)
    parser.add_argument("--refs", type=int, default=20_000,
                        help="memory references per core (default: 20000)")
    parser.add_argument("--seed", type=int, default=0)


def _system_from(args: argparse.Namespace) -> SystemConfig:
    tech = SRAM if args.tech == "sram" else STT_RAM
    if args.ratio is not None:
        if args.tech == "sram":
            raise ReproError("--ratio only applies to the STT technology")
        tech = STT_RAM.with_write_read_ratio(args.ratio)
    return SystemConfig.scaled(
        ncores=args.ncores,
        tech=tech,
        hybrid=args.hybrid,
        llc_kb=args.llc_kb,
        l2_kb=args.l2_kb,
    )


def _cmd_list(args: argparse.Namespace) -> int:
    from .arena import registry

    rows = []
    for entry in registry.catalog_rows():
        sets = ",".join(
            label
            for label, member in (
                ("arena", entry["arena"]),
                ("check", entry["check_default"]),
                ("hybrid", entry["hybrid_only"]),
            )
            if member
        )
        rows.append([
            entry["name"],
            entry["aliases"] or "-",
            entry["kernel"],
            sets or "-",
            f"{entry['paper']} {entry['anchor']}",
        ])
    print(render_table(
        "policies (registry catalog; details in DESIGN.md section 15)",
        ["name", "aliases", "kernel", "sets", "paper anchor"],
        rows,
    ))
    print()
    rows = (
        [[m, "Table III mix"] for m in TABLE3_ORDER]
        + [[b, "SPEC-like benchmark (duplicate copies)"] for b in benchmark_names()]
        + [[p, "PARSEC-like multithreaded workload"] for p in PARSEC_ORDER]
    )
    print(render_table("workloads", ["name", "kind"], rows))
    print()
    rows = [
        ["sram", SRAM.read_energy_nj, SRAM.write_energy_nj, SRAM.leakage_mw_per_mb],
        ["stt", STT_RAM.read_energy_nj, STT_RAM.write_energy_nj, STT_RAM.leakage_mw_per_mb],
    ]
    print(render_table("technologies", ["name", "read nJ", "write nJ", "leak mW/MB"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    system = _system_from(args)
    workload = make_workload(args.workload, system, seed=args.seed)
    result = simulate(system, args.policy, workload, refs_per_core=args.refs)
    summary = result.summary()
    summary["snoop_traffic"] = float(result.snoop_traffic)
    summary["cycles"] = float(result.cycles)
    if args.json:
        print(json.dumps({"workload": args.workload, "policy": args.policy, **summary}, indent=2))
    else:
        print(render_table(
            f"{args.workload} under {args.policy} on {system.label}",
            ["metric", "value"],
            [[k, v] for k, v in summary.items()],
        ))
    return 0


def _policy_list(spec: str, hybrid: bool = False) -> tuple:
    """Split a ``--policies`` value, expanding the ``arena`` token to
    the registry's arena-grid set and validating every name."""
    from .analysis.arena import arena_policies
    from .arena import registry

    names = []
    for name in spec.split(","):
        name = name.strip()
        if name == "arena":
            names.extend(arena_policies(hybrid=hybrid))
        elif name:
            names.append(name)
    # de-dupe after canonicalisation, keeping first occurrence
    return tuple(dict.fromkeys(registry.validate_names(names)))


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis.arena import grid_rows

    system = _system_from(args)
    if args.arena:
        policies = _policy_list("arena", hybrid=args.hybrid)
    else:
        policies = _policy_list(args.policies, hybrid=args.hybrid)
    spec = WorkloadSpec.named(args.workload, system.hierarchy.ncores, args.seed)
    results = run_policies(system, policies, spec, args.refs)
    if args.arena:
        print(render_mapping_table(
            f"arena grid: {args.workload} on {system.label} "
            f"(normalised to {policies[0]}; write classes as share of "
            "its total LLC writes)",
            grid_rows(results),
            row_label="policy",
        ))
        return 0
    baseline = results[policies[0]]
    rows = {}
    for policy, r in results.items():
        rows[policy] = {
            "epi": r.epi / baseline.epi,
            "dynamic_epi": r.dynamic_epi / max(1e-30, baseline.dynamic_epi),
            "llc_writes": r.llc_writes / max(1, baseline.llc_writes),
            "mpki": r.mpki / max(1e-30, baseline.mpki),
            "throughput": r.throughput / max(1e-30, baseline.throughput),
        }
    print(render_mapping_table(
        f"{args.workload} on {system.label} (normalised to {policies[0]})",
        rows,
        row_label="policy",
    ))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    system = _system_from(args)
    rows = []
    benches = args.benchmarks or list(benchmark_names())
    for bench in benches:
        spec = WorkloadSpec.named(bench, system.hierarchy.ncores, args.seed)
        runs = run_policies(system, ("non-inclusive", "exclusive"), spec, args.refs)
        noni, ex = runs["non-inclusive"], runs["exclusive"]
        rows.append([
            bench,
            noni.loop_block_fraction,
            noni.redundant_fill_fraction,
            ex.llc_misses / max(1, noni.llc_misses),
            ex.llc_writes / max(1, noni.llc_writes),
            classify_wl_wh(noni, ex),
            "exclusive" if favors_exclusion(noni, ex) else "non-inclusive",
        ])
    print(render_table(
        "workload characterisation (paper Figs. 2/4/6)",
        ["benchmark", "loop_frac", "redundant_fill", "Mrel", "Wrel", "class", "favours"],
        rows,
    ))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .analysis import figures as F

    name = args.name.lower()
    if name not in FIGURES:
        raise ReproError(f"unknown figure {args.name!r}; known: {sorted(FIGURES)}")
    fn = getattr(F, FIGURES[name])
    out = fn(refs=args.refs)
    blocks = out if isinstance(out, tuple) else (out,)
    for i, rows in enumerate(blocks):
        if not rows:
            continue
        print(render_mapping_table(f"{name} [{i}]", rows, row_label="row"))
        print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    # HTML fleet-dashboard mode only on an explicit ask (--out or a
    # sub-level --cache-dir); the bare command keeps producing the
    # legacy markdown record from benchmarks/results.
    if getattr(args, "out", None) or getattr(args, "cache_dirs", None):
        return _cmd_report_html(args)
    from .analysis.report import assemble_report, missing_results

    text = assemble_report(args.results_dir)
    if args.output:
        import pathlib

        pathlib.Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    missing = missing_results(args.results_dir)
    if missing:
        print(f"\nnote: {len(missing)} experiments not yet regenerated: "
              f"{', '.join(missing)}", file=sys.stderr)
    return 0


def _cmd_report_html(args: argparse.Namespace) -> int:
    """The ``repro.obs`` path: scan cache dirs, render the dashboard."""
    import pathlib

    from .bench import load_bench_file
    from .obs.dashboard import render_dashboard
    from .obs.ledger import scan_dirs

    dirs = list(args.cache_dirs or ())
    if not dirs:
        cache = get_active_cache()
        if cache is None:
            raise ReproError(
                "no result-cache directory to scan: pass --cache-dir "
                "(repeatable) or set $REPRO_CACHE_DIR"
            )
        dirs = [str(cache.root)]
    ledger = scan_dirs(dirs)
    print(
        f"scanned {len(dirs)} director{'y' if len(dirs) == 1 else 'ies'}: "
        f"{len(ledger.rows)} job(s), {len(ledger.spans)} span(s), "
        f"{len(ledger.problems)} problem(s)",
        file=sys.stderr,
    )

    bench_doc = None
    bench_path = pathlib.Path(args.bench)
    if bench_path.exists():
        bench_doc = load_bench_file(bench_path)

    check_rows = None
    if not args.no_check:
        from .validate import run_checks

        policies = sorted(
            {r.policy for r in ledger.rows if r.policy != "?"}
        ) or None
        print(
            f"running invariant checks ({args.check_refs} refs"
            f"{', ' + str(len(policies)) + ' swept policies' if policies else ''})"
            " ...",
            file=sys.stderr,
        )
        if policies:
            report = run_checks(
                tuple(policies), refs=args.check_refs, coherence="off"
            )
        else:  # empty ledger: check the default policy set anyway
            report = run_checks(refs=args.check_refs, coherence="off")
        check_rows = [(e.name, e.ok, e.detail) for e in report.entries]

    html = render_dashboard(
        ledger,
        bench_doc=bench_doc,
        check_rows=check_rows,
        regression_pct=args.regression_pct,
    )
    out = pathlib.Path(args.out or "report.html")
    out.write_text(html)
    print(f"dashboard written to {out} ({len(html)} bytes)")
    if args.ledger:
        pathlib.Path(args.ledger).write_text(ledger.to_json() + "\n")
        print(f"ledger written to {args.ledger}")
    if check_rows is not None and any(not ok for _, ok, _ in check_rows):
        print("invariant checks FAILED (see dashboard)", file=sys.stderr)
        return 1
    return 0


def _cmd_validate_workloads(args: argparse.Namespace) -> int:
    from .workloads.validation import validate_all, violations

    system = _system_from(args)
    reports = validate_all(system, refs=args.refs)
    rows = [
        [
            r.benchmark,
            r.loop_fraction,
            r.redundant_fill_fraction,
            r.mrel,
            r.wrel,
            "; ".join(r.violations) or "ok",
        ]
        for r in reports.values()
    ]
    print(render_table(
        "workload-model validation against declared traits",
        ["benchmark", "loop_frac", "redundant_fill", "Mrel", "Wrel", "verdict"],
        rows,
    ))
    bad = violations(reports)
    if bad:
        print(f"\n{len(bad)} benchmark(s) violate their declared traits",
              file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .sim.sweeps import Sweep, records_to_csv

    system = _system_from(args)
    sweep = Sweep(
        systems={system.label: system},
        workloads={
            name: WorkloadSpec.named(name, system.hierarchy.ncores, args.seed)
            for name in args.workloads.split(",")
        },
        policies=_policy_list(args.policies, hybrid=args.hybrid),
        refs_per_core=args.refs,
    )
    jobs = max(1, getattr(args, "jobs", 1))
    cache = get_active_cache()
    print(
        f"running {sweep.size()} simulations "
        f"({'serial' if jobs == 1 else f'{jobs} workers'}"
        f"{', cached' if cache else ''}) ...",
        file=sys.stderr,
    )
    records = sweep.run(
        progress=lambda r: print(f"  {r.workload} / {r.policy} done", file=sys.stderr),
        max_workers=jobs,
        cache=cache,
        heartbeat_interval=args.heartbeat if args.heartbeat > 0 else None,
    )
    if cache is not None:
        print(f"run manifest written to {cache.root / 'manifest.json'}", file=sys.stderr)
    text = records_to_csv(records, args.output)
    if args.output:
        print(f"CSV written to {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = get_active_cache()
    if cache is None:
        raise ReproError(
            "no result cache configured: pass --cache-dir (before the "
            "subcommand) or set $REPRO_CACHE_DIR"
        )
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        return 0
    stats = cache.stats()
    if getattr(args, "json", False):
        print(json.dumps(
            {"directory": str(cache.root), **stats.as_dict()}, indent=2, sort_keys=True
        ))
        return 0
    rows = [["directory", str(cache.root)]] + [
        [k, v] for k, v in stats.as_dict().items()
    ]
    print(render_table("result cache", ["field", "value"], rows))
    return 0


# ----------------------------------------------------------------------
# trace: the flight recorder
# ----------------------------------------------------------------------
def _cmd_trace_record(args: argparse.Namespace) -> int:
    from .obs.diff import summarize_trace
    from .obs.trace import record_simulation

    system = _system_from(args)
    record_simulation(
        args.out,
        system,
        args.policy,
        args.workload,
        refs_per_core=args.refs,
        seed=args.seed,
        events=args.events,
    )
    summary = summarize_trace(args.out)
    print(
        f"recorded {summary.total} event(s) from {args.workload} / "
        f"{args.policy} to {args.out}"
    )
    return 0


def _summary_rows(summary) -> list:
    return [[name, count] for name, count in summary.by_event.items()]


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from .obs.diff import summarize_trace

    summary = summarize_trace(args.path)
    if args.json:
        print(json.dumps(summary.as_dict(), indent=2, sort_keys=True))
        return 0
    meta = summary.meta
    title = (
        f"{args.path}: {meta.get('workload', '?')} / {meta.get('policy', '?')} "
        f"({summary.total} events)"
    )
    print(render_table(title, ["event", "count"], _summary_rows(summary)))
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from .obs.diff import diff_traces

    diff = diff_traces(args.left, args.right)
    if args.json:
        print(json.dumps(diff.as_dict(), indent=2, sort_keys=True))
        return 0
    left_name = diff.left.meta.get("policy") or args.left
    right_name = diff.right.meta.get("policy") or args.right
    rows = [
        [name, l, r, r - l]
        for name, (l, r) in diff.counts.items()
    ]
    rows.append(["total", diff.left.total, diff.right.total,
                 diff.right.total - diff.left.total])
    print(render_table(
        f"trace diff: {left_name} vs {right_name}",
        ["event", left_name, right_name, "delta"],
        rows,
    ))
    print()
    if diff.identical:
        print("streams are identical: zero divergence")
    else:
        print(f"first divergence at {diff.divergence.describe()}")
    return 0


# ----------------------------------------------------------------------
# check: the invariant-validation suite
# ----------------------------------------------------------------------
def _cmd_check(args: argparse.Namespace) -> int:
    from .arena import registry
    from .validate import DEFAULT_POLICIES, run_checks

    # Validate names up front so a typo gets the registry's list +
    # nearest-match suggestion instead of failing mid-suite.
    policies = (
        registry.validate_names(args.policy) if args.policy else DEFAULT_POLICIES
    )
    report = run_checks(
        policies,
        fuzz_rounds=args.fuzz,
        refs=args.refs,
        seed=args.seed,
        coherence=args.coherence,
        interval=args.interval,
        progress=(None if args.quiet else lambda m: print(f"  {m}", file=sys.stderr)),
    )
    print(render_table(
        f"invariant checks ({len(policies)} policies, coherence={args.coherence}"
        + (f", fuzz={args.fuzz}" if args.fuzz else "")
        + ")",
        ["check", "status", "detail"],
        report.as_rows(),
    ))
    if report.ok:
        print(f"\nall {len(report.entries)} check(s) passed")
        return 0
    print(f"\n{len(report.failures)} check(s) FAILED:", file=sys.stderr)
    for entry in report.failures:
        print(f"  {entry.name}: {entry.detail}", file=sys.stderr)
    for failure in report.fuzz_failures:
        print(f"\nreproduction for {failure.case.describe()}:", file=sys.stderr)
        print(failure.repro_snippet(), file=sys.stderr)
    return 1


# ----------------------------------------------------------------------
# bench: hot-path throughput across instrumentation specs
# ----------------------------------------------------------------------
def _cmd_bench(args: argparse.Namespace) -> int:
    if args.action == "trend":
        return _cmd_bench_trend(args)
    from .bench import (
        BENCH_INSTRUMENTATION,
        BENCH_POLICIES,
        append_entry,
        entry_rows,
        run_hotpath_bench,
    )

    policies = tuple(args.policy) if args.policy else BENCH_POLICIES
    if not args.quiet:
        print(
            f"  benchmarking {len(policies)} policies x "
            f"{len(BENCH_INSTRUMENTATION)} instrumentation specs "
            f"({args.refs} refs/core, best of {args.reps})",
            file=sys.stderr,
        )
    entry = run_hotpath_bench(
        policies,
        workload=args.workload,
        refs_per_core=args.refs,
        reps=args.reps,
        seed=args.seed,
    )
    if args.out != "-":
        append_entry(args.out, entry)
    if args.json:
        print(json.dumps(entry, indent=2, sort_keys=True))
    else:
        print(render_table(
            f"hotpath accesses/sec ({entry['workload']}, {entry['timestamp']})",
            ["policy", "instrumentation", *entry["backends"]],
            entry_rows(entry),
        ))
        if args.out != "-":
            print(f"\nappended to {args.out}")
    return 0


def _cmd_bench_trend(args: argparse.Namespace) -> int:
    """``repro bench trend``: per-(policy, backend, instrumentation)
    trajectory over the bench history, latest vs best prior;
    ``--fail-on-regression PCT``
    exits 1 when any cell decayed beyond the tolerance (the CI guard)."""
    import pathlib

    from .bench import load_bench_file
    from .obs.trend import bench_trend, regressions, trend_rows

    path = pathlib.Path(args.out)
    if not path.exists():
        raise ReproError(
            f"no bench history at {path}; run `repro bench` first"
        )
    cells = bench_trend(load_bench_file(path))
    threshold = args.fail_on_regression
    if args.json:
        print(json.dumps(
            {
                "file": str(path),
                "threshold_pct": threshold,
                "cells": [c.as_dict() for c in cells],
                "regressions": [
                    {"policy": c.policy, "backend": c.backend,
                     "instrumentation": c.instrumentation,
                     "delta_pct": c.delta_pct, "basis": c.basis}
                    for c in (regressions(cells, threshold) if threshold else ())
                ],
            },
            indent=2, sort_keys=True,
        ))
    else:
        print(render_table(
            f"bench trend over {path} ({len(cells)} cells, latest vs best prior)",
            ["policy", "backend", "instrumentation", "entries", "latest",
             "best prior", "delta"],
            trend_rows(cells, threshold),
        ))
    if threshold is not None:
        bad = regressions(cells, threshold)
        if bad:
            print(
                f"\n{len(bad)} cell(s) regressed beyond {threshold:g}%:",
                file=sys.stderr,
            )
            for c in bad:
                print(
                    f"  {c.label}: {c.delta_pct:+.1f}% {c.basis} "
                    f"(latest {c.latest:.0f}, best raw prior {c.best_prior:.0f})",
                    file=sys.stderr,
                )
            return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    actions = {
        "record": _cmd_trace_record,
        "summarize": _cmd_trace_summarize,
        "diff": _cmd_trace_diff,
    }
    return actions[args.action](args)


# ----------------------------------------------------------------------
# suite: named benchmark sets through the exec pool
# ----------------------------------------------------------------------
def _corpus_from(args: argparse.Namespace, create: bool = False):
    """The corpus named by ``--corpus``/``--dir`` or $REPRO_CORPUS_DIR.

    A directory given explicitly is also exported to the environment so
    pool workers (fresh processes) resolve the same corpus.
    """
    import os

    from .workloads.corpus import ENV_CORPUS_DIR, TraceCorpus, active_corpus

    directory = getattr(args, "corpus", None) or getattr(args, "dir", None)
    if directory:
        corpus = TraceCorpus(directory, create=create)
        os.environ[ENV_CORPUS_DIR] = str(corpus.root)
        return corpus
    return active_corpus()


def _cmd_suite_list(args: argparse.Namespace) -> int:
    from .suite import sets

    rows = [
        [s.name, ",".join(s.aliases) or "-", len(s), s.kind, s.description]
        for s in sets()
    ]
    rows.append(["corpus", "-", "*", "trace",
                 "every trace in the active corpus (--corpus / $REPRO_CORPUS_DIR)"])
    print(render_table(
        "benchmark sets (repro suite run <set>)",
        ["name", "aliases", "members", "kind", "description"],
        rows,
    ))
    return 0


def _cmd_suite_run(args: argparse.Namespace) -> int:
    from .sim.sweeps import records_to_csv
    from .suite import result_text, run_suite, suite_records, write_result_file

    system = _system_from(args)
    corpus = _corpus_from(args)
    cache = get_active_cache()
    jobs = max(1, getattr(args, "jobs", 1))
    report = run_suite(
        args.set,
        system,
        policies=_policy_list(args.policies, hybrid=args.hybrid),
        refs_per_core=args.refs,
        seed=args.seed,
        max_workers=jobs,
        cache=cache,
        corpus=corpus,
        progress=lambda line: print(f"  {line}", file=sys.stderr),
        heartbeat_interval=args.heartbeat if args.heartbeat > 0 else None,
    )
    if args.json:
        print(json.dumps(
            {
                "set": report.set_name,
                "system": report.system,
                "policies": list(report.policies),
                "refs_per_core": report.refs_per_core,
                "baseline": report.baseline,
                "geomean": report.geomean_summary() if report.succeeded else {},
                "failures": {o.benchmark: o.error for o in report.failures},
                "cache_hits": report.cache_hits,
                "simulated": report.simulated,
            },
            indent=2, sort_keys=True,
        ))
    else:
        print(result_text(report), end="")
    print(f"suite run took {report.wall_s:.1f}s wall", file=sys.stderr)
    if args.output:
        records_to_csv(suite_records(report), args.output)
        print(f"CSV written to {args.output}", file=sys.stderr)
    if args.result_file:
        path = write_result_file(report, args.result_file)
        print(f"result file written to {path}", file=sys.stderr)
    if cache is not None:
        print(f"run manifest written to {cache.root / 'manifest.json'}",
              file=sys.stderr)
    if not report.ok:
        print(f"\n{len(report.failures)} benchmark(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    actions = {"list": _cmd_suite_list, "run": _cmd_suite_run}
    return actions[args.action](args)


# ----------------------------------------------------------------------
# corpus: the content-addressed trace store
# ----------------------------------------------------------------------
def _require_corpus(args: argparse.Namespace, create: bool = False):
    corpus = _corpus_from(args, create=create)
    if corpus is None:
        raise ReproError(
            "no trace corpus: pass --dir or set $REPRO_CORPUS_DIR"
        )
    return corpus


def _cmd_corpus_add(args: argparse.Namespace) -> int:
    corpus = _require_corpus(args, create=True)
    for path in args.paths:
        entry = corpus.add(path, name=args.name)
        print(f"{entry.digest[:12]}  {entry.name}  "
              f"{entry.length} refs  v{entry.version}")
    print(f"{len(corpus)} trace(s) in {corpus.root}", file=sys.stderr)
    return 0


def _cmd_corpus_list(args: argparse.Namespace) -> int:
    corpus = _require_corpus(args)
    entries = corpus.entries()
    if args.json:
        print(json.dumps([e.as_dict() for e in entries], indent=2, sort_keys=True))
        return 0
    rows = [
        [e.digest[:12], e.name, e.length, e.instr_per_ref, e.version,
         e.size_bytes, e.source or "-"]
        for e in entries
    ]
    print(render_table(
        f"trace corpus at {corpus.root} ({len(entries)} entries)",
        ["digest", "name", "refs", "instr/ref", "fmt", "bytes", "source"],
        rows,
    ))
    return 0


def _cmd_corpus_verify(args: argparse.Namespace) -> int:
    corpus = _require_corpus(args)
    problems = corpus.verify()
    if problems:
        print(f"{len(problems)} problem(s) in {corpus.root}:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"all {len(corpus)} trace(s) in {corpus.root} verify clean")
    return 0


def _cmd_corpus_capture(args: argparse.Namespace) -> int:
    corpus = _require_corpus(args, create=True)
    system = _system_from(args)
    workload = make_workload(args.workload, system, seed=args.seed)
    for i, generator in enumerate(workload.generators):
        name = args.name or f"{args.workload}.core{i}"
        if len(workload.generators) > 1 and args.name:
            name = f"{args.name}.core{i}"
        entry = corpus.capture(generator, args.refs, name=name)
        print(f"{entry.digest[:12]}  {entry.name}  {entry.length} refs")
        if args.first_only:
            break
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    actions = {
        "add": _cmd_corpus_add,
        "list": _cmd_corpus_list,
        "verify": _cmd_corpus_verify,
        "capture": _cmd_corpus_capture,
    }
    return actions[args.action](args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LAP (ISCA 2016) reproduction — simulate inclusion "
        "policies on asymmetric LLCs",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for grid commands (default: 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="content-addressed result cache directory "
        "(default: $REPRO_CACHE_DIR when set, else no caching)",
    )
    parser.add_argument(
        "--spans", default=None, metavar="PATH",
        help="enable span tracing for the command and dump the trace as "
        "JSONL to PATH afterwards ($REPRO_SPANS enables tracing without "
        "a dump path)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list policies, workloads, technologies")
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser("run", help="simulate one workload under one policy")
    p.add_argument("workload")
    p.add_argument("policy")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    _add_system_args(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("compare", help="compare policies on identical traces")
    p.add_argument("workload")
    p.add_argument("--policies", default="non-inclusive,exclusive,dswitch,lap",
                   help="comma-separated policy names; the token 'arena' "
                   "expands to the registry's arena-grid set")
    p.add_argument("--arena", action="store_true",
                   help="run the full cross-paper arena grid (every "
                   "registry policy marked arena=yes, non-inclusive "
                   "baseline first) with the Fig. 15 write-class split")
    _add_system_args(p)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("characterize", help="measure loop/redundant-fill traits")
    p.add_argument("benchmarks", nargs="*", help="default: all 13 SPEC-like")
    _add_system_args(p)
    p.set_defaults(fn=_cmd_characterize)

    p = sub.add_parser("figure", help="regenerate one paper figure (e.g. fig14)")
    p.add_argument("name")
    p.add_argument("--refs", type=int, default=10_000)
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser(
        "report",
        help="assemble the markdown experiment record, or (with --out / "
        "--cache-dir) the self-contained HTML fleet dashboard",
    )
    p.add_argument("--results-dir", default="benchmarks/results")
    p.add_argument("--output", default=None,
                   help="markdown mode: write to a file instead of stdout")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="HTML mode: dashboard output path (default when "
                   "--cache-dir is given: report.html)")
    # Repeatable, distinct dest from the global --cache-dir: the HTML
    # dashboard can merge several result-cache directories.
    p.add_argument("--cache-dir", action="append", dest="cache_dirs",
                   default=None, metavar="PATH",
                   help="HTML mode: result-cache directory to scan "
                   "(repeatable; default: the active cache)")
    p.add_argument("--bench", default="BENCH_hotpath.json", metavar="PATH",
                   help="bench history for the trend section "
                   "(default: BENCH_hotpath.json; missing file = no section)")
    p.add_argument("--ledger", default=None, metavar="PATH",
                   help="also write the normalized run ledger as JSON")
    p.add_argument("--no-check", action="store_true",
                   help="skip the invariant-check section")
    p.add_argument("--check-refs", type=int, default=500, metavar="N",
                   help="references per invariant-check run (default: 500)")
    p.add_argument("--regression-pct", type=float, default=10.0, metavar="PCT",
                   help="bench-trend highlight tolerance (default: 10)")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("validate-workloads",
                       help="re-measure every benchmark's declared traits")
    _add_system_args(p)
    p.set_defaults(fn=_cmd_validate_workloads)

    p = sub.add_parser("sweep", help="workloads x policies grid with CSV export")
    p.add_argument("--workloads", default="WL2,WH1",
                   help="comma-separated mixes/benchmarks (default: WL2,WH1)")
    p.add_argument("--policies", default="non-inclusive,exclusive,lap",
                   help="comma-separated policy names; the token 'arena' "
                   "expands to the registry's arena-grid set")
    p.add_argument("--output", default=None, help="CSV output path (default: stdout)")
    p.add_argument("--heartbeat", type=float, default=10.0, metavar="SECONDS",
                   help="progress-line interval for long sweeps "
                   "(default: 10; 0 disables)")
    _add_system_args(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("cache", help="inspect or clear the result cache")
    p.add_argument("action", choices=("stats", "clear"))
    p.add_argument("--json", action="store_true", help="machine-readable stats")
    # Convenience alias so `repro cache stats --cache-dir X` also works;
    # SUPPRESS keeps an omitted sub-level flag from clobbering the
    # global one.
    p.add_argument("--cache-dir", metavar="PATH", default=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser(
        "check",
        help="machine-check simulation invariants (optionally fuzzing)",
    )
    p.add_argument("--policy", action="append", default=None, metavar="NAME",
                   help="policy to check (repeatable; default: the "
                   "registry's check set — the paper's evaluated "
                   "policies plus the arena rivals; `repro list` "
                   "shows membership)")
    p.add_argument("--fuzz", type=int, default=0, metavar="N",
                   help="also run N randomized fuzz cases with shrinking "
                   "(default: 0 = deterministic stages only)")
    p.add_argument("--refs", type=int, default=2000,
                   help="references per deterministic check run (default: 2000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coherence", choices=("both", "on", "off"), default="both",
                   help="which coherence modes to exercise (default: both)")
    p.add_argument("--interval", type=int, default=64,
                   help="invariant re-check period in references (default: 64)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-stage progress on stderr")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser(
        "bench",
        help="measure hot-path throughput with the "
        "default probes and probe-free, and append the entry to "
        "BENCH_hotpath.json; "
        "`bench trend` analyses the accumulated history instead",
    )
    p.add_argument("action", nargs="?", choices=("run", "trend"), default="run",
                   help="run = measure and append (default); trend = "
                   "per-cell trajectory over the history, latest vs "
                   "best prior")
    p.add_argument("--fail-on-regression", type=float, default=None,
                   metavar="PCT",
                   help="trend only: exit 1 when any (policy, backend, "
                   "instrumentation) cell's latest rate sits more than "
                   "PCT%% below its "
                   "best prior value")
    p.add_argument("--policy", action="append", default=None, metavar="NAME",
                   help="policy to bench (repeatable; default: the "
                   "kernel's three flows non-inclusive/exclusive/lap)")
    p.add_argument("--workload", default="WL1",
                   help="workload name (default: WL1)")
    p.add_argument("--refs", type=int, default=30_000,
                   help="references per core per rep (default: 30000)")
    p.add_argument("--reps", type=int, default=5,
                   help="reps per cell, best-of (default: 5)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default="BENCH_hotpath.json", metavar="PATH",
                   help="bench history file to append to "
                   "(default: BENCH_hotpath.json; '-' skips the write)")
    p.add_argument("--json", action="store_true", help="machine-readable entry")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress on stderr")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "suite",
        help="list named benchmark sets or run one through the exec pool "
        "with a geomean summary",
    )
    suite_sub = p.add_subparsers(dest="action", required=True)

    sp = suite_sub.add_parser("list", help="enumerate the registered sets")
    sp.set_defaults(fn=_cmd_suite)

    sp = suite_sub.add_parser(
        "run",
        help="run every member of a set under every policy "
        "(per-benchmark failures don't kill the suite)",
    )
    sp.add_argument("set", help="set name (see `repro suite list`; "
                    "'corpus' runs every trace in the active corpus)")
    sp.add_argument("--policies", default="non-inclusive,exclusive,lap",
                    help="comma-separated policy names, baseline first; "
                    "the token 'arena' expands to the registry's "
                    "arena-grid set")
    sp.add_argument("--corpus", default=None, metavar="DIR",
                    help="trace corpus for trace sets "
                    "(default: $REPRO_CORPUS_DIR)")
    sp.add_argument("--output", default=None, metavar="PATH",
                    help="also write per-benchmark records as CSV")
    sp.add_argument("--result-file", default=None, metavar="DIR",
                    help="also write the suite_geomean.txt artefact "
                    "(the experiment record indexes it)")
    sp.add_argument("--json", action="store_true", help="machine-readable summary")
    sp.add_argument("--heartbeat", type=float, default=10.0, metavar="SECONDS",
                    help="progress-line interval (default: 10; 0 disables)")
    _add_system_args(sp)
    sp.set_defaults(fn=_cmd_suite)

    p = sub.add_parser(
        "corpus",
        help="manage the content-addressed trace corpus "
        "(add/list/verify/capture)",
    )
    corpus_sub = p.add_subparsers(dest="action", required=True)

    def _add_corpus_dir(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--dir", default=None, metavar="DIR",
                        help="corpus directory (default: $REPRO_CORPUS_DIR)")

    sp = corpus_sub.add_parser("add", help="verify and ingest trace archives")
    sp.add_argument("paths", nargs="+", help="trace .npz files to ingest")
    sp.add_argument("--name", default=None,
                    help="override the stored trace name")
    _add_corpus_dir(sp)
    sp.set_defaults(fn=_cmd_corpus)

    sp = corpus_sub.add_parser("list", help="enumerate corpus entries")
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    _add_corpus_dir(sp)
    sp.set_defaults(fn=_cmd_corpus)

    sp = corpus_sub.add_parser(
        "verify",
        help="re-validate every entry (checksums, chunk lengths, "
        "manifest agreement); exit 1 on any fault",
    )
    _add_corpus_dir(sp)
    sp.set_defaults(fn=_cmd_corpus)

    sp = corpus_sub.add_parser(
        "capture",
        help="capture a synthetic workload's reference stream into the corpus",
    )
    sp.add_argument("workload", help="workload name (mix/benchmark/PARSEC)")
    sp.add_argument("--name", default=None,
                    help="stored trace name (default: workload.coreN)")
    sp.add_argument("--first-only", action="store_true",
                    help="capture only core 0's stream")
    _add_corpus_dir(sp)
    _add_system_args(sp)
    sp.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser(
        "trace", help="record, summarize, or diff cache-event flight recordings"
    )
    trace_sub = p.add_subparsers(dest="action", required=True)

    tp = trace_sub.add_parser("record", help="run one simulation with the "
                              "flight recorder attached")
    tp.add_argument("workload")
    tp.add_argument("policy")
    tp.add_argument("--out", required=True, metavar="PATH",
                    help="trace output path (.gz compresses)")
    tp.add_argument("--events", default=None, metavar="SPEC",
                    help="comma-separated event/group filter "
                    "(e.g. 'llc' or 'llc_fill,dirty_victim'; default: all)")
    _add_system_args(tp)

    tp = trace_sub.add_parser("summarize", help="per-event-type counts of one trace")
    tp.add_argument("path")
    tp.add_argument("--json", action="store_true", help="machine-readable output")

    tp = trace_sub.add_parser("diff", help="first divergence and per-event-type "
                              "deltas between two traces")
    tp.add_argument("left")
    tp.add_argument("right")
    tp.add_argument("--json", action="store_true", help="machine-readable output")

    p.set_defaults(fn=_cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        from .obs.spans import (
            SpanRecorder,
            install_recorder,
            recorder_from_env,
            uninstall_recorder,
        )

        spans_path = getattr(args, "spans", None)
        if spans_path:
            recorder = SpanRecorder()
            install_recorder(recorder)
        else:
            recorder = recorder_from_env()
        cache = (
            ResultCache(args.cache_dir) if getattr(args, "cache_dir", None)
            else cache_from_env()
        )
        previous = set_active_cache(cache) if cache is not None else None
        try:
            return args.fn(args)
        finally:
            if cache is not None:
                set_active_cache(previous)
            if recorder is not None:
                if spans_path:
                    recorder.dump(spans_path)
                    print(f"span trace written to {spans_path} "
                          f"({len(recorder)} spans)", file=sys.stderr)
                uninstall_recorder()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
