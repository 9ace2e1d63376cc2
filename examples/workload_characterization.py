#!/usr/bin/env python
"""Workload characterisation: loop-blocks, redundant fills, WL/WH.

Reproduces the paper's Section II motivation interactively: for each
SPEC-like benchmark it measures

- the loop-block fraction and clean-trip-count buckets (Fig. 4),
- the redundant LLC data-fill fraction under non-inclusion (Fig. 6),
- the relative misses/writes of an exclusive LLC (Fig. 2c),

then classifies the benchmark as WL (fewer writes under exclusion) or
WH and says which traditional inclusion property it favours on an
STT-RAM LLC. The measurement is ``repro.workloads.validation``'s, the
one ``repro characterize`` prints.

Run:  python examples/workload_characterization.py [refs_per_core]
"""

import sys

from repro import SystemConfig, benchmark_names
from repro.analysis import render_table
from repro.workloads.validation import validate_all


def main() -> None:
    refs = int(sys.argv[1]) if len(sys.argv) > 1 else 12_000
    reports = validate_all(SystemConfig.scaled(), refs, benchmark_names())
    rows = [
        [
            bench,
            r.loop_fraction,
            r.ctc_shares["ctc>=5"],
            r.redundant_fill_fraction,
            r.mrel,
            r.wrel,
            r.wl_class,
            r.favours,
        ]
        for bench, r in reports.items()
    ]
    print(
        render_table(
            "SPEC-like benchmark characterisation (paper Figs. 2/4/6)",
            [
                "benchmark",
                "loop_frac",
                "ctc>=5 share",
                "redundant_fill",
                "Mrel(ex)",
                "Wrel(ex)",
                "class",
                "favours",
            ],
            rows,
        )
    )
    print(
        "\nExpected shape: omnetpp/xalancbmk loop-heavy and favouring "
        "non-inclusion; libquantum >80% redundant fills and favouring "
        "exclusion; the favoured policy flips with Wrel — no dominant "
        "traditional inclusion property."
    )


if __name__ == "__main__":
    main()
