"""Flight-recorder demo: record + diff a tiny LAP-vs-non-inclusive pair.

The smoke test behind ``make trace-demo``: records both policies on the
same (workload, seed), checks the recorder's invariants (identical runs
diff to zero; different policies diverge with the paper-shaped deltas),
and emits the diff table as the ``trace_demo`` experiment artefact.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.sim.system import SystemConfig
from repro.obs.diff import diff_traces
from repro.obs.trace import record_simulation

WORKLOAD = "WL1"
REFS = 2_000
SEED = 7


def assemble_demo() -> dict:
    system = SystemConfig.scaled()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        noni = tmp / "non-inclusive.jsonl.gz"
        lap = tmp / "lap.jsonl.gz"
        noni_again = tmp / "non-inclusive-2.jsonl.gz"
        for path, policy in ((noni, "non-inclusive"), (lap, "lap"),
                             (noni_again, "non-inclusive")):
            record_simulation(path, system, policy, WORKLOAD, REFS, seed=SEED)
        return {
            "self": diff_traces(noni, noni_again).as_dict(),
            "cross": diff_traces(noni, lap).as_dict(),
        }


def test_trace_demo(benchmark, emit):
    from conftest import run_once

    record = run_once(benchmark, assemble_demo)

    # Determinism: two recordings of the same run are indistinguishable.
    assert record["self"]["identical"]
    assert all(d == 0 for d in record["self"]["deltas"].values())

    # The paper's mechanism, visible in the event stream: LAP never
    # data-fills the LLC on a miss, non-inclusion pays one fill each.
    cross = record["cross"]
    assert not cross["identical"]
    assert cross["divergence"]["index"] >= 0
    noni_fills, lap_fills = cross["counts"]["llc_fill"]
    assert noni_fills > 0 and lap_fills == 0
    # Both policies observe the identical reference stream.
    assert cross["deltas"]["access"] == 0

    lines = [f"{'event':18s} {'non-inclusive':>14s} {'lap':>8s} {'delta':>8s}"]
    for name, (left, right) in cross["counts"].items():
        lines.append(f"{name:18s} {left:>14,} {right:>8,} {right - left:>+8,}")
    div = cross["divergence"]
    lines.append(
        f"first divergence at event #{div['index']}: "
        f"{div['left']['type']} vs {div['right']['type']}"
    )
    emit("trace_demo", "\n".join(lines))
