"""Tests for trace summaries and lockstep trace diffing."""

import json

import pytest

from repro.obs.diff import diff_traces, summarize_trace
from repro.obs.trace import TraceProbe, record_simulation


def write_trace(path, events, meta=None):
    """Record a hand-rolled stream of (event, args) pairs."""
    probe = TraceProbe(path, meta=meta or {})
    for name, args in events:
        getattr(probe, f"on_{name}")(*args)
    probe.finish()
    return path


STREAM = [
    ("access", (0, 64, False)),
    ("llc_fill", (64,)),
    ("access", (0, 128, True)),
    ("dirtied", (128,)),
    ("demand_hit", (64,)),
]


class TestSummarize:
    def test_counts_per_event_type(self, tmp_path):
        path = write_trace(tmp_path / "t.jsonl", STREAM, meta={"policy": "lap"})
        summary = summarize_trace(path)
        assert summary.total == 5
        assert summary.by_event == {
            "access": 2, "llc_fill": 1, "demand_hit": 1, "dirtied": 1,
        }
        assert summary.meta["policy"] == "lap"
        assert json.dumps(summary.as_dict())  # JSON-safe


class TestDiffIdentical:
    def test_identical_streams_zero_divergence(self, tmp_path):
        left = write_trace(tmp_path / "a.jsonl", STREAM)
        right = write_trace(tmp_path / "b.jsonl", STREAM)
        diff = diff_traces(left, right)
        assert diff.identical
        assert diff.divergence is None
        assert all(d == 0 for d in diff.deltas().values())
        assert diff.counts["access"] == (2, 2)
        assert diff.as_dict()["identical"] is True
        assert diff.as_dict()["divergence"] is None

    def test_sequence_numbers_are_not_compared(self, tmp_path):
        # Two recordings of the same underlying events whose seq fields
        # differ (e.g. different filters were active) still diff clean.
        left = write_trace(tmp_path / "a.jsonl", STREAM)
        right = tmp_path / "b.jsonl"
        lines = left.read_text().splitlines()
        shifted = []
        for line in lines[1:-1]:
            record = json.loads(line)
            record[0] += 1000  # recorder-local sequence offset
            shifted.append(json.dumps(record))
        right.write_text("\n".join([lines[0]] + shifted + [lines[-1]]) + "\n")
        diff = diff_traces(left, right)
        assert diff.identical


class TestDiffDivergence:
    def test_first_value_divergence_is_located(self, tmp_path):
        altered = list(STREAM)
        altered[3] = ("dirtied", (192,))  # same type, different address
        left = write_trace(tmp_path / "a.jsonl", STREAM)
        right = write_trace(tmp_path / "b.jsonl", altered)
        diff = diff_traces(left, right)
        assert not diff.identical
        assert diff.divergence.index == 3
        text = diff.divergence.describe()
        assert "DirtiedEvent" in text and "event #3" in text
        # Counts still cover both whole runs: same types either side.
        assert diff.deltas() == {k: 0 for k in diff.deltas()}

    def test_type_divergence(self, tmp_path):
        altered = list(STREAM)
        altered[1] = ("clean_insert", (64,))
        left = write_trace(tmp_path / "a.jsonl", STREAM)
        right = write_trace(tmp_path / "b.jsonl", altered)
        diff = diff_traces(left, right)
        assert diff.divergence.index == 1
        assert type(diff.divergence.left).__name__ == "LlcFillEvent"
        assert type(diff.divergence.right).__name__ == "CleanInsertEvent"
        assert diff.deltas()["llc_fill"] == -1
        assert diff.deltas()["clean_insert"] == 1

    def test_length_divergence_when_one_stream_ends(self, tmp_path):
        left = write_trace(tmp_path / "a.jsonl", STREAM)
        right = write_trace(tmp_path / "b.jsonl", STREAM + [("llc_evict", (64,))])
        diff = diff_traces(left, right)
        assert diff.divergence.index == len(STREAM)
        assert diff.divergence.left is None
        assert type(diff.divergence.right).__name__ == "LlcEvictEvent"
        assert "<stream ended>" in diff.divergence.describe()
        assert diff.deltas()["llc_evict"] == 1

    def test_counts_continue_past_divergence(self, tmp_path):
        # Diverge at index 0 but keep counting: deltas describe whole runs.
        left = write_trace(tmp_path / "a.jsonl", [("llc_fill", (64,))] + STREAM)
        right = write_trace(tmp_path / "b.jsonl", STREAM)
        diff = diff_traces(left, right)
        assert diff.divergence.index == 0
        assert diff.counts["access"] == (2, 2)
        assert diff.deltas()["llc_fill"] == -1

    def test_as_dict_serialises_divergence(self, tmp_path):
        altered = list(STREAM)
        altered[0] = ("access", (1, 64, False))
        left = write_trace(tmp_path / "a.jsonl", STREAM)
        right = write_trace(tmp_path / "b.jsonl", altered)
        payload = diff_traces(left, right).as_dict()
        assert payload["identical"] is False
        assert payload["divergence"]["index"] == 0
        assert payload["divergence"]["left"]["type"] == "AccessEvent"
        assert payload["divergence"]["right"]["core"] == 1
        assert json.dumps(payload)  # JSON-safe


class TestPolicyDiff:
    """The acceptance scenario: same (workload, seed), different policies."""

    @pytest.fixture
    def traces(self, tmp_path, small_system):
        paths = {}
        for name, policy in (
            ("noni", "non-inclusive"),
            ("lap", "lap"),
            ("noni2", "non-inclusive"),
        ):
            paths[name] = tmp_path / f"{name}.jsonl.gz"
            record_simulation(
                paths[name], small_system, policy, "mcf",
                refs_per_core=250, seed=5,
            )
        return paths

    def test_same_policy_twice_is_identical(self, traces):
        diff = diff_traces(traces["noni"], traces["noni2"])
        assert diff.identical
        assert all(d == 0 for d in diff.deltas().values())

    def test_different_policies_diverge_with_paper_shaped_deltas(self, traces):
        diff = diff_traces(traces["noni"], traces["lap"])
        assert not diff.identical
        assert diff.divergence.index >= 0
        deltas = diff.deltas()
        # Both policies see the identical reference stream...
        assert deltas["access"] == 0
        # ...but LAP never data-fills the LLC on a miss.
        noni_fills, lap_fills = diff.counts["llc_fill"]
        assert noni_fills > 0 and lap_fills == 0
