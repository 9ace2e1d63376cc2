"""Tests for the flight recorder (repro.obs.trace)."""

import gzip
import json

import pytest

from repro.errors import TelemetryError
from repro.instr.probe import PROBE_EVENTS
from repro.obs.trace import (
    EVENT_FIELDS,
    EVENT_GROUPS,
    EVENT_TYPES,
    TraceProbe,
    TraceReader,
    read_events,
    record_simulation,
    resolve_events,
)


def drive(probe: TraceProbe) -> None:
    """A tiny hand-rolled event stream exercising several event types."""
    probe.on_access(0, 64, False)
    probe.on_llc_fill(64)
    probe.on_access(1, 128, True)
    probe.on_dirtied(128)
    probe.on_llc_fill(128)
    probe.on_demand_hit(64)
    probe.on_occupancy_sample(2, 1)


class TestResolveEvents:
    def test_none_and_all_select_everything(self):
        assert resolve_events(None) == tuple(PROBE_EVENTS)
        assert resolve_events("all") == tuple(PROBE_EVENTS)
        assert resolve_events("") == tuple(PROBE_EVENTS)

    def test_groups_and_names_mix(self):
        events = resolve_events("llc,access")
        assert "access" in events
        assert set(EVENT_GROUPS["llc"]) <= set(events)
        assert "l2_fill" not in events

    def test_iterable_spec(self):
        assert resolve_events(["llc_fill", "access"]) == ("access", "llc_fill")

    def test_order_follows_bus_regardless_of_spelling_order(self):
        assert resolve_events("llc_fill,access") == ("access", "llc_fill")

    def test_unknown_name_raises(self):
        with pytest.raises(TelemetryError, match="warp_drive"):
            resolve_events("warp_drive")


class TestRoundTrip:
    def test_plain_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceProbe(path, meta={"policy": "lap"}) as probe:
            drive(probe)
        assert probe.recorded == 7

        reader = TraceReader(path)
        assert reader.meta == {"policy": "lap"}
        assert reader.events == tuple(PROBE_EVENTS)
        events = list(reader)
        assert len(events) == 7
        assert type(events[0]).__name__ == "AccessEvent"
        assert events[0] == EVENT_TYPES["access"](0, 0, 64, False)
        assert events[1] == EVENT_TYPES["llc_fill"](1, 64)
        assert [e.seq for e in events] == list(range(7))
        last = events[-1]
        assert (last.valid, last.loops) == (2, 1)

    def test_gzip_round_trip_and_magic_detection(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        with TraceProbe(path) as probe:
            drive(probe)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert len(read_events(path)) == 7

        # The reader sniffs gzip by magic bytes, not by suffix.
        renamed = tmp_path / "no-suffix.jsonl"
        renamed.write_bytes(path.read_bytes())
        assert read_events(renamed) == read_events(path)

    def test_event_filter_records_subset(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceProbe(path, events="llc_fill") as probe:
            drive(probe)
        events = read_events(path)
        assert [type(e).__name__ for e in events] == ["LlcFillEvent", "LlcFillEvent"]
        # Filtered traces get their own dense sequence numbers.
        assert [e.seq for e in events] == [0, 1]
        assert TraceReader(path).events == ("llc_fill",)

    def test_small_buffer_flushes_incrementally(self, tmp_path):
        path = tmp_path / "t.jsonl"
        probe = TraceProbe(path, buffer_events=2)
        drive(probe)
        # 7 events with a 2-event buffer: at least 6 already on disk,
        # but no footer yet -> the reader refuses the prefix.
        assert len(path.read_text().splitlines()) >= 7  # header + 6 events
        with pytest.raises(TelemetryError, match="truncated"):
            read_events(path)
        probe.finish()
        assert len(read_events(path)) == 7

    def test_finish_is_idempotent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        probe = TraceProbe(path)
        drive(probe)
        probe.finish()
        probe.finish()  # no-op, no error
        assert len(read_events(path)) == 7

    def test_rejects_nonpositive_buffer(self, tmp_path):
        with pytest.raises(TelemetryError, match="buffer_events"):
            TraceProbe(tmp_path / "t.jsonl", buffer_events=0)

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(TelemetryError, match="cannot open"):
            TraceProbe(tmp_path / "missing-dir" / "t.jsonl")


class TestReaderValidation:
    def write_trace(self, tmp_path, lines, name="t.jsonl"):
        header = {"kind": "repro-trace", "schema": 1,
                  "events": list(PROBE_EVENTS), "meta": {}}
        path = tmp_path / name
        path.write_text("\n".join([json.dumps(header)] + lines) + "\n")
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(TelemetryError, match="no such trace"):
            TraceReader(tmp_path / "absent.jsonl")

    def test_non_json_header(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TelemetryError, match="JSON trace header"):
            TraceReader(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"kind": "something-else", "schema": 1}) + "\n")
        with pytest.raises(TelemetryError, match="not a repro-trace"):
            TraceReader(path)

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"kind": "repro-trace", "schema": 99}) + "\n")
        with pytest.raises(TelemetryError, match="schema 99"):
            TraceReader(path)

    def test_truncated_file_no_footer(self, tmp_path):
        path = self.write_trace(tmp_path, [json.dumps([0, "llc_fill", 64])])
        with pytest.raises(TelemetryError, match="truncated"):
            read_events(path)

    def test_truncation_detected_after_real_recording(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceProbe(path) as probe:
            drive(probe)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the footer
        with pytest.raises(TelemetryError, match="no end-of-trace marker"):
            read_events(path)

    def test_footer_count_mismatch(self, tmp_path):
        path = self.write_trace(
            tmp_path, [json.dumps([0, "llc_fill", 64]), json.dumps(["end", 5])]
        )
        with pytest.raises(TelemetryError, match="footer declares 5"):
            read_events(path)

    def test_unknown_event_type_named_in_error(self, tmp_path):
        path = self.write_trace(
            tmp_path, [json.dumps([0, "warp_drive", 1]), json.dumps(["end", 1])]
        )
        with pytest.raises(TelemetryError, match="unknown event type 'warp_drive'"):
            read_events(path)

    def test_wrong_arg_count(self, tmp_path):
        path = self.write_trace(
            tmp_path, [json.dumps([0, "l2_fill", 64]), json.dumps(["end", 1])]
        )
        with pytest.raises(TelemetryError, match="expected 2"):
            read_events(path)

    def test_malformed_event_line(self, tmp_path):
        path = self.write_trace(tmp_path, ['{"half": ', json.dumps(["end", 0])])
        with pytest.raises(TelemetryError, match="malformed trace line"):
            read_events(path)

    def test_non_array_event_line(self, tmp_path):
        path = self.write_trace(tmp_path, ['{"seq": 0}', json.dumps(["end", 0])])
        with pytest.raises(TelemetryError, match=r"\[seq, event"):
            read_events(path)

    def test_truncated_gzip_stream(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        with TraceProbe(path) as probe:
            for i in range(500):
                probe.on_llc_fill(i * 64)
        raw = path.read_bytes()
        clipped = tmp_path / "clipped.jsonl.gz"
        clipped.write_bytes(raw[: int(len(raw) * 0.6)])  # cut mid-stream
        with pytest.raises(TelemetryError):
            read_events(clipped)

    def test_header_and_fields_cover_every_bus_event(self):
        assert set(EVENT_FIELDS) == set(PROBE_EVENTS)
        assert set(EVENT_TYPES) == set(PROBE_EVENTS)
        for name, fields in EVENT_FIELDS.items():
            assert EVENT_TYPES[name]._fields == ("seq",) + fields


class TestRecordSimulation:
    def test_recorded_run_is_bit_identical(self, tmp_path, small_system):
        from repro import make_workload, simulate

        path = tmp_path / "run.jsonl.gz"
        recorded = record_simulation(
            path, small_system, "lap", "mcf", refs_per_core=300, seed=2
        )
        workload = make_workload("mcf", small_system, seed=2)
        plain = simulate(small_system, "lap", workload, refs_per_core=300)
        assert recorded.to_dict() == plain.to_dict()

        reader = TraceReader(path)
        assert reader.meta["policy"] == "lap"
        assert reader.meta["workload"] == "mcf"
        assert reader.meta["seed"] == 2
        events = list(reader)
        accesses = sum(1 for e in events if type(e).__name__ == "AccessEvent")
        assert accesses == plain.hier.accesses

    def test_event_filter_passthrough(self, tmp_path, small_system):
        path = tmp_path / "run.jsonl"
        record_simulation(
            path, small_system, "non-inclusive", "mcf",
            refs_per_core=200, events="llc_fill",
        )
        names = {type(e).__name__ for e in read_events(path)}
        assert names == {"LlcFillEvent"}


def test_gzip_writes_are_actually_compressed(tmp_path):
    plain, packed = tmp_path / "t.jsonl", tmp_path / "t.jsonl.gz"
    for target in (plain, packed):
        with TraceProbe(target) as probe:
            for i in range(2000):
                probe.on_llc_fill(i * 64)
    assert packed.stat().st_size < plain.stat().st_size / 4
    with gzip.open(packed, "rt") as fh:
        assert json.loads(fh.readline())["kind"] == "repro-trace"
