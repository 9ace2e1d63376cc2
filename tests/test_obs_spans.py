"""Tests for span tracing (repro.obs.spans)."""

import json
import threading

import pytest

from repro.errors import TelemetryError
from repro.obs.spans import (
    SPANS_ENV,
    SpanRecorder,
    current_recorder,
    install_recorder,
    read_spans,
    recorder_from_env,
    span,
    start_span,
    summarize_spans,
    tracing_enabled,
    uninstall_recorder,
)


@pytest.fixture(autouse=True)
def no_ambient_recorder():
    """Each test starts with tracing off and leaves it off."""
    uninstall_recorder()
    yield
    uninstall_recorder()


class TestDisabled:
    def test_span_is_shared_noop_when_tracing_off(self):
        assert not tracing_enabled()
        a = span("x")
        b = span("y", attr=1)
        assert a is b  # the shared singleton: zero allocation per call
        with a:
            a.set(more=2)
        a.finish()  # all no-ops

    def test_recorder_from_env_respects_unset_var(self, monkeypatch):
        monkeypatch.delenv(SPANS_ENV, raising=False)
        assert recorder_from_env() is None
        assert not tracing_enabled()

    def test_recorder_from_env_installs_when_set(self, monkeypatch):
        monkeypatch.setenv(SPANS_ENV, "1")
        rec = recorder_from_env()
        assert rec is not None
        assert current_recorder() is rec


class TestRecording:
    def test_span_records_wall_cpu_and_status(self):
        rec = SpanRecorder()
        install_recorder(rec)
        with span("simulate", policy="lap"):
            pass
        (s,) = rec.spans()
        assert s["name"] == "simulate"
        assert s["status"] == "ok"
        assert s["attrs"] == {"policy": "lap"}
        assert s["wall_s"] >= 0.0 and s["cpu_s"] >= 0.0
        assert s["parent"] is None

    def test_nesting_sets_parent_ids(self):
        rec = SpanRecorder()
        install_recorder(rec)
        with span("outer") as outer:
            with span("inner"):
                pass
        inner, outer_rec = rec.spans()  # finish order: inner first
        assert inner["name"] == "inner"
        assert inner["parent"] == outer.id
        assert outer_rec["parent"] is None

    def test_exception_marks_span_error(self):
        rec = SpanRecorder()
        install_recorder(rec)
        with pytest.raises(ValueError):
            with span("boom"):
                raise ValueError("x")
        (s,) = rec.spans()
        assert s["status"] == "error"

    def test_explicit_finish_is_idempotent(self):
        rec = SpanRecorder()
        install_recorder(rec)
        handle = start_span("kernel.checkout")
        handle.finish()
        handle.finish()
        assert len(rec) == 1

    def test_set_attaches_mid_span_attributes(self):
        rec = SpanRecorder()
        install_recorder(rec)
        with span("exec.batch", jobs=3) as s:
            s.set(completed=3)
        (record,) = rec.spans()
        assert record["attrs"] == {"jobs": 3, "completed": 3}

    def test_abandoned_child_does_not_misparent_siblings(self):
        # A child finished out of order (or never finished) must not
        # leave later spans claiming it as parent.
        rec = SpanRecorder()
        install_recorder(rec)
        outer = start_span("outer")
        start_span("abandoned")  # never finished
        outer.finish()
        with span("next"):
            pass
        by_name = {s["name"]: s for s in rec.spans()}
        assert by_name["next"]["parent"] != by_name["outer"]["id"]

    def test_threads_keep_separate_parent_stacks(self):
        rec = SpanRecorder()
        install_recorder(rec)
        ready = threading.Event()
        release = threading.Event()

        def worker():
            with span("worker"):
                ready.set()
                release.wait(timeout=10)

        t = threading.Thread(target=worker)
        with span("main"):
            t.start()
            ready.wait(timeout=10)
            release.set()
            t.join(timeout=10)
        by_name = {s["name"]: s for s in rec.spans()}
        assert by_name["worker"]["parent"] is None  # not "main"'s child

    def test_drain_empties_the_recorder(self):
        rec = SpanRecorder()
        install_recorder(rec)
        with span("a"):
            pass
        assert len(rec.drain()) == 1
        assert len(rec) == 0

    def test_install_rejects_non_recorder(self):
        with pytest.raises(TelemetryError):
            install_recorder("nope")


class TestDumpAndRead:
    def test_dump_and_read_round_trip(self, tmp_path):
        rec = SpanRecorder()
        install_recorder(rec)
        with span("simulate", policy="lap"):
            pass
        path = rec.dump(tmp_path / "spans.jsonl")
        spans = read_spans(path)
        assert [s["name"] for s in spans] == ["simulate"]

    def test_dump_to_directory_uses_standard_name(self, tmp_path):
        rec = SpanRecorder()
        install_recorder(rec)
        with span("a"):
            pass
        path = rec.dump(tmp_path)
        assert path == tmp_path / "spans.jsonl"
        assert path.exists()

    def test_dump_serializes_rich_attrs_as_strings(self, tmp_path):
        rec = SpanRecorder()
        install_recorder(rec)
        with span("a", path=tmp_path):  # a pathlib.Path attr
            pass
        dumped = read_spans(rec.dump(tmp_path))
        assert dumped[0]["attrs"]["path"] == str(tmp_path)

    def test_read_rejects_malformed_lines(self, tmp_path):
        bad = tmp_path / "spans.jsonl"
        bad.write_text('{"name": "ok"}\nnot json\n')
        with pytest.raises(TelemetryError, match="malformed"):
            read_spans(bad)

    def test_read_missing_file_raises(self, tmp_path):
        with pytest.raises(TelemetryError):
            read_spans(tmp_path / "absent.jsonl")

    def test_summarize_rolls_up_per_name(self):
        spans = [
            {"name": "a", "wall_s": 1.0, "cpu_s": 0.5},
            {"name": "a", "wall_s": 3.0, "cpu_s": 0.5},
            {"name": "b", "wall_s": 0.25, "cpu_s": 0.25},
        ]
        summary = summarize_spans(spans)
        assert summary["a"]["count"] == 2
        assert summary["a"]["wall_s"] == 4.0
        assert summary["a"]["mean_wall_s"] == 2.0
        assert summary["b"]["count"] == 1


class TestThreading:
    def test_concurrent_spans_all_recorded(self):
        rec = SpanRecorder()
        install_recorder(rec)
        n_threads, per_thread = 8, 50

        def worker():
            for _ in range(per_thread):
                with span("w"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(rec) == n_threads * per_thread
        ids = [s["id"] for s in rec.spans()]
        assert len(set(ids)) == len(ids), "span ids must be unique"


class TestIntegration:
    def test_simulator_emits_simulate_span(self, small_system):
        from repro import make_workload, simulate

        rec = SpanRecorder()
        install_recorder(rec)
        workload = make_workload("mcf", small_system, seed=1)
        simulate(small_system, "lap", workload, refs_per_core=200)
        names = [s["name"] for s in rec.spans()]
        assert "simulate" in names

    def test_kernel_spans_nest_under_simulate(self):
        from repro import make_workload, simulate
        from repro.sim import SystemConfig

        rec = SpanRecorder()
        install_recorder(rec)
        system = SystemConfig.scaled().probe_free()
        workload = make_workload("WL1", system, seed=0)
        simulate(system, "lap", workload, refs_per_core=400)
        by_name = {s["name"]: s for s in rec.spans()}
        sim_id = by_name["simulate"]["id"]
        for phase in ("kernel.checkout", "kernel.batch_loop", "kernel.checkin"):
            assert phase in by_name
            assert by_name[phase]["parent"] == sim_id

    def test_execute_jobs_dumps_spans_next_to_manifest(self, tmp_path):
        from repro.exec import JobSpec, ResultCache, WorkloadSpec, execute_jobs
        from repro.sim import SystemConfig

        rec = SpanRecorder()
        install_recorder(rec)
        cache = ResultCache(tmp_path / "cache")
        job = JobSpec(
            system=SystemConfig.scaled(ncores=2, llc_kb=32, l2_kb=4),
            workload=WorkloadSpec.duplicate("mcf", ncores=2, seed=0),
            policy="lap",
            refs_per_core=300,
        )
        execute_jobs([job], cache=cache, manifest_dir=cache.root)
        dump = cache.root / "spans.jsonl"
        assert dump.exists()
        names = {s["name"] for s in read_spans(dump)}
        assert {"exec.batch", "exec.job", "simulate"} <= names

    def test_no_dump_when_tracing_disabled(self, tmp_path):
        from repro.exec import JobSpec, ResultCache, WorkloadSpec, execute_jobs
        from repro.sim import SystemConfig

        cache = ResultCache(tmp_path / "cache")
        job = JobSpec(
            system=SystemConfig.scaled(ncores=2, llc_kb=32, l2_kb=4),
            workload=WorkloadSpec.duplicate("mcf", ncores=2, seed=0),
            policy="lap",
            refs_per_core=200,
        )
        execute_jobs([job], cache=cache, manifest_dir=cache.root)
        assert not (cache.root / "spans.jsonl").exists()

    def test_cli_spans_flag_writes_dump(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        rc = main(["--spans", str(out), "run", "WL1", "lap", "--refs", "200"])
        assert rc == 0
        spans = read_spans(out)
        assert any(s["name"] == "simulate" for s in spans)
        assert not tracing_enabled(), "CLI must uninstall its recorder"
