"""Tests for the content-addressed trace corpus (workloads.corpus)."""

import pytest

from repro.errors import WorkloadError
from repro.workloads import LoopRegion, StreamRegion, SyntheticTrace
from repro.workloads.corpus import (
    ENV_CORPUS_DIR,
    TraceCorpus,
    active_corpus,
    file_digest,
    set_active_corpus,
)
from repro.workloads.tracefile import save_trace


def make_gen(seed=3, name="looper"):
    return SyntheticTrace(
        [(LoopRegion(0, 64 * 64), 1.0)], seed=seed, name=name, instr_per_ref=5.0
    )


@pytest.fixture
def corpus(tmp_path):
    return TraceCorpus(tmp_path / "corpus", create=True)


class TestIngestion:
    def test_add_list_load_roundtrip(self, corpus, tmp_path):
        path = save_trace(tmp_path / "t", make_gen(), 500)
        entry = corpus.add(path)
        assert entry.name == "looper"
        assert entry.length == 500
        assert entry.digest == file_digest(path)
        assert corpus.names() == ("looper",)
        replay = corpus.load(entry.digest)
        a1, _ = make_gen().batch(500)
        a2, _ = replay.batch(500)
        assert (a1 == a2).all()

    def test_dedupe_by_content(self, corpus, tmp_path):
        p1 = save_trace(tmp_path / "a", make_gen(), 300)
        p2 = save_trace(tmp_path / "b", make_gen(), 300)  # same stream
        e1 = corpus.add(p1)
        e2 = corpus.add(p2)
        assert e1.digest == e2.digest
        assert len(corpus) == 1

    def test_capture_straight_into_corpus(self, corpus):
        entry = corpus.capture(make_gen(), 400, name="direct")
        assert entry.name == "direct"
        assert entry.length == 400
        assert corpus.object_path(entry.digest).exists()

    def test_add_rejects_broken_archive(self, corpus, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not a trace")
        with pytest.raises(WorkloadError):
            corpus.add(bad)
        assert len(corpus) == 0  # nothing ingested

    def test_missing_manifest_requires_create(self, tmp_path):
        with pytest.raises(WorkloadError, match="corpus"):
            TraceCorpus(tmp_path / "nope")

    def test_reopen_reads_manifest(self, corpus, tmp_path):
        corpus.capture(make_gen(), 100, name="persisted")
        reopened = TraceCorpus(corpus.root)
        assert reopened.names() == ("persisted",)


class TestLookup:
    def test_lookup_by_name_prefix_and_digest(self, corpus):
        entry = corpus.capture(make_gen(), 200, name="alpha")
        assert corpus.get("alpha").digest == entry.digest
        assert corpus.get(entry.digest).digest == entry.digest
        assert corpus.get(entry.digest[:12]).digest == entry.digest

    def test_unknown_name_suggests_nearest(self, corpus):
        corpus.capture(make_gen(), 200, name="alpha")
        with pytest.raises(WorkloadError, match="did you mean 'alpha'"):
            corpus.get("alpah")

    def test_ambiguous_prefix_rejected(self, corpus):
        e1 = corpus.capture(make_gen(name="g-one"), 200, name="one")
        e2 = corpus.capture(make_gen(name="g-two"), 200, name="two")
        assert e1.digest != e2.digest  # distinct content, distinct address
        with pytest.raises(WorkloadError):
            corpus.get(e1.digest[:4])  # below the minimum prefix length

    def test_remove(self, corpus):
        entry = corpus.capture(make_gen(), 200, name="gone")
        corpus.remove("gone")
        assert len(corpus) == 0
        assert not corpus.object_path(entry.digest).exists()


class TestVerify:
    def test_clean_corpus_verifies(self, corpus):
        corpus.capture(make_gen(name="g-a"), 300, name="a")
        corpus.capture(make_gen(name="g-b"), 300, name="b")
        assert len(corpus) == 2
        assert corpus.verify() == []

    def test_truncated_object_caught(self, corpus):
        entry = corpus.capture(make_gen(), 300, name="trunc")
        obj = corpus.object_path(entry.digest)
        data = obj.read_bytes()
        obj.write_bytes(data[: len(data) // 2])
        problems = corpus.verify()
        assert len(problems) == 1
        assert "trunc" in problems[0]

    def test_content_flip_caught(self, corpus):
        entry = corpus.capture(make_gen(), 300, name="flip")
        obj = corpus.object_path(entry.digest)
        data = bytearray(obj.read_bytes())
        data[len(data) // 2] ^= 0xFF
        obj.write_bytes(bytes(data))
        problems = corpus.verify()
        assert problems  # digest mismatch or checksum failure
        assert any("flip" in p for p in problems)

    def test_missing_object_caught(self, corpus):
        entry = corpus.capture(make_gen(), 300, name="lost")
        corpus.object_path(entry.digest).unlink()
        problems = corpus.verify()
        assert len(problems) == 1
        assert "lost" in problems[0]


class TestActiveCorpus:
    def test_module_global_channel(self, corpus):
        previous = set_active_corpus(corpus)
        try:
            assert active_corpus() is corpus
        finally:
            set_active_corpus(previous)

    def test_env_channel(self, corpus, monkeypatch):
        corpus.capture(make_gen(), 100, name="via-env")
        monkeypatch.setenv(ENV_CORPUS_DIR, str(corpus.root))
        found = active_corpus()
        assert found is not None
        assert found.names() == ("via-env",)

    def test_required_without_corpus_raises(self, monkeypatch):
        monkeypatch.delenv(ENV_CORPUS_DIR, raising=False)
        previous = set_active_corpus(None)
        try:
            with pytest.raises(WorkloadError):
                active_corpus(required=True)
        finally:
            set_active_corpus(previous)


class TestTraceWorkloadSpec:
    """The exec-layer trace kind: digests as cache-key identity."""

    def _stocked(self, corpus):
        e1 = corpus.capture(make_gen(seed=1, name="g1"), 2000, name="g1")
        e2 = corpus.capture(
            SyntheticTrace(
                [(StreamRegion(1 << 20, 1 << 22), 1.0)],
                seed=2, name="g2", instr_per_ref=4.0,
            ),
            2000,
            name="g2",
        )
        return e1, e2

    def test_spec_roundtrip_and_label(self, corpus):
        from repro.exec.jobs import WorkloadSpec

        e1, e2 = self._stocked(corpus)
        spec = WorkloadSpec.trace((e1.digest, e2.digest), ncores=2)
        again = WorkloadSpec.from_dict(spec.to_dict())
        assert again == spec
        assert spec.label.startswith("trace:")
        assert e1.digest[:12] in spec.label

    def test_digest_count_must_match_cores(self, corpus):
        from repro.exec.jobs import WorkloadSpec

        e1, e2 = self._stocked(corpus)
        with pytest.raises(WorkloadError):
            WorkloadSpec.trace((e1.digest, e2.digest), ncores=4)

    def test_build_resolves_active_corpus(self, corpus, small_system):
        from repro.exec.jobs import WorkloadSpec

        e1, _ = self._stocked(corpus)
        spec = WorkloadSpec.trace((e1.digest,), ncores=2)
        previous = set_active_corpus(corpus)
        try:
            workload = spec.build(small_system.scale_context())
        finally:
            set_active_corpus(previous)
        assert len(workload.generators) == 2
        assert workload.benchmarks == ("g1", "g1")

    def test_build_without_corpus_raises(self, monkeypatch, corpus):
        from repro.exec.jobs import WorkloadSpec

        e1, _ = self._stocked(corpus)
        monkeypatch.delenv(ENV_CORPUS_DIR, raising=False)
        previous = set_active_corpus(None)
        try:
            with pytest.raises(WorkloadError):
                WorkloadSpec.trace((e1.digest,), ncores=2).build(None)
        finally:
            set_active_corpus(previous)
