"""Edge cases for the probe bus and the standard probes.

Covers the failure modes a probe author actually hits: a probe class
that overrides nothing (usually a typo'd handler name), zero-interval
occupancy sampling, probes attached mid-run, empty-LLC occupancy
snapshots, and the redundant-fill detector fed events about addresses
it never saw filled.
"""

import pytest

from repro.errors import ConfigurationError
from repro.instr.probe import PROBE_EVENTS, Probe, ProbeBus
from repro.instr.probes import (
    LoopProbe,
    OccupancySampler,
    RedundantFillProbe,
    make_probes,
)
from repro.obs.trace import TraceProbe, read_events
from repro.testing import A, B, C, D, E, build_micro, run_refs


class TestUselessProbeRejection:
    def test_probe_with_no_overrides_raises_naming_the_class(self):
        class Dud(Probe):
            pass

        with pytest.raises(ValueError, match="Dud overrides no on_"):
            ProbeBus((Dud(),))

    def test_misspelled_handler_is_caught(self):
        class Typo(Probe):
            def on_llc_evicted(self, addr):  # not a bus event
                pass

        with pytest.raises(ValueError) as exc:
            ProbeBus((Typo(),))
        assert "Typo" in str(exc.value)
        assert "misspelled" in str(exc.value)

    def test_error_lists_the_handler_vocabulary(self):
        class Dud(Probe):
            pass

        with pytest.raises(ValueError) as exc:
            ProbeBus((Dud(),))
        for event in PROBE_EVENTS:
            assert f"on_{event}" in str(exc.value)

    def test_attach_probe_rejects_useless_probe_too(self):
        class Dud(Probe):
            pass

        h = build_micro("non-inclusive")
        with pytest.raises(ValueError, match="Dud"):
            h.attach_probe(Dud())

    def test_one_override_is_enough(self):
        class Minimal(Probe):
            def on_access(self, core, addr, is_write):
                pass

        bus = ProbeBus((Minimal(),))
        assert len(bus.handlers("access")) == 1
        assert bus.handlers("llc_fill") == ()


class TestZeroIntervalSampling:
    def test_sampler_rejects_zero_interval(self):
        with pytest.raises(ConfigurationError, match="positive"):
            OccupancySampler(0)

    def test_sampler_rejects_negative_interval(self):
        with pytest.raises(ConfigurationError, match="positive"):
            OccupancySampler(-5)

    def test_make_probes_rejects_occupancy_without_interval(self):
        with pytest.raises(ConfigurationError, match="occupancy"):
            make_probes("occupancy", occupancy_interval=0)

    def test_default_spec_with_zero_interval_just_omits_the_sampler(self):
        probes = make_probes("default", occupancy_interval=0)
        assert not any(isinstance(p, OccupancySampler) for p in probes)
        probes = make_probes("default", occupancy_interval=16)
        assert any(isinstance(p, OccupancySampler) for p in probes)

    def test_interval_one_samples_every_access(self):
        h = build_micro("non-inclusive")
        h.attach_probe(OccupancySampler(1))
        run_refs(h, [(A, False), (B, False), (C, False)])
        assert h.loop_stats().llc_loop_samples > 0


class TestMidRunAttach:
    def test_trace_probe_attached_mid_run_sees_only_the_rest(self, tmp_path):
        h = build_micro("non-inclusive")
        run_refs(h, [(A, False), (B, False), (C, False)])
        probe = TraceProbe(tmp_path / "tail.jsonl", events="access")
        h.attach_probe(probe)
        run_refs(h, [(D, False), (E, False)])
        h.finish()
        events = read_events(tmp_path / "tail.jsonl")
        assert [e.addr for e in events] == [D, E]

    def test_sampler_attached_mid_run_starts_from_attach_point(self):
        h = build_micro("non-inclusive")
        run_refs(h, [(A, False), (B, False)])
        before = h.loop_stats().llc_loop_samples
        assert before == 0
        h.attach_probe(OccupancySampler(1))
        run_refs(h, [(C, False)])
        assert h.loop_stats().llc_loop_samples > before

    def test_attach_does_not_perturb_existing_probes(self):
        refs = [(A, True), (B, False), (C, True), (A, False), (D, False)]
        baseline = build_micro("non-inclusive")
        run_refs(baseline, refs)
        baseline.finish()

        class Silent(Probe):
            def on_access(self, core, addr, is_write):
                pass

        h = build_micro("non-inclusive")
        run_refs(h, refs[:2])
        h.attach_probe(Silent())
        run_refs(h, refs[2:])
        h.finish()
        assert h.stats.accesses == baseline.stats.accesses
        assert h.llc.stats.llc_writes == baseline.llc.stats.llc_writes
        assert h.loop_stats().l2_evictions == baseline.loop_stats().l2_evictions


class TestEmptyLlcOccupancy:
    def test_fresh_llc_reports_zero_occupancy(self):
        h = build_micro("non-inclusive")
        assert h.llc.loop_block_occupancy() == (0, 0)

    def test_empty_snapshot_is_harmless(self):
        # An explicit (0, 0) sample must not skew any loop statistics.
        h = build_micro("non-inclusive")
        h.emit_occupancy_sample(*h.llc.loop_block_occupancy())
        stats = h.loop_stats()
        assert stats.llc_loop_samples == 0
        assert stats.llc_loop_blocks == 0
        h.finish()  # still finalises cleanly

    def test_exclusive_llc_starts_empty_under_sampling(self):
        # Under exclusion the LLC holds nothing until the first L2
        # victim arrives, so early samples genuinely see an empty LLC.
        h = build_micro("exclusive")
        h.attach_probe(OccupancySampler(1))
        run_refs(h, [(A, False)])
        assert h.llc.loop_block_occupancy() == (0, 0)
        assert h.loop_stats().llc_loop_samples == 0
        h.finish()


class TestRedundantFillProbe:
    class _Stats:
        redundant_fills = 0

    def probe(self):
        p = RedundantFillProbe()
        p._llc_stats = self._Stats()
        return p

    def test_events_on_unseen_addresses_are_noops(self):
        p = self.probe()
        p.on_demand_hit(A)
        p.on_llc_evict(B)
        p.on_dirty_victim(C)
        assert p._llc_stats.redundant_fills == 0

    def test_consumed_fill_is_not_redundant(self):
        p = self.probe()
        p.on_llc_fill(A)
        p.on_demand_hit(A)  # the fill was useful
        p.on_dirty_victim(A)
        assert p._llc_stats.redundant_fills == 0

    def test_evicted_fill_is_not_redundant(self):
        p = self.probe()
        p.on_llc_fill(A)
        p.on_llc_evict(A)  # left the LLC before any dirty victim
        p.on_dirty_victim(A)
        assert p._llc_stats.redundant_fills == 0

    def test_overwritten_fresh_fill_counts_exactly_once(self):
        p = self.probe()
        p.on_llc_fill(A)
        p.on_dirty_victim(A)
        p.on_dirty_victim(A)  # already consumed: not double-counted
        assert p._llc_stats.redundant_fills == 1

    def test_bind_targets_the_llc_stats(self):
        h = build_micro("non-inclusive")
        p = RedundantFillProbe()
        p.bind(h)
        assert p._llc_stats is h.llc.stats


def test_loop_probe_tolerates_starting_mid_stream():
    # A LoopProbe attached mid-run sees victims for blocks whose fills
    # it never observed; the tracker must treat those as unknown, not
    # crash or misclassify.
    h = build_micro("non-inclusive")
    run_refs(h, [(A, True), (B, False), (C, False), (D, False)])
    late = LoopProbe()
    h.attach_probe(late)
    run_refs(h, [(E, False), (A, False), (B, True), (C, False)])
    h.finish()
    stats = late.tracker.stats
    assert stats.l2_evictions >= 0
    assert sum(stats.ctc_histogram.values()) >= 0
