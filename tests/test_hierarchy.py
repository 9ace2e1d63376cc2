"""Tests for hierarchy mechanics: configs, L1⊆L2, store propagation,
timing, and instrumentation plumbing."""

import pytest

from repro.energy import SRAM, STT_RAM
from repro.errors import ConfigurationError, SimulationError
from repro.hierarchy import (
    HierarchyConfig,
    LevelConfig,
    LLCLevelConfig,
    TimingModel,
    scaled_config,
    table2_config,
)
from repro.hierarchy.timing import BankModel
from tests.conftest import A, B, C, D, E, F, G, H, build_micro, run_refs


def reads(*addrs):
    return [(a, False) for a in addrs]


def writes(*addrs):
    return [(a, True) for a in addrs]


class TestConfigs:
    def test_table2_matches_paper(self):
        cfg = table2_config()
        assert cfg.ncores == 4
        assert cfg.l1.size_bytes == 32 * 1024
        assert cfg.l2.size_bytes == 512 * 1024
        assert cfg.llc.size_bytes == 8 * 1024 * 1024
        assert cfg.llc.assoc == 16 and cfg.llc.banks == 4

    def test_table2_hybrid_partition(self):
        cfg = table2_config(hybrid=True)
        assert cfg.llc.sram_ways == 4
        assert cfg.llc.sram_bytes == 2 * 1024 * 1024
        assert cfg.llc.stt_bytes == 6 * 1024 * 1024

    def test_scaled_preserves_l2_l3_ratio(self):
        cfg = scaled_config()
        assert cfg.ncores * cfg.l2.size_bytes * 4 == cfg.llc.size_bytes

    def test_scaled_capacity_knobs(self):
        cfg = scaled_config(l2_kb=16, llc_kb=256)
        assert cfg.l2.size_bytes == 16 * 1024
        assert cfg.llc.size_bytes == 256 * 1024

    def test_with_llc_replaces_fields(self):
        cfg = scaled_config()
        scaled = cfg.with_llc(tech=SRAM)
        assert scaled.llc.tech is SRAM
        assert cfg.llc.tech is STT_RAM

    def test_invalid_ncores_rejected(self):
        with pytest.raises(ConfigurationError):
            HierarchyConfig(
                ncores=0,
                block_size=64,
                l1=LevelConfig(1024, 4, 1),
                l2=LevelConfig(4096, 8, 2),
                llc=LLCLevelConfig(65536, 16, 4, STT_RAM),
            )

    def test_homogeneous_sram_llc_bytes(self):
        cfg = scaled_config(tech=SRAM)
        assert cfg.llc.sram_bytes == cfg.llc.size_bytes
        assert cfg.llc.stt_bytes == 0


class TestL1L2Mechanics:
    def test_l1_inclusion_within_core(self):
        h = build_micro("non-inclusive")
        import itertools

        pattern = list(itertools.islice(itertools.cycle([A, B, C, D, E, F]), 60))
        run_refs(h, [(a, i % 4 == 0) for i, a in enumerate(pattern)])
        l1 = set(h.l1s[0].resident_addrs())
        l2 = set(h.l2s[0].resident_addrs())
        assert l1 <= l2, "L1 must stay a subset of its L2"

    def test_store_propagates_dirty_to_l2(self):
        h = build_micro("non-inclusive")
        run_refs(h, writes(A))
        assert h.l2s[0].peek(A).dirty

    def test_store_to_l1_hit_also_dirties_l2(self):
        h = build_micro("non-inclusive")
        run_refs(h, reads(A))  # A in L1 and L2, clean
        assert not h.l2s[0].peek(A).dirty
        run_refs(h, writes(A))  # L1 hit
        assert h.l2s[0].peek(A).dirty

    def test_l1_hit_counts(self):
        h = build_micro("non-inclusive")
        run_refs(h, reads(A, A, A))
        assert h.stats.l1_hits == 2

    def test_l2_hit_counts(self):
        h = build_micro("non-inclusive", l1_bytes=64)
        run_refs(h, reads(A, B))  # B evicts A from the 1-block L1
        run_refs(h, reads(A))  # L1 miss, L2 hit
        assert h.stats.l2_hits == 1

    def test_accesses_and_stores_counted(self):
        h = build_micro("non-inclusive")
        run_refs(h, reads(A, B) + writes(C))
        assert h.stats.accesses == 3
        assert h.stats.stores == 1


class TestBankModel:
    def test_no_stall_when_free(self):
        b = BankModel(2)
        assert b.access(0, now=10.0, service=5.0, is_write=False) == 0.0
        assert b.busy_until[0] == 15.0

    def test_stall_when_busy(self):
        b = BankModel(1)
        b.access(0, now=0.0, service=10.0, is_write=True)
        stall = b.access(0, now=4.0, service=2.0, is_write=False)
        assert stall == 6.0
        assert b.read_stall_cycles == 6.0

    def test_banks_independent(self):
        b = BankModel(2)
        b.access(0, now=0.0, service=100.0, is_write=True)
        assert b.access(1, now=0.0, service=5.0, is_write=False) == 0.0


class TestTimingModel:
    def _model(self):
        return TimingModel(scaled_config())

    def test_l2_hit_advances_clock(self):
        t = self._model()
        t.l2_hit(0)
        assert t.core_cycles[0] == t.l2_latency

    def test_memory_access_derated_by_mlp(self):
        t = self._model()
        stall = t.memory_access(0)
        full = t.l2_latency + t.llc_read_latency + t.mem_latency
        assert stall == pytest.approx(full * t.mlp_exposure)

    def test_stt_write_occupies_bank_longer_than_sram(self):
        t = self._model()
        t.llc_write(0, bank=0, tech="stt")
        stt_busy = t.banks.busy_until[0]
        t2 = self._model()
        t2.llc_write(0, bank=0, tech="sram")
        assert stt_busy > t2.banks.busy_until[0]

    def test_write_backpressure_stalls_reads(self):
        t = self._model()
        t.llc_write(0, bank=0, tech="stt")
        stall = t.llc_read(0, bank=0, tech="stt")
        assert stall > t.l2_latency + t.llc_read_latency

    def test_max_cycles_is_slowest_core(self):
        t = self._model()
        t.advance_instructions(0, 100)
        t.advance_instructions(1, 250)
        assert t.max_cycles == 250

    def test_reset_clears_state(self):
        t = self._model()
        t.advance_instructions(0, 10)
        t.llc_write(0, 0, "stt")
        t.reset()
        assert t.max_cycles == 0
        assert all(b == 0 for b in t.banks.busy_until)


class TestInstrumentationPlumbing:
    def test_occupancy_sampling_interval(self):
        from repro.hierarchy import CacheHierarchy
        from repro.core.policies import make_policy
        from tests.conftest import micro_hierarchy_config

        h = CacheHierarchy(
            micro_hierarchy_config(),
            make_policy("non-inclusive"),
            occupancy_sample_interval=4,
        )
        run_refs(h, reads(A, B, C, D, E, F, G, H))
        assert h.loop_tracker.stats.llc_loop_samples > 0

    def test_finish_flushes_tracker(self):
        h = build_micro("lap")
        run_refs(h, reads(A, B, C, D, E, F, G, H))
        run_refs(h, reads(A, B, C, D))
        run_refs(h, reads(E, F, G, H))
        h.finish()
        assert sum(h.loop_tracker.stats.ctc_histogram.values()) > 0

    def test_finish_is_idempotent(self):
        """A second finish() (tests, belt-and-braces callers like
        record_simulation) must not re-run probe or policy finalisation."""
        h = build_micro("lap")
        run_refs(h, reads(A, B, C, D, E, F, G, H))
        run_refs(h, reads(A, B, C, D))
        run_refs(h, reads(E, F, G, H))
        calls = {"probes": 0, "policy": 0}

        def counted(fn, name):
            def wrapper():
                calls[name] += 1
                return fn()
            return wrapper

        h.probe_bus.finish = counted(h.probe_bus.finish, "probes")
        h.policy.end_of_run = counted(h.policy.end_of_run, "policy")
        h.finish()
        histogram = dict(h.loop_tracker.stats.ctc_histogram)
        assert sum(histogram.values()) > 0
        h.finish()
        assert calls == {"probes": 1, "policy": 1}
        assert dict(h.loop_tracker.stats.ctc_histogram) == histogram

    def test_store_without_l2_copy_is_an_error(self):
        h = build_micro("non-inclusive")
        run_refs(h, reads(A))
        h.l2s[0].invalidate(A)  # break the invariant deliberately
        h.l1s[0].peek(A).dirty = False  # keep L1 copy clean
        with pytest.raises(SimulationError):
            h.access(0, A, True)
