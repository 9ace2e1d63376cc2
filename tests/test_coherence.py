"""Tests for the MOESI snooping coherence layer (Fig. 20 substrate)."""

import pytest

from repro.cache.block import (
    STATE_EXCLUSIVE,
    STATE_MODIFIED,
    STATE_OWNED,
    STATE_SHARED,
)
from tests.conftest import A, B, C, D, E, F, G, H, build_micro


def build_mp(policy="non-inclusive", ncores=2, **kw):
    kw.setdefault("llc_bytes", 1024)
    return build_micro(policy, ncores=ncores, enable_coherence=True, **kw)


class TestStates:
    def test_first_reader_gets_exclusive(self):
        h = build_mp()
        h.access(0, A, False)
        assert h.l2s[0].peek(A).state == STATE_EXCLUSIVE

    def test_second_reader_gets_shared_and_downgrades(self):
        h = build_mp()
        h.access(0, A, False)
        h.access(1, A, False)
        assert h.l2s[1].peek(A).state == STATE_SHARED
        assert h.l2s[0].peek(A).state == STATE_SHARED

    def test_writer_gets_modified(self):
        h = build_mp()
        h.access(0, A, True)
        assert h.l2s[0].peek(A).state == STATE_MODIFIED

    def test_write_invalidates_peers(self):
        h = build_mp()
        h.access(0, A, False)
        h.access(1, A, False)
        h.access(0, A, True)
        assert h.l2s[1].peek(A) is None
        assert h.l2s[0].peek(A).state == STATE_MODIFIED
        assert h.coherence.stats.invalidation_messages >= 1

    def test_reader_downgrades_modified_owner_to_owned(self):
        h = build_mp("exclusive")  # LLC miss path exercises snooping
        h.access(0, A, True)  # core 0 has M
        h.access(1, A, False)  # core 1 reads: c2c supply
        assert h.l2s[0].peek(A).state == STATE_OWNED
        assert h.l2s[1].peek(A).state == STATE_SHARED
        assert h.coherence.stats.cache_to_cache == 1

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: a store to an Owned line neither upgrades nor "
        "invalidates peers (on_store runs only on the first dirtying store); "
        "the fix changes Fig. 20 numbers and waits for a semantics version",
    )
    def test_store_to_owned_line_upgrades(self):
        h = build_mp()
        h.access(0, A, True)  # core 0: M
        h.access(1, A, False)  # core 1 reads: core 0 M -> O, core 1 S
        assert h.l2s[0].peek(A).state == STATE_OWNED
        h.access(0, A, True)  # the owner writes again: O -> M
        assert h.coherence.stats.upgrades == 1
        assert h.l2s[0].peek(A).state == STATE_MODIFIED
        assert h.l2s[1].peek(A) is None

    def test_upgrade_counts(self):
        h = build_mp()
        h.access(0, A, False)
        h.access(1, A, False)
        before = h.coherence.stats.upgrades
        h.access(0, A, True)  # S -> M upgrade
        assert h.coherence.stats.upgrades == before + 1


class TestNoStaleLLCInvariant:
    def test_store_invalidates_llc_duplicate(self):
        h = build_mp("non-inclusive")
        h.access(0, A, False)  # miss fills the LLC
        assert h.llc.peek(A) is not None
        h.access(0, A, True)  # store: the LLC copy is now stale
        assert h.llc.peek(A) is None

    def test_invariant_holds_under_random_traffic(self):
        import random

        rng = random.Random(42)
        h = build_mp("non-inclusive", ncores=2)
        addrs = [i * 64 for i in range(12)]
        for _ in range(400):
            h.access(rng.randrange(2), rng.choice(addrs), rng.random() < 0.3)
        for core in range(2):
            for addr in addrs:
                block = h.l2s[core].peek(addr)
                if block is not None and block.dirty:
                    assert h.llc.peek(addr) is None, (
                        f"LLC holds a stale copy of {addr:#x} while core "
                        f"{core} has it dirty"
                    )


class TestSnoopAccounting:
    def test_llc_hit_read_needs_no_broadcast(self):
        h = build_mp("non-inclusive")
        h.access(0, A, False)  # miss: one broadcast
        before = h.coherence.stats.snoop_broadcasts
        h.access(0, E, False)
        h.access(0, F, False)
        h.access(0, G, False)
        h.access(0, H, False)  # evict A from L2
        broadcasts_evictions = h.coherence.stats.snoop_broadcasts - before
        before = h.coherence.stats.snoop_broadcasts
        h.access(0, A, False)  # LLC hit: no snoop needed
        assert h.coherence.stats.snoop_broadcasts == before

    def test_llc_miss_broadcasts(self):
        h = build_mp("exclusive")
        before = h.coherence.stats.snoop_broadcasts
        h.access(0, A, False)  # exclusive LLC: miss -> snoop
        assert h.coherence.stats.snoop_broadcasts == before + 1

    def test_c2c_supply_avoids_memory(self):
        h = build_mp("exclusive")
        h.access(0, A, False)
        mem_before = h.stats.mem_reads
        h.access(1, A, False)  # supplied by core 0's L2
        assert h.stats.mem_reads == mem_before

    def test_peer_invalidation_back_invalidates_l1(self):
        h = build_mp()
        h.access(0, A, False)
        assert h.l1s[0].peek(A) is not None
        h.access(1, A, True)
        assert h.l1s[0].peek(A) is None
        assert h.l2s[0].peek(A) is None


class TestSharedExclusiveRelaxation:
    def test_exclusive_keeps_shared_lines_on_hit(self):
        h = build_mp("exclusive")
        # Core 1 reads A and keeps it; core 0 evicts its copy into LLC.
        h.access(0, A, False)
        h.access(1, A, False)
        for x in (E, F, G, H):
            h.access(0, x, False)  # core 0 evicts A (clean) -> into LLC
        assert h.llc.peek(A) is not None
        h.access(0, A, False)  # LLC hit while core 1 still holds A
        assert h.llc.peek(A) is not None, "shared line must stay resident"

    def test_exclusive_invalidates_unshared_lines_on_hit(self):
        h = build_mp("exclusive", ncores=2)
        h.access(0, A, False)
        for x in (E, F, G, H):
            h.access(0, x, False)
        assert h.llc.peek(A) is not None
        h.access(0, A, False)  # nobody else holds A
        assert h.llc.peek(A) is None


class TestMultithreadedIntegration:
    def test_simulator_enables_coherence_for_threads(self, small_system):
        from repro import make_workload
        from repro.sim.simulator import Simulator

        wl = make_workload("streamcluster", small_system)
        sim = Simulator(small_system, "lap", wl)
        assert sim.hierarchy.coherence is not None
        result = sim.run(1500)
        assert result.snoop_traffic > 0

    def test_simulator_skips_coherence_for_multiprogrammed(self, small_system):
        from repro import make_workload
        from repro.sim.simulator import Simulator

        wl = make_workload("mcf", small_system)
        sim = Simulator(small_system, "lap", wl)
        assert sim.hierarchy.coherence is None
