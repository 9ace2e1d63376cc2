"""Tests for the dynamic switching baselines (FLEXclusion, Dswitch)."""

from repro.inclusion.switching import (
    MODE_EX,
    MODE_NONI,
    DswitchPolicy,
    FLEXclusionPolicy,
)
from tests.conftest import A, B, C, D, E, F, G, H, build_micro, run_refs


def reads(*addrs):
    return [(a, False) for a in addrs]


def writes(*addrs):
    return [(a, True) for a in addrs]


class TestDecisionFunctions:
    def test_flex_picks_exclusion_on_capacity_benefit(self):
        pol = FLEXclusionPolicy()
        assert pol.winner_fn()(miss_noni=100, write_noni=0, miss_ex=50, write_ex=500) == MODE_EX

    def test_flex_ignores_writes(self):
        """FLEXclusion is write-blind: huge exclusive write traffic does
        not deter it when capacity wins (the paper's criticism)."""
        pol = FLEXclusionPolicy()
        assert pol.winner_fn()(100, 0, 80, 10_000) == MODE_EX

    def test_flex_prefers_noni_on_ties(self):
        pol = FLEXclusionPolicy()
        assert pol.winner_fn()(100, 0, 100, 0) == MODE_NONI
        assert pol.winner_fn()(100, 0, 99, 0) == MODE_NONI  # within tolerance

    def test_dswitch_weighs_writes(self):
        pol = DswitchPolicy(miss_weight=1.5)
        # same misses, exclusive writes much more -> pick noni
        assert pol.winner_fn()(100, 100, 100, 1000) == MODE_NONI
        # same writes, exclusive misses much less -> pick ex
        assert pol.winner_fn()(100, 100, 10, 100) == MODE_EX

    def test_dswitch_tradeoff_crossover(self):
        pol = DswitchPolicy(miss_weight=1.0)
        # noni: 100 writes + 100 misses = 200; ex: 150 writes + 40 misses = 190
        assert pol.winner_fn()(100, 100, 40, 150) == MODE_EX


class TestSwitchedDataFlow:
    def _policy_in_mode(self, name, mode, **kwargs):
        h = build_micro(name, **kwargs)
        h.policy.dueling.winner = mode
        return h

    def test_noni_mode_fills_on_miss(self):
        h = self._policy_in_mode("flexclusion", MODE_NONI)
        run_refs(h, reads(A))
        assert h.llc.peek(A) is not None

    def test_ex_mode_bypasses_fill(self):
        h = self._policy_in_mode("flexclusion", MODE_EX)
        run_refs(h, reads(A))
        assert h.llc.peek(A) is None

    def test_ex_mode_inserts_clean_victims(self):
        h = self._policy_in_mode("dswitch", MODE_EX)
        run_refs(h, reads(A, B, C, D, E, F, G, H))
        assert h.llc.stats.clean_victim_writes >= 4

    def test_noni_mode_drops_clean_victims(self):
        h = self._policy_in_mode("dswitch", MODE_NONI)
        run_refs(h, reads(A, B, C, D, E, F, G, H))
        assert h.llc.stats.clean_victim_writes == 0

    def test_ex_mode_invalidates_on_hit(self):
        h = self._policy_in_mode("flexclusion", MODE_EX)
        run_refs(h, reads(A, B, C, D, E, F, G, H))
        assert h.llc.peek(A) is not None
        run_refs(h, reads(A))
        assert h.llc.peek(A) is None

    def test_ex_mode_hit_invalidation_preserves_dirty_data(self):
        """Regression: exclusive-mode hit-invalidation must hand a dirty
        LLC copy's writeback obligation up into the L2 fill, exactly as
        the pure exclusive policy does."""
        for name in ("flexclusion", "dswitch"):
            h = self._policy_in_mode(name, MODE_EX)
            run_refs(h, writes(A) + reads(B, C, D, E))  # dirty A in the LLC
            assert h.llc.peek(A).dirty
            run_refs(h, reads(A))  # hit-invalidation
            assert h.llc.peek(A) is None
            assert h.l2s[0].peek(A).dirty, name

    def test_dirty_victims_written_in_both_modes(self):
        for mode in (MODE_NONI, MODE_EX):
            h = self._policy_in_mode("dswitch", mode)
            run_refs(h, writes(A) + reads(B, C, D, E, F, G, H))
            s = h.llc.stats
            assert s.dirty_victim_writes + s.update_writes == 1


class TestSwitchingEndToEnd:
    def test_dswitch_picks_efficient_mode_on_loop_workload(self):
        """On a loop-heavy (WH) workload Dswitch should end up closer to
        non-inclusion than to exclusion in energy."""
        from repro import SystemConfig, make_workload, simulate

        system = SystemConfig.scaled(duel_interval=1024)
        res = {}
        for pol in ("non-inclusive", "exclusive", "dswitch"):
            wl = make_workload("omnetpp", system)
            res[pol] = simulate(system, pol, wl, refs_per_core=6000)
        gap_to_noni = abs(res["dswitch"].epi - res["non-inclusive"].epi)
        gap_to_ex = abs(res["dswitch"].epi - res["exclusive"].epi)
        assert gap_to_noni < gap_to_ex

    def test_flexclusion_tracks_exclusive_performance(self, small_system):
        from repro import make_workload, simulate

        res = {}
        for pol in ("non-inclusive", "exclusive", "flexclusion"):
            wl = make_workload("mcf", small_system)
            res[pol] = simulate(small_system, pol, wl, refs_per_core=8000)
        # FLEXclusion is performance-oriented: within a few percent of
        # the better-performing traditional mode.
        best = max(res["non-inclusive"].throughput, res["exclusive"].throughput)
        assert res["flexclusion"].throughput >= best * 0.95

    def test_leader_sets_stay_in_fixed_modes(self):
        h = build_micro("dswitch", llc_bytes=8192, llc_assoc=4)  # 32 sets
        pol = h.policy
        assert pol.dueling.role(0) is not None
        # leader roles never change regardless of winner
        pol.dueling.winner = MODE_EX
        assert pol.dueling.policy_for(0) == MODE_NONI
        offset = pol.dueling.period // 2
        assert pol.dueling.policy_for(offset) == MODE_EX
