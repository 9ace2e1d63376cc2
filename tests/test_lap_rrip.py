"""Tests for LAP over an SRRIP baseline and the LLC hit-path replacement choice."""

import pytest

from repro.core import LAPPolicy
from repro.errors import ConfigurationError
from tests.conftest import A, B, C, D, E, F, G, H, build_micro, run_refs


def reads(*addrs):
    return [(a, False) for a in addrs]


class TestLapRRIPConstruction:
    def test_registry_name(self):
        from repro.core.policies import make_policy

        assert make_policy("lap-rrip").name == "lap@srrip"

    def test_invalid_baseline_rejected(self):
        with pytest.raises(ConfigurationError):
            LAPPolicy(baseline="fifo")

    def test_baseline_objects(self):
        pol = LAPPolicy(baseline="srrip")
        assert pol._lru.name == "srrip"
        assert "srrip" in pol._loop_aware.name

    def test_lru_default_unchanged(self):
        pol = LAPPolicy()
        assert pol._lru.name == "lru"
        assert pol.name == "lap"


class TestTouchPolicyHook:
    def test_llc_routes_touches_through_policy(self):
        h = build_micro(LAPPolicy(baseline="srrip", replacement_mode="loop"))
        assert h.policy._replacement_override
        # Put A into the LLC, then hit it: SRRIP must promote RRPV to 0.
        run_refs(h, reads(A, B, C, D, E, F, G, H))
        block = h.llc.peek(A)
        block.rrpv = 3
        run_refs(h, reads(A))
        assert h.llc.peek(A).rrpv == 0

    def test_private_caches_keep_default_lru(self):
        # An SRRIP touch would promote RRPV to 0; the private caches'
        # LRU hits leave it alone.
        h = build_micro("lap-rrip")
        run_refs(h, reads(A))
        h.l1s[0].peek(A).rrpv = 3
        h.l2s[0].peek(A).rrpv = 3
        run_refs(h, reads(A))  # L1 hit
        assert h.l1s[0].peek(A).rrpv == 3
        run_refs(h, reads(B, A))  # B takes the one-block L1: L2 hit on A
        assert h.l2s[0].peek(A).rrpv == 3

    def test_data_flow_identical_to_lru_lap(self):
        """The inclusion *data flow* is replacement-agnostic: write
        categories match across baselines on a short trace (where both
        replacement schemes pick the same victims in a half-empty set)."""
        trace = reads(A, B, C, D, E, F, G, H)
        h_lru = build_micro("lap")
        h_rrip = build_micro("lap-rrip")
        run_refs(h_lru, trace)
        run_refs(h_rrip, trace)
        assert h_lru.llc.stats.fill_writes == h_rrip.llc.stats.fill_writes == 0
        assert (
            h_lru.llc.stats.clean_victim_writes
            == h_rrip.llc.stats.clean_victim_writes
        )


class TestLapRRIPEndToEnd:
    def test_saves_energy_like_lru_variant(self, small_system):
        from repro import make_workload, simulate

        res = {}
        for pol in ("non-inclusive", "lap", "lap-rrip"):
            wl = make_workload("omnetpp", small_system)
            res[pol] = simulate(small_system, pol, wl, refs_per_core=6000)
        base = res["non-inclusive"].epi
        assert res["lap-rrip"].epi < base
        # the two baselines should land in the same ballpark
        assert res["lap-rrip"].epi == pytest.approx(res["lap"].epi, rel=0.25)

    def test_no_fills_regardless_of_baseline(self, small_system):
        from repro import make_workload, simulate

        wl = make_workload("mcf", small_system)
        r = simulate(small_system, "lap-rrip", wl, refs_per_core=4000)
        assert r.llc.fill_writes == 0
