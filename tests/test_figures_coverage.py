"""Structural smoke tests for every figure-assembly function.

Each paper figure's assembly code runs on a reduced workload subset and
its output structure is checked, so harness regressions are caught in
the fast test-suite rather than only during the long benchmark run.
"""

import pytest

import repro.analysis.figures as F
from repro.exec import ResultCache, set_active_cache
from repro.sim.simulator import Simulator

REFS = 2000


class TestMotivationFigures:
    def test_fig2(self):
        sram, stt = F.fig2_motivation(refs=REFS, benchmarks=("libquantum",))
        assert set(sram) == set(stt) == {"libquantum"}
        assert stt["libquantum"]["ex_epi"] > 0
        assert "rel_writes" in stt["libquantum"]


class TestMixFigures:
    MIXES = ("WL3", "WH5")

    def test_fig12(self):
        sram, stt = F.fig12_noni_vs_ex(refs=REFS, mixes=self.MIXES)
        for rows in (sram, stt):
            assert set(rows) == set(self.MIXES)
        assert 0 < stt["WL3"]["noni_static_share"] < 1

    def test_fig14(self):
        epi, dyn, perf = F.fig14_policy_comparison(
            refs=REFS, mixes=self.MIXES, policies=("non-inclusive", "lap")
        )
        for rows in (epi, dyn, perf):
            assert rows["WL3"]["non-inclusive"] == 1.0
        assert epi["WL3"]["lap"] > 0

    def test_fig16(self):
        rows = F.fig16_loop_occupancy(
            refs=REFS, mixes=("WH5",), policies=("non-inclusive", "lap")
        )
        assert 0 <= rows["WH5"]["lap"] <= 1

    def test_fig18(self):
        rows = F.fig18_mpki(refs=REFS, mixes=("WL3",))
        assert rows["WL3"]["non-inclusive"] == 1.0

    def test_fig19(self):
        rows = F.fig19_lap_variants(refs=REFS, mixes=("WH5",))
        assert {"lap-lru", "lap-loop", "lap"} <= set(rows["WH5"])

    def test_run_cache_reuses_results(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real_run = Simulator.run

        def counting_run(self, *args, **kwargs):
            calls["n"] += 1
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", counting_run)
        previous = set_active_cache(ResultCache(tmp_path))
        try:
            first = F.fig18_mpki(refs=REFS, mixes=("WL3",))
            simulated = calls["n"]
            second = F.fig18_mpki(refs=REFS, mixes=("WL3",))
        finally:
            set_active_cache(previous)
        assert simulated == 3  # non-inclusive, exclusive, lap
        assert calls["n"] == simulated, "the repeat must be served from the cache"
        assert second == first


class TestMultithreadedFigure:
    def test_fig20(self):
        energy, perf, snoop = F.fig20_multithreaded(
            refs=1200,
            benchmarks=("dedup",),
            policies=("non-inclusive", "lap"),
        )
        assert energy["dedup"]["non-inclusive"] == 1.0
        assert perf["dedup"]["lap"] > 0
        assert snoop["dedup"]["lap"] > 0


class TestSensitivityFigures:
    def test_fig21(self):
        rows = F.fig21_capacity_ratio(
            refs=1200, mixes=("WL3",), policies=("non-inclusive", "lap")
        )
        assert set(rows) == {"L2:L3=1:8", "L2:L3=1:4", "L2:L3=1:2", "2x LLC"}

    def test_fig22(self):
        rows = F.fig22_core_count(refs=1200, policies=("non-inclusive", "lap"))
        assert set(rows) == {"4-core", "8-core"}
        assert rows["8-core"]["lap"] > 0


class TestHybridFigures:
    def test_fig24(self):
        rows = F.fig24_hybrid(
            refs=REFS, mixes=("WL3",), policies=("non-inclusive", "lhybrid")
        )
        assert rows["WL3"]["lhybrid"] > 0

    def test_fig25(self):
        rows = F.fig25_lhybrid_stages(
            refs=REFS, mixes=("WL3",), policies=("lap", "lhybrid")
        )
        assert {"lap", "lhybrid"} == set(rows["WL3"])


class TestFig21FixedWorkloads:
    """Fig. 21 varies the caches under fixed applications: its workloads
    are built at the baseline geometry whatever system runs them, and
    its runs go through the engine and its cache."""

    MIX = "WL3"
    POLICIES = ("non-inclusive", "lap")

    def fig21(self):
        return F.fig21_capacity_ratio(refs=1200, mixes=(self.MIX,), policies=self.POLICIES)

    def test_workloads_do_not_rescale_with_swept_llc(self):
        from repro.sim import SystemConfig, normalized, simulate
        from repro.workloads.mixes import make_table3_mix

        base_ctx = SystemConfig.scaled().scale_context()
        systems = {
            "L2:L3=1:8": SystemConfig.scaled(l2_kb=4, llc_kb=128),
            "L2:L3=1:4": SystemConfig.scaled(l2_kb=8, llc_kb=128),
            "L2:L3=1:2": SystemConfig.scaled(l2_kb=16, llc_kb=128),
            "2x LLC": SystemConfig.scaled(l2_kb=8, llc_kb=256),
        }
        expected = {}
        for label, system in systems.items():
            res = {
                p: simulate(system, p, make_table3_mix(self.MIX, base_ctx, seed=0), 1200)
                for p in self.POLICIES
            }
            expected[label] = normalized(res, "epi")
        assert self.fig21() == expected

    def test_warm_cache_simulates_nothing(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real_run = Simulator.run

        def counting_run(self, *args, **kwargs):
            calls["n"] += 1
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", counting_run)
        previous = set_active_cache(ResultCache(tmp_path))
        try:
            first = self.fig21()
            simulated = calls["n"]
            second = self.fig21()
        finally:
            set_active_cache(previous)
        assert simulated == 4 * len(self.POLICIES)
        assert calls["n"] == simulated, "the repeat must be served from the cache"
        assert second == first

    def test_scale_equal_to_system_context_shares_the_key(self):
        from repro.exec import JobSpec, WorkloadSpec
        from repro.sim import SystemConfig

        system = SystemConfig.scaled()
        plain = JobSpec(system, WorkloadSpec.mix(self.MIX), "lap", 1200)
        pinned = JobSpec(
            system, WorkloadSpec.mix(self.MIX, scale=system.scale_context()), "lap", 1200
        )
        assert pinned.key() == plain.key()
        assert "scale" not in plain.to_dict()["workload"]
        big = SystemConfig.scaled(llc_kb=256)
        moved = JobSpec(big, WorkloadSpec.mix(self.MIX, scale=system.scale_context()), "lap", 1200)
        assert moved.key() != JobSpec(big, WorkloadSpec.mix(self.MIX), "lap", 1200).key()
        assert JobSpec.from_dict(moved.to_dict()) == moved