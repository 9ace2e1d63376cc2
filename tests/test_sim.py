"""Tests for SystemConfig, Simulator, runner, and RunResult."""

import gc
import weakref

import pytest

from repro import SystemConfig, make_workload, simulate
from repro.arena import registry
from repro.energy import SRAM, STT_RAM
from repro.errors import SimulationError, WorkloadError
from repro.exec import WorkloadSpec
from repro.inclusion.switching import MODE_EX, MODE_NONI
from repro.sim.runner import normalized, run_matrix, run_policies
from repro.sim.simulator import Simulator


class TestSystemConfig:
    def test_scaled_geometry(self):
        s = SystemConfig.scaled()
        assert s.hierarchy.llc.size_bytes == 128 * 1024
        assert s.leakage_compensation > 1

    def test_table2_uses_raw_leakage(self):
        s = SystemConfig.table2()
        assert s.leakage_compensation == 1.0
        assert s.hierarchy.llc.size_bytes == 8 * 1024 * 1024

    def test_scale_context_matches_hierarchy(self):
        s = SystemConfig.scaled()
        ctx = s.scale_context()
        assert ctx.l2_bytes == s.hierarchy.l2.size_bytes
        assert ctx.llc_bytes == s.hierarchy.llc.size_bytes

    def test_energy_model_homogeneous_stt(self):
        s = SystemConfig.scaled()
        m = s.energy_model()
        assert m.stt_bytes == s.hierarchy.llc.size_bytes
        assert m.sram_bytes == 0

    def test_energy_model_hybrid_split(self):
        s = SystemConfig.scaled(hybrid=True)
        m = s.energy_model()
        assert m.sram_bytes == s.hierarchy.llc.size_bytes // 4
        assert m.stt_bytes == 3 * s.hierarchy.llc.size_bytes // 4

    def test_with_tech_swaps_llc(self):
        s = SystemConfig.scaled().with_tech(STT_RAM.with_write_read_ratio(12))
        assert s.hierarchy.llc.tech.write_read_ratio == pytest.approx(12)

    def test_sram_system(self):
        s = SystemConfig.scaled(tech=SRAM)
        m = s.energy_model()
        assert m.stt_bytes == 0 and m.sram_bytes == s.hierarchy.llc.size_bytes


class TestSimulator:
    def test_core_count_mismatch_rejected(self, small_system):
        wl = make_workload("mcf", small_system)
        bigger = SystemConfig.scaled(ncores=4)
        with pytest.raises(SimulationError):
            Simulator(bigger, "lap", wl)

    def test_zero_refs_rejected(self, small_system):
        wl = make_workload("mcf", small_system)
        with pytest.raises(SimulationError):
            Simulator(small_system, "lap", wl).run(0)

    def test_policy_instance_accepted(self, small_system):
        from repro.core import LAPPolicy

        wl = make_workload("mcf", small_system)
        r = Simulator(small_system, LAPPolicy(), wl).run(500)
        assert r.policy == "lap"

    def test_deterministic_runs(self, small_system):
        r1 = simulate(small_system, "lap", make_workload("astar", small_system), 2000)
        r2 = simulate(small_system, "lap", make_workload("astar", small_system), 2000)
        assert r1.epi == r2.epi
        assert r1.llc.snapshot() == r2.llc.snapshot()

    def test_instructions_scale_with_instr_per_ref(self, small_system):
        wl = make_workload("mcf", small_system)
        ipr = wl.generators[0].instr_per_ref
        r = simulate(small_system, "non-inclusive", wl, 1000)
        assert r.instructions == int(1000 * ipr * small_system.hierarchy.ncores)

    def test_cycles_positive_and_bounded(self, small_system):
        r = simulate(small_system, "non-inclusive", make_workload("mcf", small_system), 1000)
        assert r.cycles > 0
        worst = r.instructions * (1 + small_system.hierarchy.mem_latency)
        assert r.cycles < worst

    def test_unknown_workload_raises(self, small_system):
        with pytest.raises(WorkloadError):
            make_workload("gcc", small_system)

    def test_duel_interval_reaches_only_dueling_policies(self, small_system):
        from repro.arena import registry

        assert registry.get("lap").accepts("duel_interval")
        assert registry.get("dswitch").accepts("duel_interval")
        assert not registry.get("non-inclusive").accepts("duel_interval")
        wl = make_workload("mcf", small_system)
        sim = Simulator(small_system, "lap", wl)
        assert sim.policy._duel_interval == small_system.duel_interval
        assert Simulator(small_system, "non-inclusive", wl).policy.name == "non-inclusive"

    def test_policy_constructor_type_error_surfaces(self, small_system):
        """A TypeError raised *inside* a policy constructor is a bug and
        must surface, not trigger a retry without ``duel_interval``."""
        from repro.arena import registry
        from repro.core import LAPPolicy

        class BuggyLAP(LAPPolicy):
            def __init__(self, duel_interval: int = 4096, **kwargs):
                if duel_interval != 4096:
                    len(duel_interval)  # the bug: TypeError on int
                super().__init__(duel_interval=duel_interval, **kwargs)

        wl = make_workload("mcf", small_system)
        assert small_system.duel_interval != 4096
        with registry.overridden("lap", BuggyLAP):
            with pytest.raises(TypeError, match="has no len"):
                Simulator(small_system, "lap", wl)

    @pytest.mark.parametrize(
        "policy, workload",
        [("lap", "WL1"), ("dswitch", "canneal"), ("inclusive", "WL2")],
    )
    def test_finished_job_is_freed_without_the_cycle_collector(
        self, monkeypatch, policy, workload
    ):
        """``JobSpec.run`` (through ``simulate``) unbinds its hierarchy:
        the policy, the probes and the coherence controller no longer
        point back at it, so it dies when the call returns."""
        import gc
        import weakref

        from repro.exec import JobSpec
        from repro.hierarchy.hierarchy import CacheHierarchy

        built = []
        real_init = CacheHierarchy.__init__

        def tracking_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            built.append(weakref.ref(self))

        monkeypatch.setattr(CacheHierarchy, "__init__", tracking_init)
        job = JobSpec(
            system=SystemConfig.scaled(),
            workload=WorkloadSpec.named(workload),
            policy=policy,
            refs_per_core=300,
        )
        gc.collect()
        gc.disable()
        try:
            job.run()
            assert len(built) == 1
            assert built[0]() is None
        finally:
            gc.enable()


def _parts(hierarchy):
    """Weak references to a hierarchy, its policy, its LLC and any duel."""
    parts = [hierarchy, hierarchy.policy, hierarchy.llc]
    dueling = getattr(hierarchy.policy, "dueling", None)
    if dueling is not None:
        parts.append(dueling)
    return [weakref.ref(part) for part in parts]


def _alive(parts):
    return [type(ref()).__name__ for ref in parts if ref() is not None]


class TestFreedWithoutTheCycleCollector:
    """No part of a hierarchy points back at it, so whoever owns a
    finished one frees it by reference counting alone."""

    @pytest.fixture(autouse=True)
    def _no_collector(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    @pytest.mark.parametrize("policy", registry.names())
    def test_finished_simulator_is_freed(self, policy):
        system = SystemConfig.scaled(hybrid=registry.get(policy).hybrid_only)
        sim = Simulator(system, policy, make_workload("WL1", system))
        sim.run(300)
        parts = _parts(sim.hierarchy)
        del sim
        assert _alive(parts) == []

    def test_finished_coherent_simulator_is_freed(self):
        system = SystemConfig.scaled()
        sim = Simulator(system, "dswitch", make_workload("canneal", system))
        sim.run(300)
        assert sim.hierarchy.coherence is not None
        parts = _parts(sim.hierarchy)
        del sim
        assert _alive(parts) == []

    @pytest.mark.parametrize("policy", registry.check_names())
    def test_checked_hierarchy_is_freed(self, policy):
        """The ``repro check`` path: a hierarchy with the invariant probe."""
        from repro.validate import InvariantProbe, generate_trace, run_trace

        trace = generate_trace(3, refs=400, ncores=2)
        h = run_trace(policy, trace, ncores=2, enable_coherence=True)
        probe = h.probe_bus.find(InvariantProbe)
        assert probe is not None and sum(probe.counts.values()) > 0
        parts = _parts(h)
        del h
        assert _alive(parts) == []


class TestPolicyInstanceAfterSimulate:
    @pytest.mark.parametrize("name", ["ways-off", "dswitch", "lap"])
    def test_policy_still_describes_its_run(self, small_system, name):
        """A policy instance passed to ``simulate()`` keeps answering for
        the run: its stats match the result's, its per-set choices work."""
        policy = registry.make(name)
        result = simulate(small_system, policy, make_workload("mcf", small_system), 2000)
        stats = policy.extra_stats()
        assert stats == {key: result.extra[key] for key in stats}
        if name == "ways-off":
            assert stats["llc_ways_total"] == small_system.hierarchy.llc.assoc
            assert policy.llc_active_fraction == 0.5
        dueling = getattr(policy, "dueling", None)
        if dueling is not None:
            assert dueling.stats.decisions_a == result.extra["duel_decisions_a"]
            assert dueling.stats.decisions_b == result.extra["duel_decisions_b"]
        for set_index in range(4):
            policy.replacement_for(set_index)
        if name == "dswitch":
            assert policy.mode_for(0) in (MODE_NONI, MODE_EX)


class TestRunResult:
    @pytest.fixture
    def result(self, small_system):
        return simulate(
            small_system, "non-inclusive", make_workload("astar", small_system), 2500
        )

    def test_mpki_consistent(self, result):
        assert result.mpki == pytest.approx(
            result.llc_misses / (result.instructions / 1000)
        )

    def test_throughput_is_sum_of_ipcs(self, result):
        ipcs = [
            i / c for i, c in zip(result.core_instructions, result.core_cycles)
        ]
        assert result.throughput == pytest.approx(sum(ipcs))

    def test_write_breakdown_sums_to_total(self, result):
        assert sum(result.write_breakdown().values()) == result.llc_writes

    def test_summary_keys(self, result):
        s = result.summary()
        assert {"epi", "mpki", "throughput", "llc_writes"} <= set(s)

    def test_hit_accounting_identity(self, result):
        s = result.llc
        assert s.hits + s.misses == s.lookups


class TestRunner:
    def test_run_policies_same_trace(self, small_system):
        res = run_policies(
            small_system,
            ("non-inclusive", "exclusive"),
            WorkloadSpec.duplicate("astar", ncores=2),
            refs_per_core=1500,
        )
        # identical traces: L2-side behaviour must match exactly. The
        # clean/dirty victim *split* is policy-dependent — exclusive
        # fills inherit the dirty bit of hit-invalidated LLC copies, so
        # it re-evicts some lines dirty that non-inclusion (which keeps
        # the dirty copy in the LLC) re-evicts clean — but the victim
        # stream itself is identical.
        noni, ex = res["non-inclusive"], res["exclusive"]
        assert noni.hier.accesses == ex.hier.accesses
        assert noni.hier.l2_hits == ex.hier.l2_hits
        assert (
            noni.hier.l2_clean_victims + noni.hier.l2_dirty_victims
            == ex.hier.l2_clean_victims + ex.hier.l2_dirty_victims
        )
        assert ex.hier.l2_dirty_victims >= noni.hier.l2_dirty_victims

    def test_normalized_metric(self, small_system):
        res = run_policies(
            small_system,
            ("non-inclusive", "lap"),
            WorkloadSpec.duplicate("omnetpp", ncores=2),
            refs_per_core=2500,
        )
        norm = normalized(res, "llc_writes")
        assert norm["non-inclusive"] == 1.0
        assert norm["lap"] < 1.0

    def test_run_matrix_shape(self, small_system):
        out = run_matrix(
            small_system,
            ("non-inclusive",),
            {
                "a": WorkloadSpec.duplicate("mcf", ncores=2),
                "b": WorkloadSpec.duplicate("lbm", ncores=2),
            },
            refs_per_core=600,
        )
        assert set(out) == {"a", "b"}
        assert set(out["a"]) == {"non-inclusive"}

    def test_multithreaded_spec(self, small_system):
        r = run_policies(
            small_system, ("lap",), WorkloadSpec.multithreaded("dedup", nthreads=2), 800
        )["lap"]
        assert r.snoop_traffic > 0

    def test_benchmarks_builder_names(self, small_system):
        r = run_policies(
            small_system, ("lap",), WorkloadSpec.multiprogrammed(["mcf", "lbm"]), 500
        )["lap"]
        assert r.workload == "mcf+lbm"

    def test_mix_builder_requires_four_cores(self):
        system = SystemConfig.scaled()  # 4 cores
        r = run_policies(system, ("non-inclusive",), WorkloadSpec.mix("WH1"), 400)["non-inclusive"]
        assert r.workload == "WH1"
