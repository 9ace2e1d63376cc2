"""Phase-change adaptation: dynamic policies must actually switch.

The selling point of FLEXclusion/Dswitch is reacting to program phases;
these tests build two-phase workloads (a loop-block phase followed by a
streaming read-modify-write phase) and verify the dueling controllers
switch modes, and that LAP's replacement dueling reacts too.
"""

from repro import SystemConfig, Workload
from repro.sim.simulator import Simulator
from repro.workloads import ConcatTrace, LoopRegion, StreamRegion, SyntheticTrace


def two_phase_generator(ctx, seed, base, phase_len):
    """Loop-heavy phase (favours non-inclusion) then RMW streaming
    (favours exclusion), repeating."""
    loop_phase = SyntheticTrace(
        [(LoopRegion(base, ctx.region_size(3.0), ctx.block_size), 1.0)],
        seed=seed,
        name="loopphase",
    )
    stream_phase = SyntheticTrace(
        [(StreamRegion(base + (1 << 36), ctx.llc_bytes * 16, ctx.block_size,
                       rw_pair=True), 1.0)],
        seed=seed + 1,
        name="streamphase",
    )
    return ConcatTrace([(loop_phase, phase_len), (stream_phase, phase_len)])


def build_two_phase_workload(system, phase_len=6000):
    ctx = system.scale_context()
    gens = [
        two_phase_generator(ctx, seed=10 + c, base=c * ctx.core_span, phase_len=phase_len)
        for c in range(system.hierarchy.ncores)
    ]
    return Workload(
        name="two-phase",
        kind="multiprogrammed",
        generators=gens,
        benchmarks=("two-phase",) * system.hierarchy.ncores,
    )


class TestDswitchPhaseAdaptation:
    def test_switches_in_both_directions(self):
        system = SystemConfig.scaled(duel_interval=768)
        wl = build_two_phase_workload(system)
        sim = Simulator(system, "dswitch", wl)
        sim.run(24_000)
        d = sim.policy.dueling
        assert d.stats.decisions_a > 0, "never chose non-inclusion"
        assert d.stats.decisions_b > 0, "never chose exclusion"

    def test_adapted_policy_beats_worst_static(self):
        system = SystemConfig.scaled(duel_interval=768)
        results = {}
        for policy in ("non-inclusive", "exclusive", "dswitch"):
            wl = build_two_phase_workload(system)
            results[policy] = Simulator(system, policy, wl).run(24_000)
        worst = max(results["non-inclusive"].epi, results["exclusive"].epi)
        assert results["dswitch"].epi < worst

    def test_mode_for_reflects_winner(self):
        system = SystemConfig.scaled(duel_interval=768)
        wl = build_two_phase_workload(system)
        sim = Simulator(system, "dswitch", wl)
        sim.run(3_000)
        pol = sim.policy
        follower_set_addr = 3 * 64  # set 3 is a follower under period 64
        assert pol.mode_for(follower_set_addr) == pol.dueling.winner


class TestLAPPhaseAdaptation:
    def test_lap_replacement_duel_takes_decisions(self):
        system = SystemConfig.scaled(duel_interval=768)
        wl = build_two_phase_workload(system)
        sim = Simulator(system, "lap", wl)
        r = sim.run(18_000)
        assert r.extra["duel_decisions_a"] + r.extra["duel_decisions_b"] >= 5

    def test_lap_still_beats_static_policies_across_phases(self):
        system = SystemConfig.scaled(duel_interval=768)
        results = {}
        for policy in ("non-inclusive", "exclusive", "lap"):
            wl = build_two_phase_workload(system)
            results[policy] = Simulator(system, policy, wl).run(18_000)
        assert results["lap"].epi < results["non-inclusive"].epi
        assert results["lap"].epi < results["exclusive"].epi
