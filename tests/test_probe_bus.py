"""Probe-bus equivalence and hot-path substrate invariants.

The refactor that moved instrumentation out of the hierarchy engine and
into ``repro.instr`` probes promises three things, each pinned here:

1. **Bit-identity**: default-instrumented runs reproduce exactly the
   stats the pre-refactor engine produced (golden file
   ``tests/data/seed_hotpath_golden.json``, captured at the seed; one
   multiprogrammed entry per registered policy, the hybrid-only ones on
   a hybrid LLC).
2. **Equivalence**: an explicitly constructed legacy-equivalent probe
   list behaves identically to ``instrumentation="default"``, and a
   probe-free run keeps every mechanical counter unchanged while the
   probe-owned outputs come back empty.
3. **Substrate invariants**: the incrementally maintained loop-block
   occupancy counter matches a brute-force scan, and the coherence
   controller's sharers map matches the actual L2 contents.

The golden also pins the result cache's semantics version: each
``CACHE_SCHEMA_VERSION`` is bound to the digest of the golden it was
released with, so changing results without a version bump fails here.
"""

import hashlib
import json
import random
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.arena import registry
from repro.errors import ConfigurationError
from repro.exec import CACHE_SCHEMA_VERSION
from repro.instr import (
    PROBE_EVENTS,
    LoopProbe,
    OccupancySampler,
    Probe,
    ProbeBus,
    RedundantFillProbe,
    make_probes,
)
from repro.sim.simulator import Simulator
from repro.sim.system import SystemConfig
from repro.testing import build_micro, run_refs
from repro.workloads.mixes import make_multithreaded, make_table3_mix

GOLDEN_PATH = Path(__file__).parent / "data" / "seed_hotpath_golden.json"

#: SHA-256 of the golden's canonical JSON, per cache semantics version.
GOLDEN_DIGESTS = {
    2: "b23e1e7f077e835801da425b8f5020e4e63f73ba5f1ecf9e2ea9c0fcfa69e8fa",
}

MP_POLICIES = ("non-inclusive", "exclusive", "lap")
MT_POLICIES = ("non-inclusive", "exclusive", "inclusive", "lap")


def _norm(value):
    """JSON round-trip normalisation (histogram keys become strings)."""
    if isinstance(value, dict):
        return {str(k): _norm(v) for k, v in value.items()}
    return value


def _run_mp(policy, system=None, **sim_kwargs):
    system = system if system is not None else SystemConfig.scaled()
    wl = make_table3_mix("WL1", system.scale_context(), seed=7)
    sim = Simulator(system, policy, wl, **sim_kwargs)
    sim.run(5000)
    return sim


def _run_mt(policy, system=None, **sim_kwargs):
    system = system if system is not None else SystemConfig.scaled()
    wl = make_multithreaded("canneal", system.scale_context(), nthreads=4, seed=3)
    sim = Simulator(system, policy, wl, **sim_kwargs)
    sim.run(4000)
    return sim


def _snapshot(sim):
    h = sim.hierarchy
    snap = {
        "hier": asdict(h.stats),
        "llc": asdict(h.llc.stats),
        "l2_0": asdict(h.l2s[0].stats),
        "l1_0": asdict(h.l1s[0].stats),
        "loop": asdict(h.loop_stats()),
        "cycles": h.timing.max_cycles,
    }
    if h.coherence is not None:
        snap["coh"] = asdict(h.coherence.stats)
    return snap


def _assert_matches_golden(snapshot, golden_entry, label):
    for key, want in golden_entry.items():
        got = _norm(snapshot[key])
        if isinstance(want, dict):
            # Goldens may record a key subset; every recorded key must
            # match exactly.
            got = {k: v for k, v in got.items() if k in want}
        assert got == want, f"{label}/{key} diverged from the seed golden"


class TestGoldenBitIdentity:
    """Default-instrumented runs are bit-identical to the seed."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("policy", registry.names())
    def test_multiprogrammed_matches_seed(self, golden, policy):
        hybrid = registry.get(policy).hybrid_only
        system = SystemConfig.scaled(hybrid=True) if hybrid else None
        _assert_matches_golden(
            _snapshot(_run_mp(policy, system=system)), golden[policy], policy
        )

    @pytest.mark.parametrize("policy", MT_POLICIES)
    def test_multithreaded_matches_seed(self, golden, policy):
        _assert_matches_golden(
            _snapshot(_run_mt(policy)), golden[f"mt-{policy}"], f"mt-{policy}"
        )


def test_cache_version_is_bound_to_golden():
    canonical = json.dumps(
        json.loads(GOLDEN_PATH.read_text()), sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    assert GOLDEN_DIGESTS.get(CACHE_SCHEMA_VERSION) == digest, (
        f"{GOLDEN_PATH.name} (sha256 {digest}) does not match the digest "
        f"recorded for CACHE_SCHEMA_VERSION {CACHE_SCHEMA_VERSION}: results "
        "changed, so persisted cache entries are stale. Bump "
        "CACHE_SCHEMA_VERSION in repro/exec/jobs.py and add a "
        "GOLDEN_DIGESTS row for the new version with this digest."
    )


class TestProbeEquivalence:
    """Explicit probe lists and probe-free runs behave as specified."""

    def test_explicit_legacy_set_equals_default(self):
        system = SystemConfig.scaled()
        explicit = [
            LoopProbe(),
            RedundantFillProbe(),
            OccupancySampler(system.occupancy_sample_interval),
        ]
        assert _snapshot(_run_mp("lap", probes=explicit)) == _snapshot(_run_mp("lap"))

    @pytest.mark.parametrize("policy", MP_POLICIES)
    def test_probe_free_keeps_mechanical_stats(self, policy):
        default = _snapshot(_run_mp(policy))
        free = _snapshot(_run_mp(policy, system=SystemConfig.scaled().probe_free()))
        # The only probe-written cache stat is the redundant-fill count.
        assert free["llc"].pop("redundant_fills") == 0
        default["llc"].pop("redundant_fills")
        for key in ("hier", "llc", "l2_0", "l1_0", "cycles"):
            assert free[key] == default[key], f"{policy}/{key} changed without probes"
        # Probe-owned outputs come back empty, not absent.
        assert free["loop"]["l2_evictions"] == 0
        assert free["loop"]["ctc_histogram"] == {}

    def test_probe_free_hierarchy_has_no_handlers(self):
        system = SystemConfig.scaled().probe_free()
        sim = Simulator(system, "non-inclusive", make_table3_mix("WL1", system.scale_context(), seed=7))
        h = sim.hierarchy
        assert len(h.probe_bus) == 0
        for event in PROBE_EVENTS:
            assert h.probe_bus.handlers(event) == ()
        assert h.loop_tracker is None

    def test_make_probes_specs(self):
        assert [p.name for p in make_probes("default")] == ["loop", "redundant-fill"]
        assert [p.name for p in make_probes("default", occupancy_interval=64)] == [
            "loop",
            "redundant-fill",
            "occupancy",
        ]
        for spec in ("none", "off", "", "  NONE "):
            assert make_probes(spec) == []
        assert [p.name for p in make_probes("redundant-fill,loop")] == [
            "redundant-fill",
            "loop",
        ]
        with pytest.raises(ConfigurationError):
            make_probes("no-such-probe")
        with pytest.raises(ConfigurationError):
            make_probes("occupancy")  # needs a positive interval

    def test_system_config_probe_helpers(self):
        system = SystemConfig.scaled()
        assert [p.name for p in system.probes()] == ["loop", "redundant-fill", "occupancy"]
        assert system.probe_free().probes() == []
        assert system.probe_free().label == system.label


class TestProbeBusCompilation:
    """The bus only dispatches to genuinely overridden handlers."""

    def test_empty_bus_compiles_empty_tuples(self):
        bus = ProbeBus()
        for event in PROBE_EVENTS:
            assert bus.handlers(event) == ()

    def test_only_overridden_handlers_are_compiled(self):
        class AccessOnly(Probe):
            def on_access(self, core, addr, is_write):
                pass

        probe = AccessOnly()
        bus = ProbeBus([probe])
        assert bus.handlers("access") == (probe.on_access,)
        for event in PROBE_EVENTS:
            if event != "access":
                assert bus.handlers(event) == ()

    def test_dispatch_order_follows_probe_list(self):
        calls = []

        class Tagged(Probe):
            def __init__(self, tag):
                self.tag = tag

            def on_llc_fill(self, addr):
                calls.append(self.tag)

        bus = ProbeBus([Tagged("first"), Tagged("second")])
        for handler in bus.handlers("llc_fill"):
            handler(0)
        assert calls == ["first", "second"]

    def test_find_and_finish(self):
        loop = LoopProbe()
        bus = ProbeBus([RedundantFillProbe(), loop])
        assert bus.find(LoopProbe) is loop
        assert bus.find(OccupancySampler) is None
        bus.finish()  # finalizes the tracker without error
        assert len(bus) == 2


class TestSubstrateInvariants:
    """Incremental counters stay consistent with brute-force scans."""

    def _scan_occupancy(self, cache):
        valid = loops = 0
        for cache_set in cache.sets:
            for block in cache_set.blocks:
                if block.valid:
                    valid += 1
                    if block.loop_bit:
                        loops += 1
        return valid, loops

    @pytest.mark.parametrize("policy", ["lap", "exclusive"])
    def test_incremental_occupancy_matches_scan(self, policy):
        h = build_micro(policy)
        rng = random.Random(11)
        refs = [(rng.randrange(64) * 64, rng.random() < 0.3) for _ in range(2000)]
        run_refs(h, refs)
        assert h.llc.loop_block_occupancy() == self._scan_occupancy(h.llc)
        for level in (h.l1s[0], h.l2s[0]):
            assert level.loop_block_occupancy() == self._scan_occupancy(level)

    def test_occupancy_tracks_direct_loop_bit_writes(self):
        h = build_micro("lap")
        run_refs(h, [(a * 64, False) for a in range(12)])
        llc = h.llc
        block = next(
            b for s in llc.sets for b in s.blocks if b.valid
        )
        before_valid, before_loops = llc.loop_block_occupancy()
        block.set_loop_bit(not block.loop_bit)
        assert llc.loop_block_occupancy() == self._scan_occupancy(llc)
        block.set_loop_bit(not block.loop_bit)
        assert llc.loop_block_occupancy() == (before_valid, before_loops)

    def test_sharers_map_matches_l2_contents(self):
        sim = _run_mt("lap")
        h = sim.hierarchy
        coherence = h.coherence
        # Rebuild the sharers map from the ground truth (the L2 tag
        # arrays) and compare against the incrementally maintained one.
        rebuilt = {}
        for core, l2 in enumerate(h.l2s):
            for cache_set in l2.sets:
                for tag, block in cache_set.tag_map.items():
                    addr = l2.addr_of(cache_set.index, tag)
                    rebuilt[addr] = rebuilt.get(addr, 0) | (1 << core)
        assert coherence._sharers == rebuilt

    def test_shared_by_peers_uses_sharers_map(self):
        h = build_micro("non-inclusive", ncores=2, enable_coherence=True)
        addr = 0
        h.access(0, addr, False)
        assert h.shared_by_peers(1, addr)
        assert not h.shared_by_peers(0, addr)
        h.access(1, addr, False)
        assert h.shared_by_peers(0, addr)
