"""The registered policy catalog: every entry, paper-anchored.

This module is pure data — :func:`repro.arena.registry.register` calls
only, loaded lazily by the registry on first use. The same entries
drive ``repro list``, the DESIGN.md §15 catalog table (doc-sync
tested), the default ``repro check`` set, the ``--arena`` grid, and
policy-name validation everywhere a name enters the system (CLI,
JobSpec, ``JobSpec.from_dict``).

Registration order is meaningful: :func:`~repro.arena.registry.names`
and the derived curated sets preserve it, and the differential
harness's default set reads in this order.
"""

from __future__ import annotations

from .registry import PolicyEntry, register

_LAP_PAPER = "LAP (Cheng et al., ISCA 2016)"

register(PolicyEntry(
    name="inclusive",
    factory="repro.inclusion.traditional:InclusivePolicy",
    summary="strictly inclusive LLC with back-invalidation",
    paper=_LAP_PAPER,
    anchor="Fig. 1a",
    rules="miss fills LLC; LLC evictions back-invalidate L1/L2; clean victims dropped",
    check_default=True,
    events=("llc_fill", "dirty_victim", "llc_evict", "mem_writeback"),
    invariants=("inclusion",),
))
register(PolicyEntry(
    name="non-inclusive",
    factory="repro.inclusion.traditional:NonInclusivePolicy",
    summary="baseline inclusion property",
    paper=_LAP_PAPER,
    anchor="Fig. 1b, Table IV",
    rules="miss fills LLC; clean victims dropped; dirty victims insert/update",
    aliases=("noni",),
    check_default=True,
    events=("llc_fill", "dirty_victim", "llc_evict", "mem_writeback"),
))
register(PolicyEntry(
    name="exclusive",
    factory="repro.inclusion.traditional:ExclusivePolicy",
    summary="exclusive LLC: disjoint contents, no fills",
    paper=_LAP_PAPER,
    anchor="Fig. 1c, Table IV",
    rules="no fill; hit invalidates LLC copy; every L2 victim inserted",
    aliases=("ex",),
    check_default=True,
    events=("clean_insert", "dirty_victim", "llc_evict", "mem_writeback"),
    invariants=("exclusion", "no-fill"),
))
register(PolicyEntry(
    name="flexclusion",
    factory="repro.inclusion.switching:FLEXclusionPolicy",
    summary="capacity/bandwidth-driven non-inclusive/exclusive switching",
    paper="FLEXclusion (Sim et al., ISCA 2012) via " + _LAP_PAPER,
    anchor="Table IV",
    rules="set-dueling between noni and ex: leader sets keep their flow; "
          "followers adopt ex only when its leaders miss >= 2% less",
    check_default=True,
    events=("llc_fill", "clean_insert", "dirty_victim", "llc_evict", "mem_writeback"),
))
register(PolicyEntry(
    name="dswitch",
    factory="repro.inclusion.switching:DswitchPolicy",
    summary="write-aware dynamic switching",
    paper=_LAP_PAPER,
    anchor="Table IV",
    rules="like flexclusion, but followers adopt the flow whose leaders "
          "score lower on LLC writes + 0.6 x misses",
    check_default=True,
    events=("llc_fill", "clean_insert", "dirty_victim", "llc_evict", "mem_writeback"),
))
register(PolicyEntry(
    name="lap",
    factory="repro.core.lap:LAPPolicy",
    summary="loop-block-aware inclusion with set-dueled replacement",
    paper=_LAP_PAPER,
    anchor="§III, Fig. 8",
    rules="no fill; no hit-invalidation; clean victims insert only when "
          "no duplicate; loop-bit set-dueling picks LRU vs loop-aware",
    defaults=(("replacement_mode", "duel"),),
    check_default=True,
    events=("clean_insert", "dirty_victim", "llc_evict", "mem_writeback"),
    invariants=("no-fill",),
))
register(PolicyEntry(
    name="lap-lru",
    factory="repro.core.lap:LAPPolicy",
    summary="LAP forced to LRU replacement",
    paper=_LAP_PAPER,
    anchor="§III-B, Fig. 9",
    rules="LAP data flow; replacement pinned to LRU",
    defaults=(("replacement_mode", "lru"),),
    events=("clean_insert", "dirty_victim", "llc_evict", "mem_writeback"),
    invariants=("no-fill",),
))
register(PolicyEntry(
    name="lap-loop",
    factory="repro.core.lap:LAPPolicy",
    summary="LAP forced to loop-aware replacement",
    paper=_LAP_PAPER,
    anchor="§III-B, Fig. 10",
    rules="LAP data flow; replacement pinned to loop-aware victim selection",
    defaults=(("replacement_mode", "loop"),),
    events=("clean_insert", "dirty_victim", "llc_evict", "mem_writeback"),
    invariants=("no-fill",),
))
register(PolicyEntry(
    name="lap-rrip",
    factory="repro.core.lap:LAPPolicy",
    summary="LAP over an SRRIP baseline",
    paper="SRRIP (Jaleel et al., ISCA 2010) via " + _LAP_PAPER,
    anchor="§III-B (baseline generality)",
    rules="LAP data flow; duel baseline is SRRIP-HP instead of LRU",
    defaults=(("replacement_mode", "duel"), ("baseline", "srrip")),
    arena=False,
    events=("clean_insert", "dirty_victim", "llc_evict", "mem_writeback"),
    invariants=("no-fill",),
))
register(PolicyEntry(
    name="lhybrid",
    factory="repro.core.lhybrid:LhybridPolicy",
    summary="LAP + all three hybrid-LLC placement stages",
    paper=_LAP_PAPER,
    anchor="§IV, Fig. 11",
    rules="LAP flow on a hybrid LLC; write-hit invalidation, loop→STT "
          "placement, non-loop→SRAM placement",
    defaults=(("winv", True), ("loop_stt", True), ("nloop_sram", True)),
    hybrid_only=True,
    check_default=True,
    events=("clean_insert", "dirty_victim", "llc_evict", "mem_writeback"),
    invariants=("no-fill",),
))
register(PolicyEntry(
    name="lap+winv",
    factory="repro.core.lhybrid:LhybridPolicy",
    summary="Fig. 25 stage: write-hit invalidation only",
    paper=_LAP_PAPER,
    anchor="§IV-A, Fig. 25",
    rules="LAP flow; store hits to STT-resident lines invalidate and redirect",
    defaults=(("winv", True), ("loop_stt", False), ("nloop_sram", False)),
    hybrid_only=True,
    arena=False,
    events=("clean_insert", "dirty_victim", "llc_evict", "mem_writeback"),
    invariants=("no-fill",),
))
register(PolicyEntry(
    name="lap+loopstt",
    factory="repro.core.lhybrid:LhybridPolicy",
    summary="Fig. 25 stage: loop-blocks to STT-RAM only",
    paper=_LAP_PAPER,
    anchor="§IV-B, Fig. 25",
    rules="LAP flow; loop-block insertions steered to the STT region",
    defaults=(("winv", False), ("loop_stt", True), ("nloop_sram", False)),
    hybrid_only=True,
    arena=False,
    events=("clean_insert", "dirty_victim", "llc_evict", "mem_writeback"),
    invariants=("no-fill",),
))
register(PolicyEntry(
    name="lap+nloopsram",
    factory="repro.core.lhybrid:LhybridPolicy",
    summary="Fig. 25 stage: non-loop-blocks to SRAM only",
    paper=_LAP_PAPER,
    anchor="§IV-B, Fig. 25",
    rules="LAP flow; non-loop insertions steered to the SRAM region",
    defaults=(("winv", False), ("loop_stt", False), ("nloop_sram", True)),
    hybrid_only=True,
    arena=False,
    events=("clean_insert", "dirty_victim", "llc_evict", "mem_writeback"),
    invariants=("no-fill",),
))
register(PolicyEntry(
    name="lap+dwb",
    factory="repro.core.deadwrite:DeadWriteBypassLAP",
    summary="LAP composed with DASCA-style dead-write bypass",
    paper="DASCA (Ahn et al., HPCA 2014) via " + _LAP_PAPER,
    anchor="§VII (orthogonality claim)",
    rules="LAP flow; clean victims from dead-write regions dropped by a "
          "saturating-counter predictor",
    arena=False,
    events=("clean_insert", "dirty_victim", "llc_evict", "mem_writeback"),
    invariants=("no-fill",),
))
register(PolicyEntry(
    name="exclusive+dwb",
    factory="repro.core.deadwrite:DeadWriteBypassExclusive",
    summary="exclusive LLC with DASCA-style dead-write bypass",
    paper="DASCA (Ahn et al., HPCA 2014)",
    anchor="§III (dead-write bypass)",
    rules="exclusive flow; predicted-dead clean victims bypass the LLC",
    arena=False,
    events=("clean_insert", "dirty_victim", "llc_evict", "mem_writeback"),
    invariants=("no-fill",),
))

# ---------------------------------------------------------------------
# arena rivals from other papers (PAPERS.md retrieval set)
# ---------------------------------------------------------------------
register(PolicyEntry(
    name="reuse-detector",
    factory="repro.arena.reuse_detector:ReuseDetectorPolicy",
    summary="fill only blocks with demonstrated reuse (per-set detector)",
    paper="Reuse Detector (Rodríguez-Rodríguez et al., arXiv 2402.00533)",
    anchor="§3, Alg. 1",
    rules="first miss records the tag and bypasses the fill; a second "
          "miss while tracked fills; clean victims dropped; dirty insert",
    check_default=True,
    events=("llc_fill", "dirty_victim", "llc_evict", "mem_writeback"),
))
register(PolicyEntry(
    name="rd-copyback",
    factory="repro.arena.rd_copyback:RDCopybackPolicy",
    summary="reuse-distance-gated copy-backs of clean victims",
    paper="RD copy-back (Wang, Wang & Ye, arXiv 2105.14442)",
    anchor="§III (reuse-distance filter)",
    rules="no fill; no hit-invalidation; clean victims copy back iff "
          "observed reuse distance fits the LLC; dirty insert/update",
    check_default=True,
    events=("clean_insert", "dirty_victim", "llc_evict", "mem_writeback"),
    invariants=("no-fill",),
))
register(PolicyEntry(
    name="ways-off",
    factory="repro.arena.ways_off:WaysOffPolicy",
    summary="power down LLC ways, trade misses for leakage",
    paper="Way reconfiguration (Mittal, arXiv 1312.2207)",
    anchor="§3 (way-granularity gating)",
    rules="non-inclusive flow with victim selection restricted to the "
          "active ways; static energy scaled by the active fraction",
    check_default=True,
    events=("llc_fill", "dirty_victim", "llc_evict", "mem_writeback"),
))
