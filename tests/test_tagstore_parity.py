"""Backend parity: the soa tag store must be bit-identical to object.

DESIGN.md §13's switch-over criteria, as executable tests:

1. **Fuzzer traces, the registry's check set, both coherence modes** —
   replaying the same phased trace through ``tag_backend="object"`` and
   ``tag_backend="soa"`` must produce identical hierarchy and LLC stat
   snapshots, with the armed invariant checker silent on both (the
   probe keeps these runs on the generic per-reference path, so this
   exercises the store protocol itself).
2. **Simulator-level RunResult parity** — for the kernel-eligible
   policies, the batched kernel over either store and the generic loop
   over either store must agree on the *entire* RunResult (stats,
   cycles, energy inputs, dueling extras).

Instrumented kernel runs (the standard probes carried as kernel
counters) have their own parity suite in ``tests/test_kernel_probes.py``.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.arena import registry
from repro.kernel import batch as kernel_batch
from repro.kernel import batched_policy_names, numpy_available
from repro.sim.simulator import Simulator
from repro.sim.system import SystemConfig
from repro.validate import DEFAULT_POLICIES, generate_trace, run_trace
from repro.workloads.mixes import make_table3_mix

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="soa backend requires numpy"
)

#: policies declared batched-kernel-eligible by the registry — derived,
#: so a newly registered BATCHED policy joins the kernel parity matrix
#: automatically.
KERNEL_POLICIES = batched_policy_names()


@pytest.fixture(autouse=True)
def _clear_backend_env(monkeypatch):
    """These tests pin backends explicitly, but ``REPRO_TAG_BACKEND`` in
    the surrounding shell (e.g. CI's soa matrix leg) outranks explicit
    arguments and would silence the object-vs-soa comparison."""
    monkeypatch.delenv("REPRO_TAG_BACKEND", raising=False)


def _snapshots(h):
    return (
        h.stats.snapshot(),
        h.llc.stats.snapshot(),
        [c.stats.snapshot() for c in h.l1s],
        [c.stats.snapshot() for c in h.l2s],
    )


@pytest.mark.parametrize("policy", DEFAULT_POLICIES)
@pytest.mark.parametrize(
    "ncores,coherent", [(1, False), (2, False), (2, True)]
)
def test_fuzz_trace_parity(policy, ncores, coherent):
    seed = DEFAULT_POLICIES.index(policy) * 10 + ncores * 2 + int(coherent)
    trace = generate_trace(seed, refs=500, ncores=ncores)
    # run_trace arms an InvariantProbe: a violation on either backend
    # raises InvariantViolation and fails the test.
    h_obj = run_trace(
        policy, trace, ncores=ncores, enable_coherence=coherent, tag_backend="object"
    )
    h_soa = run_trace(
        policy, trace, ncores=ncores, enable_coherence=coherent, tag_backend="soa"
    )
    assert _snapshots(h_obj) == _snapshots(h_soa)
    if coherent:
        assert h_obj.coherence.stats == h_soa.coherence.stats


def _run(policy, backend, *, kernel=True, refs=3000, workload="WL1"):
    system = SystemConfig.scaled().probe_free().with_tag_backend(backend)
    w = make_table3_mix(workload, system.scale_context(), seed=11)
    sim = Simulator(system, policy, w)
    sim.enable_batch_kernel = kernel
    result = sim.run(refs)
    return sim, result


@pytest.mark.parametrize("policy", KERNEL_POLICIES)
@pytest.mark.parametrize("workload", ("WL1", "WH1"))
def test_runresult_parity_kernel(policy, workload):
    """object-generic == object-kernel == soa-kernel == soa-generic,
    entire RunResult."""
    sim_obj, r_obj = _run(policy, "object", kernel=False, workload=workload)
    sim_oker, r_oker = _run(policy, "object", workload=workload)
    sim_ker, r_ker = _run(policy, "soa", workload=workload)
    _, r_gen = _run(policy, "soa", kernel=False, workload=workload)
    # the kernel must actually have been exercised, not silently skipped
    assert sim_obj.tag_backend == sim_oker.tag_backend == "object"
    assert sim_ker.tag_backend == "soa"
    assert kernel_batch.eligible(sim_oker.hierarchy)
    assert kernel_batch.eligible(sim_ker.hierarchy)
    assert asdict(r_obj) == asdict(r_oker)
    assert asdict(r_obj) == asdict(r_ker)
    assert asdict(r_obj) == asdict(r_gen)


@pytest.mark.parametrize("policy", registry.names())
def test_runresult_parity_generic(policy):
    """Pinned-soa runs match object for EVERY registered policy, with
    the default instrumentation on. Both backends take the same path —
    the batched kernel for the kernel-eligible policies, the generic
    loop for the rest — over different layouts. Parametrized over the
    registry, so a new policy is covered the moment it is registered."""
    hybrid = registry.get(policy).hybrid_only  # Lhybrid family needs SRAM ways
    system_obj = SystemConfig.scaled(hybrid=hybrid).with_tag_backend("object")
    system_soa = SystemConfig.scaled(hybrid=hybrid).with_tag_backend("soa")
    w1 = make_table3_mix("WH2", system_obj.scale_context(), seed=3)
    w2 = make_table3_mix("WH2", system_soa.scale_context(), seed=3)
    r_obj = Simulator(system_obj, policy, w1).run(1500)
    r_soa = Simulator(system_soa, policy, w2).run(1500)
    assert asdict(r_obj) == asdict(r_soa)


def test_auto_backend_engages_kernel():
    """``tag_backend="auto"`` is the object store, and the batched kernel
    checks out from it: default-instrumented non-inclusive, exclusive
    and LAP runs are kernel-eligible, coherent or not; inclusive runs
    and coherent switching policies are not."""
    system = SystemConfig.scaled()
    assert system.tag_backend == "auto"
    w = make_table3_mix("WL1", system.scale_context(), seed=1)
    for policy in ("non-inclusive", "exclusive", "lap"):
        sim = Simulator(system, policy, w)
        assert sim.tag_backend == "object"
        assert kernel_batch.eligible(sim.hierarchy), policy
    sim = Simulator(system, "inclusive", w)
    assert sim.tag_backend == "object"
    assert not kernel_batch.eligible(sim.hierarchy)
    for policy in ("non-inclusive", "exclusive", "lap"):
        coherent = Simulator(system, policy, w, enable_coherence=True)
        assert kernel_batch.eligible(coherent.hierarchy), policy
    for policy in ("flexclusion", "dswitch", "inclusive"):
        coherent = Simulator(system, policy, w, enable_coherence=True)
        assert not kernel_batch.eligible(coherent.hierarchy), policy
    probe_free = SystemConfig.scaled().probe_free()
    assert Simulator(probe_free, "lap", w).tag_backend == "object"


def test_env_var_pins_backend(monkeypatch):
    monkeypatch.setenv("REPRO_TAG_BACKEND", "object")
    system = SystemConfig.scaled().probe_free()
    w = make_table3_mix("WL1", system.scale_context(), seed=1)
    assert Simulator(system, "lap", w).tag_backend == "object"
    monkeypatch.setenv("REPRO_TAG_BACKEND", "soa")
    w = make_table3_mix("WL1", system.scale_context(), seed=1)
    assert Simulator(system, "inclusive", w).tag_backend == "soa"
