"""The batched kernel's two passes over non-coherent hierarchies.

Pass 1 runs the private levels once and records the L2-boundary stream;
pass 2 replays it through the LLC flow of one policy
(:mod:`repro.kernel.batch`). The jobs of one ``execute_jobs`` call share
pass 1 when the stream they would record is the same. A shared stream
must leave every job exactly as its own pass 1 would: the same
``RunResult``, tag arrays, probe state, timing floats and generator
state, and the same second ``run()``.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.energy import SRAM
from repro.exec import JobSpec, WorkloadSpec, execute_jobs
from repro.kernel import batch as kernel_batch
from repro.sim.simulator import Simulator
from repro.sim.system import SystemConfig
from repro.validate.parity import (
    assert_identical,
    cache_stats,
    probe_state,
    run_pair,
    tag_state,
)
from repro.workloads.mixes import make_table3_mix

#: the registered policies the kernel inlines (the five inlined classes,
#: LAP in all three replacement modes)
POLICIES = ("non-inclusive", "exclusive", "flexclusion", "dswitch", "lap", "lap-lru",
            "lap-loop")

#: what a shared stream's holder is keyed on besides the kernel's part
SOURCE = ("WH2", 5)


@pytest.fixture
def pass1_calls(monkeypatch):
    """Count pass-1 runs (shared-stream hits skip pass 1)."""
    calls = []
    real = kernel_batch._pass1

    def counting(*args, **kwargs):
        calls.append(args[2:4])  # refs_per_core, batch
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel_batch, "_pass1", counting)
    return calls


def _system(spec: str, **changes) -> SystemConfig:
    return replace(SystemConfig.scaled(**changes), instrumentation=spec,
                   occupancy_sample_interval=1777, duel_interval=256)


def _workload(system):
    return make_table3_mix("WH2", system.scale_context(), seed=5)


def _sharing_sim(system, policy, holder, source=SOURCE):
    sim = Simulator(system, policy, _workload(system))
    sim.stream_share = (holder, source)
    return sim


def _shared_pair(system, policy, refs=700, runs=2, batch=500):
    """``run_pair``'s shape, the kernel side on a stream another policy's
    job recorded first."""
    holder: dict = {}
    _sharing_sim(system, "exclusive", holder).run(refs, batch)
    sim_k = _sharing_sim(system, policy, holder)
    sim_g = Simulator(system, policy, _workload(system))
    sim_g.enable_batch_kernel = False
    return [(sim, [sim.run(refs, batch) for _ in range(runs)]) for sim in (sim_k, sim_g)]


# ----------------------------------------------------------------------
# two passes against the generic loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shared", [False, True], ids=["own-stream", "shared-stream"])
@pytest.mark.parametrize("spec", ["none", "default"])
@pytest.mark.parametrize("policy", POLICIES)
def test_two_pass_parity(policy, spec, shared, pass1_calls):
    system = _system(spec)
    if shared:
        pair = _shared_pair(system, policy)
        # the warm-up job ran pass 1; the compared job's first run
        # shared it, and its second run (not pristine) ran its own
        assert len(pass1_calls) == 2
    else:
        pair = run_pair(system, policy, lambda: _workload(system), 700, runs=2, batch=500)
        assert len(pass1_calls) == 2
    assert pair[0][0].hierarchy.coherence is None
    assert_identical(pair)
    loop = pair[0][1][0].loop
    assert (loop.l2_evictions > 0) == (spec == "default")


def test_two_pass_parity_on_a_hybrid_llc():
    """SRAM-region hits and writes are counted, and the STT ones derived."""
    system = _system("default", hybrid=True)
    pair = run_pair(system, "lap", lambda: _workload(system), 1500, runs=2, batch=500)
    assert_identical(pair)
    llc = pair[0][1][0].llc
    assert llc.data_writes_sram and llc.data_writes_stt
    assert llc.data_reads_sram and llc.data_reads_stt


# ----------------------------------------------------------------------
# what shares pass 1, and what does not
# ----------------------------------------------------------------------
def _job(system=None, policy="lap", refs=400, **workload):
    system = system or SystemConfig.scaled()
    spec = WorkloadSpec.mix(workload.pop("mix", "WL1"), seed=workload.pop("seed", 0),
                            scale=workload.pop("scale", None))
    return JobSpec(system=system, workload=spec, policy=policy, refs_per_core=refs)


def _one_pass1_jobs():
    """Jobs that differ only in what pass 1 does not read."""
    base = SystemConfig.scaled()
    return [
        _job(base, "lap"),
        _job(base, "non-inclusive"),
        _job(base, "exclusive"),
        _job(SystemConfig.scaled(tech=SRAM), "lap"),
        _job(replace(base, leakage_compensation=base.leakage_compensation * 2), "lap"),
        _job(replace(base, duel_interval=512), "lap"),
        _job(replace(base, hierarchy=replace(
            base.hierarchy, l2=replace(base.hierarchy.l2, latency=base.hierarchy.l2.latency + 4),
        )), "lap"),
    ]


def test_policy_llc_technology_and_energy_share_one_pass1(pass1_calls):
    jobs = _one_pass1_jobs()
    outcome = execute_jobs(jobs)
    assert len(pass1_calls) == 1
    for job, result in zip(jobs, outcome):
        assert result == job.run()  # a direct run never shares...
    assert len(pass1_calls) == 1 + len(jobs)  # ...so each ran its own pass 1


def _scale():
    return SystemConfig.scaled().scale_context()


def _other_scale():
    return replace(_scale(), l2_bytes=_scale().l2_bytes * 2)


def _other_l2_assoc():
    """Another L2 whose size, and so the workload's build scale, is the same."""
    base = SystemConfig.scaled()
    l2 = replace(base.hierarchy.l2, assoc=base.hierarchy.l2.assoc * 2)
    return replace(base, hierarchy=replace(base.hierarchy, l2=l2))


#: pairs of jobs that read different pass-1 streams
OTHER_PASS1 = {
    "workload-seed": lambda: [_job(), _job(seed=1)],
    "refs-per-core": lambda: [_job(), _job(refs=300)],
    "l2-size": lambda: [_job(), _job(SystemConfig.scaled(l2_kb=16), scale=_scale())],
    "l2-assoc": lambda: [_job(), _job(_other_l2_assoc())],
    "build-scale": lambda: [_job(), _job(scale=_other_scale())],
}


@pytest.mark.parametrize("pair", OTHER_PASS1.values(), ids=OTHER_PASS1.keys())
def test_what_pass1_reads_is_not_shared(pair, pass1_calls):
    jobs = pair()
    outcome = execute_jobs(jobs)
    assert len(pass1_calls) == 2
    assert list(outcome) == [job.run() for job in jobs]


def test_pool_stream_groups_follow_the_kernel_sharing_key():
    """The pool's grouping (``exec.pool._stream_groups``) and the kernel's
    holder key (``kernel.batch._private_stream``) state the same key in
    two modules, over one ``JobSpec.stream_source``: the jobs that share
    one pass 1 above form one group, and each pair that does not is
    split."""
    from repro.exec.pool import _stream_groups

    jobs = _one_pass1_jobs()
    assert _stream_groups(jobs, range(len(jobs)), 1) == [list(range(len(jobs)))]
    for pair in OTHER_PASS1.values():
        assert _stream_groups(pair(), [0, 1], 1) == [[0], [1]]


def test_a_pinned_scale_shares_with_the_build_scale_it_equals(pass1_calls):
    """Fig. 21's ``2x LLC`` shape: WL1 pinned to the scaled system's
    scale, on that system (where admission drops the pin) and on one
    with twice its LLC (where it stays). The L1/L2 and the effective
    scale are the same, so both jobs read one pass 1, in one group."""
    from repro.exec.pool import _stream_groups

    jobs = [_job(SystemConfig.scaled(), scale=_scale()),
            _job(SystemConfig.scaled(llc_kb=256), scale=_scale())]
    assert jobs[0].workload.scale is None and jobs[1].workload.scale is not None
    assert _stream_groups(jobs, [0, 1], 1) == [[0, 1]]
    outcome = execute_jobs(jobs)
    assert len(pass1_calls) == 1
    assert list(outcome) == [job.run() for job in jobs]


def test_batch_size_is_not_shared(pass1_calls):
    system = _system("default")
    holder: dict = {}
    for batch in (500, 4096, 500):
        _sharing_sim(system, "lap", holder).run(700, batch)
    assert pass1_calls == [(700, 500), (700, 4096), (700, 500)]


def test_at_most_one_stream_is_held():
    system = _system("none")
    holder: dict = {}
    for source in (("a",), ("b",), ("a",)):
        _sharing_sim(system, "lap", holder, source).run(300)
        assert len(holder) == 1
        ((key_source, *_),) = holder
        assert key_source == source


# ----------------------------------------------------------------------
# a shared stream leaves the simulator exactly as its own pass 1 would
# ----------------------------------------------------------------------
def _timing(sim):
    t = sim.hierarchy.timing
    return list(t.core_cycles), list(t.banks.busy_until), (
        t.banks.read_stall_cycles, t.banks.write_stall_cycles
    )


@pytest.mark.parametrize("spec", ["none", "default"])
def test_shared_stream_job_equals_its_own(spec, pass1_calls):
    system = _system(spec)
    holder: dict = {}
    _sharing_sim(system, "non-inclusive", holder).run(700, 500)
    shared = _sharing_sim(system, "lap", holder)
    own = Simulator(system, "lap", _workload(system))
    first = [sim.run(700, 500) for sim in (shared, own)]
    assert len(pass1_calls) == 2  # the warm-up's and ``own``'s
    assert first[0] == first[1]
    assert pickle.dumps(shared.workload.generators) == pickle.dumps(own.workload.generators)
    for state in (tag_state, cache_stats, probe_state):
        assert state(shared.hierarchy) == state(own.hierarchy)
    assert _timing(shared) == _timing(own)
    # a second run continues both the same way (and shares nothing)
    assert shared.run(400, 300) == own.run(400, 300)
    assert tag_state(shared.hierarchy) == tag_state(own.hierarchy)
    assert _timing(shared) == _timing(own)


@pytest.fixture
def pass1_file(monkeypatch, tmp_path):
    """Count pass-1 runs through a file, which forked pool workers
    append to as well; returns a function reading the count."""
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the patched kernel only under fork")
    log = tmp_path / "pass1"
    real = kernel_batch._pass1

    def counting(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write("x\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel_batch, "_pass1", counting)
    return lambda: log.read_text().count("x") if log.exists() else 0


def test_pool_runs_pass1_once_per_stream_group(pass1_file):
    jobs = [_job(policy=p, seed=seed) for seed in range(3)
            for p in ("lap", "non-inclusive", "exclusive")]
    pooled = execute_jobs(jobs, max_workers=2)
    assert pass1_file() == 3
    assert list(pooled) == [job.run() for job in jobs]


def test_pool_splits_one_stream_group_across_its_workers(pass1_file):
    """One workload under four policies on two workers: two tasks of
    two jobs, so two pass-1 runs."""
    jobs = [_job(policy=p) for p in ("lap", "non-inclusive", "exclusive", "lap-lru")]
    pooled = execute_jobs(jobs, max_workers=2)
    assert pass1_file() == 2
    assert list(pooled) == [job.run() for job in jobs]


def test_stream_groups_keep_first_appearance_order_and_split_the_largest():
    from repro.exec.pool import _stream_groups

    jobs = [_job(seed=1), _job(seed=0), _job(seed=1, policy="exclusive"),
            _job(seed=1, policy="non-inclusive"), _job(seed=0, refs=300)]
    assert _stream_groups(jobs, range(5), 2) == [[0, 2, 3], [1], [4]]
    assert _stream_groups(jobs, [0, 2, 3], 2) == [[0, 2], [3]]
    assert _stream_groups(jobs, [0, 2, 3], 3) == [[0], [2], [3]]


def test_measure_throughput_never_shares(monkeypatch):
    from repro.bench import measure_throughput

    seen = []
    real = kernel_batch._private_stream

    def spy(sim, *args):
        seen.append(sim.stream_share)
        return real(sim, *args)

    monkeypatch.setattr(kernel_batch, "_private_stream", spy)
    measure_throughput(SystemConfig.scaled().probe_free(), "lap", refs_per_core=300, reps=2)
    assert seen == [None, None]
