"""Round-trip tests for the repro.exec serialisation layer."""

import json

import pytest

from repro.errors import ExecutionError
from repro.exec import (
    WorkloadSpec,
    result_from_dict,
    result_to_dict,
    system_from_dict,
    system_to_dict,
)
from repro.sim import SystemConfig
from repro.sim.runner import run_policies
from repro.suite import RECORD_METRICS


def small_system(**kwargs) -> SystemConfig:
    return SystemConfig.scaled(**{"ncores": 2, "llc_kb": 32, "l2_kb": 4, **kwargs})


@pytest.fixture(scope="module")
def multiprogrammed_result():
    return run_policies(
        small_system(), ("lap",), WorkloadSpec.duplicate("mcf", ncores=2), 1500
    )["lap"]


@pytest.fixture(scope="module")
def multithreaded_result():
    return run_policies(
        small_system(), ("non-inclusive",), WorkloadSpec.multithreaded("canneal", nthreads=2), 1200
    )["non-inclusive"]


class TestResultRoundTrip:
    def test_every_record_metric_bit_identical(self, multiprogrammed_result):
        r = multiprogrammed_result
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(r))))
        for metric in RECORD_METRICS:
            assert getattr(restored, metric) == getattr(r, metric), metric

    def test_full_dict_identity_through_json(self, multiprogrammed_result):
        d = result_to_dict(multiprogrammed_result)
        assert result_to_dict(result_from_dict(json.loads(json.dumps(d)))) == d

    def test_scalar_fields_preserved(self, multiprogrammed_result):
        r = multiprogrammed_result
        restored = result_from_dict(result_to_dict(r))
        assert restored.policy == r.policy
        assert restored.workload == r.workload
        assert restored.system == r.system
        assert restored.refs_per_core == r.refs_per_core
        assert restored.instructions == r.instructions
        assert restored.cycles == r.cycles
        assert restored.core_instructions == r.core_instructions
        assert restored.core_cycles == r.core_cycles
        assert restored.extra == r.extra

    def test_ctc_histogram_keys_restored_as_ints(self, multiprogrammed_result):
        r = multiprogrammed_result
        assert r.loop.ctc_histogram, "fixture should exercise loop blocks"
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(r))))
        assert restored.loop.ctc_histogram == r.loop.ctc_histogram
        assert all(isinstance(k, int) for k in restored.loop.ctc_histogram)

    def test_coherence_round_trip(self, multithreaded_result):
        r = multithreaded_result
        assert r.coherence is not None
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(r))))
        assert restored.coherence == r.coherence
        assert restored.snoop_traffic == r.snoop_traffic

    def test_coherence_none_round_trip(self, multiprogrammed_result):
        assert multiprogrammed_result.coherence is None
        restored = result_from_dict(result_to_dict(multiprogrammed_result))
        assert restored.coherence is None

    def test_methods_on_run_result(self, multiprogrammed_result):
        from repro.sim import RunResult

        d = multiprogrammed_result.to_dict()
        restored = RunResult.from_dict(d)
        assert restored.to_dict() == d

    def test_malformed_dict_rejected(self):
        with pytest.raises(ExecutionError):
            result_from_dict({"policy": "lap"})
        with pytest.raises(ExecutionError):
            result_from_dict("not a dict")


class TestSystemRoundTrip:
    @pytest.mark.parametrize(
        "system",
        [
            small_system(),
            small_system(hybrid=True),
            SystemConfig.table2(),
            small_system(duel_interval=512, label="custom"),
        ],
        ids=["scaled", "hybrid", "table2", "custom"],
    )
    def test_equal_after_json(self, system):
        restored = system_from_dict(json.loads(json.dumps(system_to_dict(system))))
        assert restored == system

    def test_restored_system_simulates_identically(self):
        system = small_system()
        restored = system_from_dict(system_to_dict(system))
        builder = WorkloadSpec.duplicate("lbm", ncores=2)
        a = run_policies(system, ("exclusive",), builder, 800)["exclusive"]
        b = run_policies(restored, ("exclusive",), builder, 800)["exclusive"]
        assert result_to_dict(a) == result_to_dict(b)

    def test_malformed_dict_rejected(self):
        with pytest.raises(ExecutionError):
            system_from_dict({"label": "x"})
