"""End-to-end tests for the simulation service (repro.serve.server).

Each test boots a real server on an ephemeral port (background thread,
own event loop) and talks to it through :class:`ServeClient` over
actual TCP — the same path ``repro submit`` takes.
"""

import threading
import time

import pytest

from repro.errors import BackpressureError, ServeError
from repro.exec import JobSpec, ResultCache, WorkloadSpec, execute_jobs
from repro.serve import ServeClient, ServeConfig, serve_in_thread
from repro.sim import SystemConfig


def spec(seed=0, policy="lap", refs=500) -> JobSpec:
    return JobSpec(
        system=SystemConfig.scaled(ncores=2, llc_kb=32, l2_kb=4),
        workload=WorkloadSpec.duplicate("mcf", ncores=2, seed=seed),
        policy=policy,
        refs_per_core=refs,
    )


@pytest.fixture(autouse=True)
def fresh_registry():
    """Counter assertions need a registry this test alone writes to."""
    from repro.telemetry.metrics import MetricsRegistry, set_registry

    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)


@pytest.fixture
def run_counter(monkeypatch):
    """Counts every actual simulation; the dedup tests hang off this."""
    lock = threading.Lock()
    counts = {"runs": 0}
    real_run = JobSpec.run

    def counting_run(self):
        with lock:
            counts["runs"] += 1
        return real_run(self)

    monkeypatch.setattr(JobSpec, "run", counting_run)
    return counts


def quiet_config(tmp_path=None, **kwargs) -> ServeConfig:
    cache = ResultCache(tmp_path / "cache") if tmp_path is not None else None
    return ServeConfig(
        port=0, cache=cache, heartbeat_interval=None, **kwargs
    )


class TestEndToEnd:
    def test_served_result_bit_identical_to_direct_run(self, tmp_path):
        job = spec()
        direct = execute_jobs([job])[0]
        with serve_in_thread(quiet_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port)
            result = client.run(job, timeout=120)
        assert result.to_dict() == direct.to_dict()

    def test_identical_concurrent_submissions_simulate_once(
        self, tmp_path, run_counter
    ):
        """The headline property: N identical concurrent submissions
        coalesce onto one record, the pool simulates exactly once, and
        every waiter gets the bit-identical result."""
        job = spec()
        direct = execute_jobs([job])[0]
        assert run_counter["runs"] == 1  # the direct run above
        n_clients = 8
        results, failures = [], []

        with serve_in_thread(quiet_config(tmp_path, workers=2)) as handle:
            def hammer(n):
                try:
                    client = ServeClient(port=handle.port, client_id=f"c{n}")
                    results.append(client.run(job, timeout=120))
                except Exception as exc:  # surfaced after join
                    failures.append(exc)

            threads = [threading.Thread(target=hammer, args=(n,))
                       for n in range(n_clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            metrics = ServeClient(port=handle.port).metrics()

        assert not failures
        assert len(results) == n_clients
        assert run_counter["runs"] == 2, "one direct + exactly one served"
        for result in results:
            assert result.to_dict() == direct.to_dict()
        serve = metrics["serve"]
        assert serve["jobs"]["total"] == 1, "8 submissions, one record"
        counters = metrics["registry"]["counters"]
        assert counters["serve.submitted"] == n_clients
        assert counters["serve.coalesced"] == n_clients - 1

    def test_warm_cache_short_circuits_without_simulating(
        self, tmp_path, run_counter
    ):
        job = spec()
        cache = ResultCache(tmp_path / "cache")
        execute_jobs([job], cache=cache)  # warm it (1 run)
        with serve_in_thread(quiet_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port)
            receipt = client.submit(job)
            assert receipt["state"] == "done"
            assert receipt["source"] == "cache"
            result = client.result(receipt["id"])
        assert run_counter["runs"] == 1, "the warm-up run was the only one"
        assert result.to_dict() == execute_jobs([job], cache=cache)[0].to_dict()

    def test_batch_submission_returns_receipt_per_job(self, tmp_path):
        jobs = [spec(seed=s) for s in range(3)]
        with serve_in_thread(quiet_config(tmp_path, workers=2)) as handle:
            client = ServeClient(port=handle.port)
            receipts = client.submit(jobs)
            assert len(receipts) == 3
            assert len({r["id"] for r in receipts}) == 3
            for receipt in receipts:
                client.wait(receipt["id"], timeout=120)
            listed = client.jobs()
        assert {j["id"] for j in listed} == {r["id"] for r in receipts}
        assert all(j["state"] == "done" for j in listed)


class TestBackpressure:
    def test_full_queue_returns_backpressure_not_blocking(self, monkeypatch):
        """With the single worker pinned and the 1-slot queue full, a
        third submission must be refused immediately with the 429
        backpressure error — not queued, not blocked, not dropped."""
        gate = threading.Event()
        real_run = JobSpec.run

        def gated_run(self):
            gate.wait(timeout=60)
            return real_run(self)

        monkeypatch.setattr(JobSpec, "run", gated_run)
        config = ServeConfig(port=0, workers=1, queue_limit=1,
                             heartbeat_interval=None)
        try:
            with serve_in_thread(config) as handle:
                client = ServeClient(port=handle.port)
                first = client.submit(spec(seed=0))
                deadline = time.monotonic() + 30
                while client.status(first["id"])["state"] != "running":
                    assert time.monotonic() < deadline, "worker never picked up"
                    time.sleep(0.01)
                second = client.submit(spec(seed=1))
                assert second["state"] == "queued"

                start = time.monotonic()
                with pytest.raises(BackpressureError):
                    client.submit(spec(seed=2))
                assert time.monotonic() - start < 5, "shed, not blocked"

                # Identical resubmissions still coalesce: dedup needs
                # no queue slot, so it is exempt from backpressure.
                again = client.submit(spec(seed=1))
                assert again["id"] == second["id"]
                assert again["coalesced"] >= 1

                gate.set()
                client.wait(first["id"], timeout=120)
                client.wait(second["id"], timeout=120)
                # Queue drained: the shed job now goes through.
                third = client.submit(spec(seed=2))
                client.wait(third["id"], timeout=120)
        finally:
            gate.set()

    def test_backpressure_counted_in_metrics(self, monkeypatch):
        gate = threading.Event()
        real_run = JobSpec.run
        monkeypatch.setattr(
            JobSpec, "run",
            lambda self: (gate.wait(timeout=60), real_run(self))[1],
        )
        config = ServeConfig(port=0, workers=1, queue_limit=1,
                             heartbeat_interval=None)
        try:
            with serve_in_thread(config) as handle:
                client = ServeClient(port=handle.port)
                client.submit(spec(seed=0))
                deadline = time.monotonic() + 30
                while client.metrics()["serve"]["inflight"] != 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                client.submit(spec(seed=1))
                with pytest.raises(BackpressureError):
                    client.submit(spec(seed=2))
                counters = client.metrics()["registry"]["counters"]
                assert counters["serve.backpressure"] == 1
                gate.set()
        finally:
            gate.set()


class TestHttpSurface:
    def test_unknown_and_malformed_job_ids(self, tmp_path):
        with serve_in_thread(quiet_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port)
            with pytest.raises(ServeError) as err:
                client.status("0" * 64)
            assert err.value.status == 404
            with pytest.raises(ServeError) as err:
                client.status("not-a-job-id")
            assert err.value.status == 400
            with pytest.raises(ServeError) as err:
                client.result("0" * 64)
            assert err.value.status == 404

    def test_result_before_done_is_conflict(self, monkeypatch):
        gate = threading.Event()
        real_run = JobSpec.run
        monkeypatch.setattr(
            JobSpec, "run",
            lambda self: (gate.wait(timeout=60), real_run(self))[1],
        )
        try:
            with serve_in_thread(
                ServeConfig(port=0, workers=1, heartbeat_interval=None)
            ) as handle:
                client = ServeClient(port=handle.port)
                receipt = client.submit(spec())
                with pytest.raises(ServeError) as err:
                    client.result(receipt["id"])
                assert err.value.status == 409
                gate.set()
                client.wait(receipt["id"], timeout=120)
                client.result(receipt["id"])  # now it works
        finally:
            gate.set()

    def test_bad_json_submission_is_400(self, tmp_path):
        import http.client as hc

        with serve_in_thread(quiet_config(tmp_path)) as handle:
            conn = hc.HTTPConnection("127.0.0.1", handle.port, timeout=30)
            conn.request("POST", "/jobs", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            conn.close()

    def test_failed_job_reports_error_and_allows_resubmit(self, monkeypatch):
        real_run = JobSpec.run
        calls = {"n": 0}

        def failing_then_ok(self):
            calls["n"] += 1
            if calls["n"] == 1:  # a deterministic bug: failed, not retried
                raise RuntimeError("injected failure")
            return real_run(self)

        monkeypatch.setattr(JobSpec, "run", failing_then_ok)
        with serve_in_thread(
            ServeConfig(port=0, workers=1, heartbeat_interval=None)
        ) as handle:
            client = ServeClient(port=handle.port)
            receipt = client.submit(spec())
            deadline = time.monotonic() + 60
            while client.status(receipt["id"])["state"] not in ("done", "failed"):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            status = client.status(receipt["id"])
            assert status["state"] == "failed"
            assert "injected failure" in status["error"]
            # a failed key is retryable: resubmission queues a fresh run
            retry = client.submit(spec())
            assert retry["state"] in ("queued", "running")
            client.wait(retry["id"], timeout=120)

    def test_fairness_one_greedy_one_light_client(self, monkeypatch):
        """Server-level fairness: with everything queued behind a gate,
        the light client's single job runs second, not sixth."""
        gate = threading.Event()
        order = []
        lock = threading.Lock()
        real_run = JobSpec.run

        def tracking_run(self):
            gate.wait(timeout=60)
            with lock:
                order.append(self.workload.seed)
            return real_run(self)

        monkeypatch.setattr(JobSpec, "run", tracking_run)
        try:
            with serve_in_thread(
                ServeConfig(port=0, workers=1, heartbeat_interval=None)
            ) as handle:
                greedy = ServeClient(port=handle.port, client_id="greedy")
                light = ServeClient(port=handle.port, client_id="light")
                receipts = [greedy.submit(spec(seed=s)) for s in range(4)]
                light_receipt = light.submit(spec(seed=100))
                gate.set()
                for receipt in receipts:
                    greedy.wait(receipt["id"], timeout=120)
                light.wait(light_receipt["id"], timeout=120)
        finally:
            gate.set()
        # seed 0 was in flight (or next) when the light job arrived;
        # round-robin must schedule seed 100 ahead of greedy's backlog.
        assert 100 in order
        assert order.index(100) <= 2, f"light client starved: {order}"
