"""Tests for the metrics registry (repro.telemetry.metrics)."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry.metrics import (
    BUCKET_BOUNDS,
    BUCKET_LABELS,
    OVERFLOW_LABEL,
    Counter,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)


@pytest.fixture
def registry():
    """A fresh registry installed as the process default, restored after."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("jobs")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative_increment(self):
        c = Counter("jobs")
        with pytest.raises(TelemetryError, match="jobs"):
            c.inc(-1)
        assert c.value == 0


class TestHistogram:
    def test_tracks_count_sum_min_max_mean(self):
        h = Histogram("wall_s")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.min == 1.0 and h.max == 3.0
        assert h.mean == 2.0

    def test_empty_mean_is_zero(self):
        assert Histogram("x").mean == 0.0

    def test_bucket_labels_are_fixed_log_ladder(self):
        # The ladder is a module constant: the same observation always
        # lands in the same named bucket, on any machine, at any time.
        h = Histogram("x")
        h.observe(0.0015)  # first bound >= 0.0015 is 2e-3
        h.observe(0.0015)
        h.observe(7_000_000)  # first bound >= 7e6 is 1e7
        assert h.buckets() == {"2e-03": 2, "1e+07": 1}

    def test_overflow_bucket(self):
        h = Histogram("x")
        h.observe(1e12)  # beyond the 1e9 top of the ladder
        assert h.buckets() == {OVERFLOW_LABEL: 1}

    def test_buckets_in_ladder_order(self):
        h = Histogram("x")
        for v in (5e8, 1e-9, 42, 1e15):
            h.observe(v)
        labels = list(h.buckets())
        ladder_positions = [BUCKET_LABELS.index(lb) for lb in labels[:-1]]
        assert ladder_positions == sorted(ladder_positions)
        assert labels[-1] == OVERFLOW_LABEL

    def test_rejects_negative_and_nan(self):
        h = Histogram("x")
        with pytest.raises(TelemetryError):
            h.observe(-0.1)
        with pytest.raises(TelemetryError):
            h.observe(float("nan"))

    def test_bounds_are_sorted_and_wide(self):
        assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)
        assert BUCKET_BOUNDS[0] == 1e-9 and BUCKET_BOUNDS[-1] == 5e9


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.histogram("h") is r.histogram("h")
        assert len(r) == 2

    def test_kind_mismatch_raises(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(TelemetryError, match="Counter"):
            r.histogram("a")

    def test_rejects_bad_names(self):
        r = MetricsRegistry()
        with pytest.raises(TelemetryError):
            r.counter("")
        with pytest.raises(TelemetryError):
            r.counter(None)

    def test_reset_drops_everything(self):
        r = MetricsRegistry()
        r.counter("a").inc()
        r.reset()
        assert len(r) == 0
        assert r.counter("a").value == 0

    def test_snapshot_groups_by_kind(self):
        r = MetricsRegistry()
        r.counter("jobs").inc(2)
        r.histogram("wall").observe(0.5)
        snap = r.snapshot()
        assert snap["counters"] == {"jobs": 2}
        assert snap["histograms"]["wall"]["count"] == 1
        assert snap["histograms"]["wall"]["buckets"] == {"5e-01": 1}

    def test_snapshot_json_round_trips(self):
        r = MetricsRegistry()
        r.counter("jobs").inc()
        assert json.loads(r.snapshot_json()) == r.snapshot()

    def test_set_registry_swaps_default(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous

    def test_set_registry_type_checked(self):
        with pytest.raises(TelemetryError):
            set_registry("not a registry")


class TestBuiltinReporting:
    """The simulator and hierarchy report into the default registry."""

    def test_simulate_reports_run_and_access_counters(self, registry, small_system):
        from repro import make_workload, simulate

        workload = make_workload("mcf", small_system, seed=1)
        result = simulate(small_system, "lap", workload, refs_per_core=300)
        snap = registry.snapshot()
        assert snap["counters"]["sim.runs"] == 1
        assert snap["counters"]["sim.accesses"] == result.hier.accesses
        assert snap["counters"]["hierarchy.runs"] == 1
        assert snap["counters"]["hierarchy.accesses"] == result.hier.accesses
        assert snap["histograms"]["sim.wall_s"]["count"] == 1
        assert snap["histograms"]["sim.accesses_per_s"]["count"] == 1

    def test_reporting_is_edge_triggered(self, registry, small_system):
        # Two runs -> exactly two observations, not one per access.
        from repro import make_workload, simulate

        for seed in (1, 2):
            workload = make_workload("mcf", small_system, seed=seed)
            simulate(small_system, "lap", workload, refs_per_core=200)
        snap = registry.snapshot()
        assert snap["counters"]["sim.runs"] == 2
        assert snap["histograms"]["sim.wall_s"]["count"] == 2


class TestBucketEdges:
    """Values exactly on the 1-2-5 ladder bounds must label stably:
    bisect_left means an exact bound lands in its own bucket, the next
    representable value above rolls to the following label."""

    def observe_label(self, value):
        h = Histogram("edge")
        h.observe(value)
        (label,) = h.buckets()
        return label

    def test_exact_bound_lands_in_its_own_bucket(self):
        assert self.observe_label(0.002) == "2e-03"
        # Every ladder bound, exactly: its own label, never the next.
        for bound, label in zip(BUCKET_BOUNDS, BUCKET_LABELS):
            assert self.observe_label(bound) == label

    def test_just_above_bound_rolls_to_next_label(self):
        import math

        for i in (0, 10, 30, len(BUCKET_BOUNDS) - 2):
            above = math.nextafter(BUCKET_BOUNDS[i], float("inf"))
            assert self.observe_label(above) == BUCKET_LABELS[i + 1]

    def test_zero_lands_in_first_bucket(self):
        assert self.observe_label(0.0) == BUCKET_LABELS[0] == "1e-09"

    def test_top_bound_exact_is_not_overflow(self):
        assert self.observe_label(BUCKET_BOUNDS[-1]) == BUCKET_LABELS[-1]

    def test_above_top_bound_overflows(self):
        import math

        above = math.nextafter(BUCKET_BOUNDS[-1], float("inf"))
        assert self.observe_label(above) == OVERFLOW_LABEL
        assert self.observe_label(1e12) == OVERFLOW_LABEL

    def test_negative_still_rejected(self):
        h = Histogram("edge")
        with pytest.raises(TelemetryError):
            h.observe(-1e-12)


class TestConcurrency:
    """inc()/observe() are read-modify-writes: without per-instrument
    locking, concurrent updates lose writes and snapshots can see a
    count that disagrees with the bucket totals."""

    N_THREADS = 8
    PER_THREAD = 2000

    def _hammer(self, fn):
        import threading

        errors = []

        def worker():
            try:
                for _ in range(self.PER_THREAD):
                    fn()
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=worker)
                   for _ in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors

    def test_concurrent_counter_incs_are_exact(self):
        r = MetricsRegistry()
        self._hammer(lambda: r.counter("jobs").inc())
        assert r.counter("jobs").value == self.N_THREADS * self.PER_THREAD

    def test_concurrent_histogram_observes_are_exact(self):
        r = MetricsRegistry()
        self._hammer(lambda: r.histogram("wall").observe(0.5))
        h = r.histogram("wall")
        assert h.count == self.N_THREADS * self.PER_THREAD
        assert sum(h.buckets().values()) == h.count

    def test_snapshot_stays_consistent_under_concurrent_writes(self):
        import threading

        r = MetricsRegistry()
        stop = threading.Event()
        errors = []

        def writer(n):
            try:
                while not stop.is_set():
                    r.counter(f"c{n}").inc()
                    r.histogram("h").observe(0.25)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,))
                   for n in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                snap = r.snapshot()
                json.dumps(snap)  # JSON-safe at any instant
                hist = snap["histograms"].get("h")
                if hist and hist["count"]:
                    # the headline invariant: buckets account for count
                    assert sum(hist["buckets"].values()) == hist["count"]
                    assert hist["sum"] == pytest.approx(
                        hist["count"] * 0.25
                    )
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=60)
        assert not errors
