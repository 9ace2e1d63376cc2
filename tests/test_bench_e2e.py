"""``benchmarks/bench_e2e.py``: its dirty flag on a throwaway git repository,
and its paired before/after records."""

import importlib.util
import json
import pathlib
import shutil
import subprocess

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "bench_e2e.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


@pytest.fixture(scope="module")
def bench_e2e():
    spec = importlib.util.spec_from_file_location("bench_e2e", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def checkout(tmp_path):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    git("init", "-q")
    (tmp_path / "BENCH_e2e.json").write_text('{"entries": []}\n')
    (tmp_path / "setup.py").write_text("# tracked\n")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    return tmp_path


def test_committed_checkout_reads_clean(bench_e2e, checkout):
    assert not bench_e2e._dirty(checkout)


def test_appending_to_the_record_alone_reads_clean(bench_e2e, checkout):
    (checkout / "BENCH_e2e.json").write_text('{"entries": [{}]}\n')
    assert not bench_e2e._dirty(checkout)


def test_editing_another_tracked_file_reads_dirty(bench_e2e, checkout):
    (checkout / "setup.py").write_text("# edited\n")
    assert bench_e2e._dirty(checkout)
    (checkout / "BENCH_e2e.json").write_text('{"entries": [{}]}\n')
    assert bench_e2e._dirty(checkout)


# ----------------------------------------------------------------------
# --pairs: a paired, interleaved before/after
# ----------------------------------------------------------------------
def _run_record(checkout, wall, sha):
    return {"sha": sha, "dirty": False, "workload": "kernel-grid", "seed": 0, "trace": 0,
            "seconds": 20.0, "host": {"nproc": 2, "checkout": str(checkout)},
            "result": {"correct": True, "attempted": 30, "failed": 0, "metrics": {
                "norm_wall_s": {"value": wall, "unit": "s"},
                "peak_rss_mb": {"value": 40.0, "unit": "MiB"}}}}


def test_pairs_alternate_and_summarise(bench_e2e, monkeypatch, tmp_path):
    """Parent and change run back to back, the first one swapping every
    pair; one record per workload holds both sides' values, the median
    change/parent ratio and the change's wins."""
    parent = tmp_path / "parent"
    walls = {parent: iter([2.0, 2.2, 2.0, 2.4]), bench_e2e.ROOT: iter([1.5, 2.3, 1.6, 1.2])}
    order = []

    def fake_measure(checkout, workload, trace, seconds, seed):
        assert trace == 0
        order.append(checkout)
        return _run_record(checkout, next(walls[checkout]), "p" if checkout == parent else "c")

    out = tmp_path / "BENCH_e2e.json"
    monkeypatch.setattr(bench_e2e, "OUT", out)
    monkeypatch.setattr(bench_e2e, "measure", fake_measure)
    bench_e2e.measure_pairs(parent, ["kernel-grid"], 20.0, 7919, 4)

    root = bench_e2e.ROOT
    assert order == [parent, root, root, parent, parent, root, root, parent]
    (record,) = json.loads(out.read_text())["entries"]
    assert record["workload"] == "kernel-grid"
    assert record["parent"]["metrics"]["norm_wall_s"] == [2.0, 2.2, 2.0, 2.4]
    assert record["change"]["metrics"]["norm_wall_s"] == [1.5, 2.3, 1.6, 1.2]
    assert record["change"]["metrics"]["peak_rss_mb"] == [40.0] * 4
    assert (record["parent"]["sha"], record["change"]["sha"]) == ("p", "c")
    pair = record["pair"]
    assert (pair["seed"], pair["pairs"], pair["change_wins"]) == (7919, 4, 3)
    ratios = sorted([1.5 / 2.0, 2.3 / 2.2, 1.6 / 2.0, 1.2 / 2.4])
    assert pair["median_ratio"] == pytest.approx((ratios[1] + ratios[2]) / 2)


def test_pairs_need_another_checkout(bench_e2e):
    with pytest.raises(SystemExit):
        bench_e2e.main(["--pairs", "3"])


def test_trend_skips_pair_records():
    """A pair record adds no series and moves none: the trend model
    reads single runs only (``bench_pairs`` judges the pairs)."""
    from repro.obs.trend import bench_trend

    single = _run_record("x", 2.0, "a" * 40)
    pair = {"workload": "kernel-grid", "pair": {"seed": 0, "pairs": 1, "median_ratio": 0.5,
                                                 "change_wins": 1},
            "parent": {"metrics": {"norm_wall_s": [9.0]}},
            "change": {"metrics": {"norm_wall_s": [4.5]}}, "host": {}}
    alone = bench_trend({"entries": [single]})
    assert [(s.key, s.points) for s in bench_trend({"entries": [single, pair]})] == [
        (s.key, s.points) for s in alone
    ]
    assert bench_trend({"entries": [pair]}) == []


# ----------------------------------------------------------------------
# the CI gate over pair records: each judged on its own
# ----------------------------------------------------------------------
def _pair_record(ratio, correct=True, workload="suite-paper"):
    return {"workload": workload,
            "pair": {"seed": 7919, "seconds": 20.0, "pairs": 10, "median_ratio": ratio,
                     "change_wins": 3},
            "parent": {"sha": "a" * 40, "correct": True, "metrics": {}},
            "change": {"sha": "a" * 40, "dirty": True, "correct": correct, "metrics": {}},
            "host": {}}


def test_pair_gate_bounds_the_median_ratio():
    from repro.obs.trend import bench_pairs

    doc = {"entries": [_run_record("x", 2.0, "b" * 40), _pair_record(1.14),
                       _pair_record(1.16), _pair_record(0.5, correct=False),
                       _pair_record(None)]}
    pairs = bench_pairs(doc)
    assert [p.label for p in pairs] == ["suite-paper/seed 7919 vs aaaaaaa"] * 4
    assert [p.regressed(15) for p in pairs] == [False, True, True, True]
    assert [p.regressed(20) for p in pairs] == [False, False, True, True]


def test_pair_gate_fails_the_cli(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "BENCH_e2e.json"
    path.write_text(json.dumps({"entries": [_pair_record(1.10)]}))
    assert main(["bench", "trend", str(path), "--fail-on-regression", "15"]) == 0
    path.write_text(json.dumps({"entries": [_pair_record(1.10), _pair_record(1.20)]}))
    assert main(["bench", "trend", str(path), "--fail-on-regression", "15"]) == 1
    assert "median ratio 1.200 > 1.150" in capsys.readouterr().err
    assert main(["bench", "trend", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [p["median_ratio"] for p in report["pairs"]] == [1.10, 1.20]


def test_committed_pair_records_pass_the_ci_gate():
    from repro.obs.trend import bench_pairs

    doc = json.loads((SCRIPT.parent.parent / "BENCH_e2e.json").read_text())
    pairs = bench_pairs(doc)
    assert len(pairs) >= 6
    assert [p.label for p in pairs if p.regressed(15)] == []
