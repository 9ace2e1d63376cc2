"""``benchmarks/bench_e2e.py``'s dirty flag on a throwaway git repository."""

import importlib.util
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
