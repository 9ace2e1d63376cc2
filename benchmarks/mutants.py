"""The batched kernel's mutation suite: each listed mutant must be killed.

Usage: ``python benchmarks/mutants.py`` runs every mutant (~70 s).

A mutant is one text edit of a file under ``src/`` (``old`` becomes
``new``) and the command that must fail on it, its killer:
``repro check --fuzz 200`` (kernel-vs-generic parity on fuzz traces,
DESIGN.md §11) unless the fuzzer cannot reach the site, in which case a
tier-1 test that can. The script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, checks that every killer
passes there unmutated, then applies one mutant at a time, runs its
killer and restores the file. It exits 1 when a mutant survives (its
killer passes), when an old text does not occur exactly once in its
file, or when a killer fails on the unmutated copy; a mutant that does
not compile raises.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

FUZZ = ("-m", "repro", "check", "--fuzz", "200")
WEIGHTS = ("-m", "pytest", "-q", "-p", "no:cacheprovider",
           "tests/test_kernel_probes.py::test_batch_weights_follow_concat_parts")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    guards: str  # what the mutated site makes exact
    killer: Tuple[str, ...]  # python arguments, run from the copy's root


BATCH = "src/repro/kernel/batch.py"

MUTANTS = (
    Mutant(
        "store-site hand-off check", BATCH,
        "        if hand[g]:\n            continue\n        if streak and (blk << off) in streak:",
        "        if streak and (blk << off) in streak:",
        "a line handed over dirty has no first store: no on_dirtied, no on_store",
        FUZZ,
    ),
    Mutant(
        "L2 fill loop bit", BATCH,
        "lfill[g] = lap and hit",
        "lfill[g] = hit",
        "only LAP sets the loop bit of an L2 fill that hit the LLC",
        FUZZ,
    ),
    Mutant(
        "peer term in L1 tag_probes", BATCH,
        "s.tag_probes += refs + mis1 + l2_ev[core] + pk_calls",
        "s.tag_probes += refs + mis1 + l2_ev[core]",
        "a peer invalidation probes the peer's L1",
        FUZZ,
    ),
    Mutant(
        "peers ignored on an LLC miss", BATCH,
        "if not peers:  # else a peer supplies the line",
        "if True:  # else a peer supplies the line",
        "a peer's copy saves an LLC miss's memory stall",
        FUZZ,
    ),
    Mutant(
        "peers ignored on an LLC hit", BATCH,
        "if inv_hit and not peers:",
        "if inv_hit:",
        "exclusive keeps the LLC copy of a line a peer shares",
        FUZZ,
    ),
    Mutant(
        "store discard dropped", BATCH,
        "s = ll_sets[si].pop(blk, None)",
        "s = None",
        "a coherent first store discards the LLC copy",
        FUZZ,
    ),
    Mutant(
        "victim never stored to", BATCH,
        "vst = st2[ls]",
        "vst = False",
        "an L2 victim stored to since its fill is dirty",
        FUZZ,
    ),
    Mutant(
        "weight read at replay", BATCH,
        "instrs = blk * weights[g][core]",
        "instrs = blk * gens[core].instr_per_ref",
        "a batch's instructions use its own instr_per_ref (ConcatTrace parts)",
        WEIGHTS,
    ),
)


def occurrences(mutant: Mutant, root: pathlib.Path = ROOT) -> int:
    """How often ``mutant.old`` occurs in its file under ``root``."""
    return (root / mutant.file).read_text().count(mutant.old)


def _copy_tree(dest: pathlib.Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run(killer: Tuple[str, ...], cwd: pathlib.Path) -> Tuple[bool, float]:
    """Whether ``killer`` passed in ``cwd``, and its wall time."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *killer], cwd=cwd, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0, time.perf_counter() - start


def main() -> int:
    bad = [m for m in MUTANTS if occurrences(m) != 1]
    for m in bad:
        print(f"INAPPLICABLE {m.name}: old text occurs {occurrences(m)} times in {m.file}")
    if bad:
        return 1
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = pathlib.Path(tmp)
        _copy_tree(copy)
        for killer in sorted({m.killer for m in MUTANTS}):
            ok, wall = _run(killer, copy)
            print(f"{'ok' if ok else 'FAILS'} unmutated: {' '.join(killer)} ({wall:.1f} s)")
            if not ok:
                return 1
        for m in MUTANTS:
            path = copy / m.file
            text = path.read_text()
            mutated = text.replace(m.old, m.new)
            compile(mutated, str(path), "exec")  # a mutant must still be a program
            path.write_text(mutated)
            try:
                passed, wall = _run(m.killer, copy)
            finally:
                path.write_text(text)
            survivors += passed
            print(f"{'SURVIVED' if passed else 'killed'} {m.name} ({wall:.1f} s)")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutant(s) killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
