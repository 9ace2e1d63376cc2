"""``benchmarks/mutants.py``: every listed mutant still applies.

The script (``make mutants``) runs each mutant's killer; this only
checks the list against the tree, so a refactor that moves a mutated
site cannot leave its mutant silently inapplicable.
"""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "mutants.py"

_spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    assert mutants.occurrences(mutant) == 1
