"""Import discipline of ``repro.obs``.

The exec pool and the simulator import ``repro.obs.spans`` at module
load, so the package ``__init__`` may pull in nothing but that leaf:
the ledger, dashboard and trend modules reach back into ``repro.exec``
(an import cycle), and the recorder and diff modules are dead weight
on every run that does not record. Each check runs in a fresh
interpreter, because this test process has imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).parent.parent / "src")

#: Modules that loading the run path must not drag in.
HEAVY = [f"repro.obs.{name}" for name in ("ledger", "dashboard", "trend", "trace", "diff")]


def loaded_after(statement: str) -> list:
    """The ``repro.obs`` modules a fresh interpreter holds after ``statement``."""
    code = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.obs'))))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module", ["repro.exec.pool", "repro.sim.simulator"])
def test_run_path_skips_heavy_obs_modules(module):
    loaded = loaded_after(f"import {module}")
    assert "repro.obs.spans" in loaded, "the run path traces through spans"
    assert not set(HEAVY) & set(loaded), sorted(set(HEAVY) & set(loaded))
