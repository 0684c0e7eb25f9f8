"""The examples that drive the ``Engine`` facade run to exit 0.

Each example is living documentation of the public API, so one that
rots (a renamed key, a removed method) fails here and not only in CI's
examples job.  The slower examples (``k2p_cells``, ``strategy_comparison``)
are left to that job.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXAMPLES = (
    "quickstart",
    "engine_quickstart",
    "heterogeneous_platform",
    "continuous_batching",
    "dynamic_graph",
)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_exits_zero(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
