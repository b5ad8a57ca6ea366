"""The demos run to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import klgauss

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", ["scalar_double_well.py", "gaussian_samplers.py"])
def test_demo_exits_cleanly(demo):
    # each takes a few seconds; the child imports the same package as the tests
    src = str(Path(klgauss.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True,
                            text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
