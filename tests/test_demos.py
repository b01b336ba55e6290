"""The demos run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import alontarsi

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(alontarsi.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    ["01_atn_basics.py", "02_constructions.py", "03_coloring_sandwich.py",
     "04_efl_configurations.py", "05_campaigns.py"],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
