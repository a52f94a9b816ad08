"""Every script under ``demos/`` runs to completion against this package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import febench

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a relative PYTHONPATH=src points nowhere from tmp_path; put the source
    # root of the febench this test imported first, so the child runs it
    root = os.path.dirname(os.path.dirname(os.path.abspath(febench.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [root, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [root])
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
