"""The demo scripts run to completion from an empty working directory.

``04_benchmark.py`` runs a full simulation table, about a minute, and is not
run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssnpath

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(ssnpath.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, writes",
    [
        ("01_single_fit.py", ()),
        ("02_solution_path.py", ("path_demo.csv", "path_demo_coefs.csv")),
        ("03_recovery_theory.py", ()),
    ],
)
def test_demo_runs(script, writes, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    for name in writes:
        assert (tmp_path / name).stat().st_size > 0
