"""``tools/compare_paths.py`` passes a checkout against itself and catches one ulp."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_paths.py"


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--seeds", "0",
                           *args], capture_output=True, text=True, timeout=120)


def test_compare_paths_on_this_checkout():
    same = _run("--workloads", "table1,enet")
    assert same.returncode == 0, same.stdout + same.stderr
    last = same.stdout.splitlines()[-1]
    assert last.startswith("2 paths, ") and last.endswith(" knots: all identical")
    planted = _run("--workloads", "table1", "--self-check")
    assert planted.returncode == 1, planted.stdout + planted.stderr
    assert "MISMATCH table1 seed 0: knot 99 field dual differs" in planted.stdout
