import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_planted_comparison_prints_its_table():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "planted_comparison.py"),
         "--items", "40", "--workers", "8", "--seeds", "1", "--labels-per-item", "3"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].split() == ["labels/item", "mv", "ds", "mmce"]
    row = lines[2].split()
    assert row[0] == "3" and len(row) == 4 and all(v.endswith("%") for v in row[1:])
