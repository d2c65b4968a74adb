"""The benchmark's self-test passes on this tree: its output checks accept
a real `gharnack suite` run and reject each tampered copy. An edit to the
program or the bundled config that the checks no longer read fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
