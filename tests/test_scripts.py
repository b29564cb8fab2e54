"""The scripts under scripts/ run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from designgate.families import THEOREM_IDS

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_reproduce_all_reproduces_six_drivers_and_knows_the_thm52_diff(tmp_path):
    proc = _run("reproduce_all.py", "--no-timestamp", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    status = {line.split()[0]: line for line in proc.stdout.splitlines()
              if not line.startswith(" ")}
    assert list(status) == list(THEOREM_IDS)
    for tid, line in status.items():
        assert ("KNOWN DIFF" if tid == "thm5.2" else "REPRODUCED") in line, line
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{tid.replace('.', '_')}.json" for tid in THEOREM_IDS)


@pytest.mark.parametrize("t", range(1, 6))
def test_deep_u_scan_finds_no_failing_weight_for_24m16_m23(t):
    # m = 23 of family 24m+16 survives every gate at every admissible weight
    # up to strength 5, which is why the driver keeps it (C7).
    proc = _run("deep_u_scan.py", "--family", "24m+16", "--m", "23", "--t", str(t))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(f"strength {t}, 95 weights, 0 vacuous, 0 failing\n")
