"""The scripts under scripts/ run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from designgate.families import THEOREM_IDS

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=300, cwd=cwd)


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


@pytest.mark.parametrize("out_dir,written", [("a_file", 0), ("a_file/sub", 0), ("", 0),
                                              ("reports", 0), ("reports", 1)])
def test_reproduce_all_refuses_what_it_cannot_write_with_one_error_line(
        tmp_path, out_dir, written):
    # A file where the directory should be, or an empty --out-dir (which
    # Path would read as the current directory), fails before any driver
    # runs; a directory where the n-th report should be fails at that report,
    # after the summary lines of the reports before it.  The script runs in
    # tmp_path, so out_dir is relative to it.
    (tmp_path / "a_file").write_text("kept\n")
    blocked = tmp_path / "reports" / f"{THEOREM_IDS[written].replace('.', '_')}.json"
    blocked.mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    proc = _run("reproduce_all.py", "--no-timestamp", "--out-dir", out_dir, cwd=tmp_path)
    assert proc.returncode == 3
    assert proc.stderr.startswith("i/o error: [Errno ") and proc.stderr.count("\n") == 1
    if not out_dir:
        assert proc.stderr == "i/o error: [Errno 2] No such file or directory: ''\n"
    assert [line.split()[0] for line in proc.stdout.splitlines()] == list(THEOREM_IDS[:written])
    reports = [tmp_path / "reports" / f"{tid.replace('.', '_')}.json"
               for tid in THEOREM_IDS[:written]]
    assert sorted(tmp_path.rglob("*")) == sorted(before + reports)
    assert (tmp_path / "a_file").read_text() == "kept\n"


@pytest.mark.parametrize("t", range(1, 6))
def test_deep_u_scan_finds_no_failing_weight_for_24m16_m23(t):
    # m = 23 of family 24m+16 survives every gate at every admissible weight
    # up to strength 5, which is why the driver keeps it (C7).
    proc = _run("deep_u_scan.py", "--family", "24m+16", "--m", "23", "--t", str(t))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(f"strength {t}, 95 weights, 0 vacuous, 0 failing\n")


def test_deep_u_scan_refuses_nonintegral_lambda_levels_with_one_error_line():
    # lambda_2 of family 24m+16 at m = 30 is not a count, so no strength-4
    # gate exists there: one error line, exit 2, nothing on stdout.
    proc = _run("deep_u_scan.py", "--family", "24m+16", "--m", "30", "--t", "4")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: non-integral block counts for [736, 368, 124] "
                                  "(family 24m+16, m=30): lambda_2 = ")
    assert proc.stderr.count("\n") == 1
