"""Smoke test: the scripts under scripts/ run on small settings and succeed."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_scripts_run_and_sweep_passes():
    sweep = run_script("equivalence_sweep.py", "--models", "20", "--max-length", "3")
    assert sweep.returncode == 0, sweep.stdout + sweep.stderr
    assert "PASS" in sweep.stdout.splitlines()

    stress = run_script("long_chain_stress.py", "--length", "30", "--trials", "2")
    assert stress.returncode == 0, stress.stdout + stress.stderr

    wide = run_script("long_chain_stress.py", "--length", "200", "--hidden", "16",
                      "--scale", "1000", "--trials", "1")
    assert wide.returncode == 0, wide.stdout + wide.stderr
    assert "PASS" in wide.stdout.splitlines()
