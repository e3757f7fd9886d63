"""The scripts under scripts/ run to completion against the current package."""

import json
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(*argv):
    return subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120)


def test_prolongation_walkthrough():
    proc = run_script("prolongation_walkthrough.py")
    assert proc.returncode == 0, proc.stderr
    assert "== derivation basis change ==" in proc.stdout


def test_identity_checks_json():
    proc = run_script("run_identity_checks.py", "--cases", "2", "--json")
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 9
    assert all(r["ok"] is True and r["cases"] == 2 for r in records)
