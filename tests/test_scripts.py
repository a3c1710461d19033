import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_convergence_study_second_order():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "convergence_study.py"),
         "--levels", "2"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    rows = out.stdout.strip().splitlines()
    assert len(rows) == 3                  # header plus two grid levels
    assert float(rows[-1].split()[-2]) >= 1.9
