"""The scripts under scripts/ run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_climb_experiment_reports_its_hit_rate():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "climb_experiment.py"),
         "--n-min", "10", "--n-max", "11", "--seeds", "2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # recorded when every move was built and checked; the time varies
    assert proc.stdout.splitlines()[-1].startswith("overall: 3/4 = 75.0% in ")
