"""The scripts under scripts/ run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_climb_experiment_reports_its_hit_rate():
    proc = _run_script("climb_experiment.py", "--n-min", "10", "--n-max", "11", "--seeds", "2")
    # recorded when every move was built and checked; the time varies
    assert proc.stdout.splitlines()[-1].startswith("overall: 3/4 = 75.0% in ")


def test_reproduce_tables_writes_four_matching_tables(tmp_path):
    _run_script("reproduce_tables.py", "--out-dir", str(tmp_path))
    tables = sorted(tmp_path.glob("*.csv"))
    assert len(tables) == 4
    for table in tables:
        header, *rows = table.read_text().splitlines()
        assert header == "n,formula,computed,match", table.name
        assert rows and all(row.split(",")[-1] == "true" for row in rows), table.name
