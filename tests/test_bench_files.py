"""Every committed BENCH_*.json is a readable before/after record: it names
the parent commit, the machine and the size of src/, and for each workload
and end-to-end metric that BENCHMARK.json declares it holds a summary of
the paired runs.  So a speed claim can be checked against its row."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SUMMARY_KEYS = ("parent_median", "change_median", "pairs", "change_better_pairs")


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_summarises_every_declared_metric(path):
    bench = json.loads(path.read_text())
    for key in ("parent_commit", "machine", "src_lines"):
        assert key in bench, f"{path.name} names no {key}"
    missing = []
    for workload in BENCHMARK["workloads"]:
        summary = bench.get("workloads", {}).get(workload["name"], {}).get("summary", {})
        for metric in BENCHMARK["end_to_end"]:
            row = summary.get(metric["name"], {})
            missing += [f"{workload['name']}.{metric['name']}.{k}"
                        for k in SUMMARY_KEYS if k not in row]
    assert not missing, f"{path.name} lacks " + ", ".join(missing)
