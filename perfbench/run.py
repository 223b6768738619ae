"""booklab benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload gen-lemma --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; booklab is imported from its ``src/``.
A run sets the workload up (timed, several times), then runs timed passes
of the workload, one caller in one process, until ``--seconds`` would be
exceeded (at least a few passes), and checks every answer of every pass
outside the timed region.

Times are normalised to a reference machine speed.  The speed of a shared
machine drifts by up to 2x over seconds to minutes, which swamps the
program's own changes.  So a fixed calibration loop runs around set-up and
between chunks of about ``CHUNK_S`` of untraced pass work, and the wall time
of set-up and of each item in a chunk is scaled by ``REF_CAL_S`` over the
mean of the loop times on either side of it.  ``norm_wall_s`` sums each
item's median over the passes.  Pure-Python code and numpy's vector loops
do not slow down together, so each workload names the loop that matches
where its time goes (``CALIBRATIONS``).  The loops do not call the program, so a change to
the program moves the normalised times as it moves wall times on a machine
of steady speed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones.  The last line of stdout is the result object; the line before it is
the run's metadata.  The exit code is 1 when any answer check failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import LAYER_METRICS, PASS, Tracer, layer_metrics  # noqa: E402
from workloads import BENCH_DIR, ROOT, WORKLOADS, run_item  # noqa: E402

OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 5
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 60
#: the reference machine speed is the one at which a calibration loop takes this long
REF_CAL_S = 0.04
#: untraced pass work timed between two calibrations, at least
CHUNK_S = 0.25

#: per-layer metrics read from the program's own outputs; 0 where a workload
#: does not produce them
STAT_METRICS = {
    "gen.examined": "count",
    "climb.moves_tried": "count",
    "climb.moves_accepted": "count",
    "climb.accept_ratio": "ratio",
    "climb.hit_ratio": "ratio",
}
TRACE_METRICS = {"trace.overhead_ratio": "ratio", "trace.pass_s": "s"}
END_TO_END = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def calibrate_python() -> float:
    """Wall time of a fixed pure-Python loop (integer arithmetic, bit
    operations, a dict and calls): the interpreter's current speed."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    x = 0x9E3779B97F4A7C15
    for _ in range(40000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        m = x & 0xFFFFFFFFFF
        counts[m & 1023] = counts.get(m & 1023, 0) + bin(m).count("1")
    return time.perf_counter() - t0


@functools.cache
def _scan_masks():
    import numpy as np  # not at module level: set-up times the first numpy import

    return np.random.default_rng(1).integers(0, 2**63, size=(16000, 1), dtype=np.uint64)


def calibrate_numpy() -> float:
    """Wall time of one block of a popcount pair scan over 16000 random 64-bit
    masks, the block book detection's numpy pair scan uses on a clique list
    that long (262 rows; its 32 MB temporaries are mapped and unmapped on
    every call): the current speed of numpy's memory-bound vector loops and
    of the page faults they take."""
    import numpy as np

    arr = _scan_masks()
    rows = (1 << 22) // len(arr)
    t0 = time.perf_counter()
    inter = np.bitwise_count(arr[:rows, None, :] & arr[None, :, :]).sum(axis=2)
    (inter == 3).any()
    return time.perf_counter() - t0


CALIBRATIONS = {"python": calibrate_python, "numpy": calibrate_numpy}


def normalised(wall: float, cal_before: float, cal_after: float) -> float:
    """``wall`` in seconds at the reference speed."""
    return wall * REF_CAL_S / ((cal_before + cal_after) / 2)


def timed_setup(wl, seed: int, tiny: bool = False):
    """Set the workload up; returns (inputs, normalised seconds)."""
    cal = calibrate_python()
    t0 = time.perf_counter()
    inputs = wl.setup(seed, tiny)
    wall = time.perf_counter() - t0
    return inputs, normalised(wall, cal, calibrate_python())


def quartiles(values: list[float]) -> dict:
    vals = sorted(values)
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "samples": len(vals)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_sample(workload: str, seed: int, tiny: bool, with_pass: bool) -> dict:
    """Normalised set-up time measured in a fresh interpreter, so imports are
    cold.  ``with_pass`` also runs one plain pass (no calibration, no tracer,
    no checks) and reports the child's ``peak_rss_mb``."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed), "--seconds", "0"]
        + ["--with-pass"] * with_pass + ["--tiny"] * tiny,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree; read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "commit": git_commit(ROOT),
        "src_lines": src_lines(ROOT),
        "jobs": 1,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
        setup_samples: int = SETUP_SAMPLES, min_passes: int = MIN_PASSES,
        min_traced_pairs: int = MIN_TRACED_PAIRS) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, metadata and details)."""
    wl = WORKLOADS[workload]
    inputs, setup = timed_setup(wl, seed, tiny)
    setups = [setup]
    # at least one child; without tracing the first one also measures peak memory
    children = [child_sample(workload, seed, tiny, with_pass=i == 0 and not trace)
                for i in range(max(1, setup_samples - 1))]
    setups += [c["setup_s"] for c in children]
    expected = wl.expected(inputs)

    tracer = Tracer() if trace else None
    walls: list[float] = []
    item_norms: list[list[float]] = []  # per untraced pass, per item
    cals: list[float] = []
    traced_walls: list[float] = []
    layer_samples: list[dict] = []
    failures: list[str] = []
    attempted = 0
    stats: dict = {}
    last_fold = None

    def calibrated_pass() -> list:
        """One untraced pass, timed in chunks between calibrations; records
        the normalised time of every item (``prepare`` counts to the first)."""
        calibrate = CALIBRATIONS[wl.calibration]
        outputs, chunk, raw, norm = [], [], [], []
        cals.append(calibrate())
        t0 = time.perf_counter()
        wl.prepare(inputs)
        prep = time.perf_counter() - t0
        items = wl.items(inputs)
        for i, item in enumerate(items):
            t0 = time.perf_counter()
            outputs.append(run_item(item))
            chunk.append(time.perf_counter() - t0 + (prep if i == 0 else 0.0))
            if sum(chunk) >= CHUNK_S or i == len(items) - 1:
                cals.append(calibrate())
                raw += chunk
                norm += [normalised(t, cals[-2], cals[-1]) for t in chunk]
                chunk = []
        walls.append(sum(raw))
        item_norms.append(norm)
        return outputs

    def one_pass(traced: bool) -> None:
        nonlocal attempted, stats, last_fold
        if not traced:
            outputs = calibrated_pass()
        else:
            tracer.reset()
            tracer.install()
            root = tracer.open(PASS)
            try:
                p0 = time.perf_counter()
                outputs = wl.run_pass(inputs)
                wall = time.perf_counter() - p0
            finally:
                tracer.close(root)
                tracer.uninstall()
        verdicts = wl.check(inputs, outputs, expected)
        attempted += len(verdicts)
        failures.extend(v for v in verdicts if v is not None)
        stats = wl.pass_stats(inputs, outputs)
        if traced:
            last_fold = tracer.log.fold()
            layer_samples.append(layer_metrics(last_fold, tracer.counters, tracer.keys, tracer.missing))
            traced_walls.append(wall)

    loop0 = time.perf_counter()
    while True:
        step0 = time.perf_counter()
        one_pass(False)
        if trace:
            one_pass(True)
        step = time.perf_counter() - step0
        done = len(traced_walls) if trace else len(walls)
        enough = done >= (min_traced_pairs if trace else min_passes)
        if enough and time.perf_counter() - loop0 + step > seconds:
            break

    if trace:
        metrics = {}
        for name in LAYER_METRICS:
            vals = [s[name] for s in layer_samples if name in s]
            if vals:
                metrics[name] = {"value": statistics.median(vals), "unit": LAYER_METRICS[name][0]}
        for name, unit in STAT_METRICS.items():
            metrics[name] = {"value": stats.get(name, 0), "unit": unit}
        values = {
            "trace.overhead_ratio": statistics.median(traced_walls) / statistics.median(walls),
            "trace.pass_s": statistics.median(traced_walls),
        }
        metrics.update({k: {"value": values[k], "unit": u} for k, u in TRACE_METRICS.items()})
    else:
        values = {
            # each item's median over the passes: a machine hiccup during one
            # item of a pass does not move the other items' figures
            "norm_wall_s": sum(statistics.median(col) for col in zip(*item_norms)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": children[0]["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    failed = len(failures)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    details = metadata(workload, seed, seconds, int(trace))
    details.update({
        "fail_ratio": failed / attempted,
        "failures": failures[:20],
        "norm_pass_s": quartiles([sum(v) for v in item_norms]),
        "norm_item_s": [statistics.median(col) for col in zip(*item_norms)],
        "wall_s": quartiles(walls),
        "calibrate_s": quartiles(cals),
        "setup_s": quartiles(setups),
    })
    if trace:
        details["traced_wall_s"] = quartiles(traced_walls)
        details["missing_hooks"] = sorted(tracer.missing)
        details["folded"] = last_fold.folded_lines()
    return result, details


def write_out(details: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{details['workload']}-seed{details['seed']}-trace{details['trace']}.json"
    path.write_text(json.dumps(details, indent=1) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--with-pass", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        wl = WORKLOADS[args.workload]
        inputs, setup = timed_setup(wl, args.seed, args.tiny)
        sample = {"setup_s": setup}
        if args.with_pass:
            wl.run_pass(inputs)
            sample["peak_rss_mb"] = peak_rss_mb()
        print(json.dumps(sample))
        return 0

    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = write_out(details)
    brief = {k: v for k, v in details.items() if k != "folded"}
    brief["out"] = str(out.relative_to(ROOT))
    print(json.dumps(brief))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
