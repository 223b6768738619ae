"""Record the input pools of climb-lemma and repair-books into pools.json.

    python3 perfbench/record_pools.py

Each pool item is a seed whose output is recorded here and checked on every
pass: the final clique count and canonical key of a climb, the graph6 of a
repaired graph.  Items are timed, sorted by cost and grouped in pairs
of near-equal cost; a workload seed picks one item of each group.  A repair
item whose book scan takes the numpy path is a group of its own, so it runs
for every seed: those items set the peak memory and most of the cost
spread, which would otherwise depend on the seed.  Rerun this only when the
recorded outputs are meant to change, and say so.
"""

from __future__ import annotations

import json
import random
import time

from workloads import LEMMA, POOLS, import_booklab

CLIMB = {"n": 40, "r": 4, "family": LEMMA, "seeds": 8}
REPAIR = {"n": 38, "families": ["B(3,1)", "B(4,1)"], "seeds": 16}


def _timed(fn, *args, **kwargs):
    """(least of three wall times, result): the least is the cost least
    disturbed by other load on the machine."""
    costs = []
    for _ in range(3):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        costs.append(time.perf_counter() - t0)
    return min(costs), result


def _pairs(timed: list[tuple[float, dict]]) -> list[list[dict]]:
    items = [it for _, it in sorted(timed, key=lambda t: t[0])]
    return [items[i : i + 2] for i in range(0, len(items) - 1, 2)]


class _NumpyScanSpy:
    """Counts calls of the numpy pair scanner while an item is recorded."""

    def __init__(self, patterns):
        self.patterns = patterns
        self.real = getattr(patterns, "_pair_scan_numpy", None)
        self.calls = 0

    def __enter__(self):
        if self.real is not None:
            def spy(*args, **kwargs):
                self.calls += 1
                return self.real(*args, **kwargs)

            self.patterns._pair_scan_numpy = spy
        return self

    def __exit__(self, *exc):
        if self.real is not None:
            self.patterns._pair_scan_numpy = self.real


def record_climb(bl) -> dict:
    fam = bl.patterns.parse_family(CLIMB["family"])
    timed = []
    for seed in range(CLIMB["seeds"]):
        g = bl.search.random_free_graph(CLIMB["n"], fam, random.Random(seed))
        cost, rep = _timed(bl.search.symmetrize, g, CLIMB["r"], fam, seed=seed)
        item = {"seed": seed, "count": rep.maximum, "key": rep.witnesses[0].key.hex()}
        timed.append((cost, item))
    return {"n": CLIMB["n"], "r": CLIMB["r"], "family": CLIMB["family"], "groups": _pairs(timed)}


def record_repair(bl) -> dict:
    groups = []
    for text in REPAIR["families"]:
        fam = bl.patterns.parse_family(text)
        timed, fixed = [], []
        for seed in range(REPAIR["seeds"]):
            with _NumpyScanSpy(bl.patterns) as spy:
                cost, g = _timed(
                    lambda: bl.search.random_free_graph(REPAIR["n"], fam, random.Random(seed))
                )
            item = {"family": text, "seed": seed, "g6": bl.formats.graph6_encode(g)}
            if spy.calls:
                fixed.append([item])
            else:
                timed.append((cost, item))
        groups += fixed + _pairs(timed)
    return {"n": REPAIR["n"], "families": REPAIR["families"], "groups": groups}


def main() -> None:
    bl = import_booklab()
    pools = {"climb-lemma": record_climb(bl), "repair-books": record_repair(bl)}
    POOLS.write_text(json.dumps(pools, indent=1) + "\n")
    print(f"wrote {POOLS}")


if __name__ == "__main__":
    main()
