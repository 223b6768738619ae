"""The four benchmark workloads.

Each workload builds its inputs from the seed (``setup``), splits one timed
pass over them into items (``prepare`` then ``items``; ``run_pass`` runs them
all) and checks every answer of the pass outside the timed region
(``check``).  The program is called only through module attributes at call
time, so the tracer's rebinding reaches every call.

Why each workload exists:

* gen-lemma: the generation driver.  Canonical labeling and pattern
  embedding on tens of thousands of tiny hosts.
* climb-lemma: the clone-move climb.  The same embedding kernel, pinned, on
  one large host per call; a per-call setup cost that helps gen-lemma hurts
  this one.
* verify-books: constructions verified free.  Book detection on the accept
  path (full pair scan, numpy and Python scanners); no canonical or
  embedding calls.
* repair-books: random graphs repaired to freeness.  Book detection on the
  reject path (first violation, early exit).
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
POOLS = BENCH_DIR / "pools.json"
LEMMA = "B(4,1),H1,K(5)"


def import_booklab() -> SimpleNamespace:
    """Import booklab from ``src/`` of the checkout this benchmark sits in."""
    src = ROOT / "src"
    if not (src / "booklab" / "__init__.py").is_file():
        raise RuntimeError(f"booklab sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    names = ("canonical", "constructions", "formats", "graphs", "patterns", "search")
    mods = {n: importlib.import_module(f"booklab.{n}") for n in names}
    pkg = importlib.import_module("booklab")
    if Path(pkg.__file__).resolve().parent != (src / "booklab").resolve():
        raise RuntimeError(f"imported booklab from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**mods)


def load_pool(workload: str) -> dict:
    return json.loads(POOLS.read_text())[workload]


def pick_items(groups: list, rng: random.Random, tiny: bool) -> list:
    """One item of each recorded group.  A group holds items of near-equal
    cost, so every seed gets other inputs but nearly the same amount of work."""
    groups = groups[:1] if tiny else groups
    return [group[rng.randrange(len(group))] for group in groups]


def run_item(item):
    try:
        return item()
    except Exception as exc:  # an exception is a failed item, not a failed run
        return exc


# ---------------------------------------------------------------------------

class Workload:
    name = ""
    #: the calibration loop whose speed tracks this workload's: "python" or "numpy"
    calibration = "python"

    def prepare(self, inp) -> None:
        """Timed work at the start of every pass, before its first item."""

    def items(self, inp) -> list:
        """The pass's calls into the program, in order, as zero-argument callables."""
        raise NotImplementedError

    def run_pass(self, inp) -> list:
        self.prepare(inp)
        return [run_item(item) for item in self.items(inp)]


class GenLemma(Workload):
    name = "gen-lemma"

    def setup(self, seed: int, tiny: bool = False):
        bl = import_booklab()
        fam = bl.patterns.parse_family(LEMMA)
        rng = random.Random(seed)
        # the seed relabels the pattern graphs; the answers cannot change
        pats = tuple(p.permute(rng.sample(range(p.n), p.n)) for p in fam.patterns)
        family = bl.patterns.ForbiddenFamily(fam.books, pats)
        ns = range(4, 6) if tiny else range(4, 8)
        return SimpleNamespace(bl=bl, family=family, ns=list(ns))

    def expected(self, inp):
        g = inp.bl.graphs
        cf = inp.bl.canonical.canonical_form
        return {
            n: ((n - 2) ** 2 // 4, (cf(g.join(g.complete_graph(2), g.turan_graph(n - 2, 2))),))
            for n in inp.ns
        }

    def prepare(self, inp):
        inp.bl.search.clear_generation_cache()

    def items(self, inp):
        return [lambda n=n: inp.bl.search.exact_ex(n, 4, inp.family) for n in inp.ns]

    def check(self, inp, outputs, expected):
        verdicts = []
        for n, rep in zip(inp.ns, outputs):
            if isinstance(rep, Exception):
                verdicts.append(f"n={n}: {rep!r}")
            elif (rep.maximum, rep.witnesses) != expected[n]:
                verdicts.append(f"n={n}: maximum {rep.maximum}, {len(rep.witnesses)} witnesses")
            else:
                verdicts.append(None)
        return verdicts

    def pass_stats(self, inp, outputs):
        return {"gen.examined": max((r.examined for r in outputs if not isinstance(r, Exception)),
                                    default=0)}


class ClimbLemma(Workload):
    name = "climb-lemma"

    def setup(self, seed: int, tiny: bool = False):
        bl = import_booklab()
        pool = load_pool(self.name)
        family = bl.patterns.parse_family(pool["family"])
        items = pick_items(pool["groups"], random.Random(seed), tiny)
        starts = [
            bl.search.random_free_graph(pool["n"], family, random.Random(it["seed"]))
            for it in items
        ]
        return SimpleNamespace(bl=bl, family=family, r=pool["r"], n=pool["n"], items=items, starts=starts)

    def expected(self, inp):
        return None

    def items(self, inp):
        return [
            lambda g=g, it=it: inp.bl.search.symmetrize(g, inp.r, inp.family, seed=it["seed"])
            for g, it in zip(inp.starts, inp.items)
        ]

    def check(self, inp, outputs, expected):
        bl = inp.bl
        verdicts = []
        for it, rep in zip(inp.items, outputs):
            if isinstance(rep, Exception):
                verdicts.append(f"seed {it['seed']}: {rep!r}")
                continue
            final = rep.witnesses[0].to_graph()
            hist = rep.history
            problems = []
            if not bl.patterns.is_free(final, inp.family):
                problems.append("final graph not free")
            if any(b <= a for a, b in zip(hist, hist[1:])):
                problems.append("history not strictly increasing")
            if not bl.graphs.count_cliques(final, inp.r) == rep.maximum == hist[-1]:
                problems.append("final count differs from history[-1]")
            if rep.maximum != it["count"] or rep.witnesses[0].key.hex() != it["key"]:
                problems.append("final count or canonical key differs from the recorded one")
            verdicts.append(f"seed {it['seed']}: {'; '.join(problems)}" if problems else None)
        return verdicts

    def pass_stats(self, inp, outputs):
        reps = [r for r in outputs if not isinstance(r, Exception)]
        tried = sum(r.examined for r in reps)
        accepted = sum(len(r.history) - 1 for r in reps)
        target = (inp.n - 2) ** 2 // 4
        return {
            "climb.moves_tried": tried,
            "climb.moves_accepted": accepted,
            "climb.accept_ratio": accepted / tried if tried else 0.0,
            "climb.hit_ratio": sum(r.maximum >= target for r in reps) / len(outputs),
        }


class VerifyBooks(Workload):
    name = "verify-books"
    # most of a pass is numpy's blockwise pair scan (book.self_s)
    calibration = "numpy"

    def setup(self, seed: int, tiny: bool = False):
        bl = import_booklab()
        P = bl.patterns
        if tiny:
            grid = [("book", 10, 5), ("book", 7, 5), ("book", 10, 6), ("book", 9, 7),
                    ("b42", 12, 4), ("b42", 6, 4)]
        else:
            grid = [("book", n, r) for r, top in ((5, 40), (6, 40), (7, 36))
                    for n in range(top, r - 1, -3)]
            grid += [("b42", n, 4) for n in range(120, 5, -6)]
        families = {r: P.ForbiddenFamily(books=(P.BookSpec(r, 1),)) for r in (5, 6, 7)}
        families[4] = P.parse_family("B(4,2)")
        rng = random.Random(seed)
        # the seed relabels every construction; counts and freeness cannot change
        perms = [rng.sample(range(n), n) for _, n, _ in grid]
        return SimpleNamespace(bl=bl, grid=grid, families=families, perms=perms)

    def expected(self, inp):
        C = inp.bl.constructions
        return [
            C.turan_clique_count(n - 2, r - 2, r - 2) if kind == "book" else C.b42_count(n)
            for kind, n, r in inp.grid
        ]

    def _verify(self, bl, kind, n, r, perm, family):
        C = bl.constructions
        g = C.book_extremal(n, r, 1) if kind == "book" else C.b42_construction(n)
        h = g.permute(perm)
        return bl.graphs.count_cliques(h, r), bl.patterns.is_free(h, family)

    def items(self, inp):
        return [
            lambda kind=kind, n=n, r=r, perm=perm: self._verify(inp.bl, kind, n, r, perm, inp.families[r])
            for (kind, n, r), perm in zip(inp.grid, inp.perms)
        ]

    def check(self, inp, outputs, expected):
        verdicts = []
        for (kind, n, r), out, want in zip(inp.grid, outputs, expected):
            if isinstance(out, Exception):
                verdicts.append(f"{kind} n={n} r={r}: {out!r}")
            elif out != (want, True):
                verdicts.append(f"{kind} n={n} r={r}: got (count, free)={out}, want ({want}, True)")
            else:
                verdicts.append(None)
        return verdicts

    def pass_stats(self, inp, outputs):
        return {}


def cliques_by_sets(g, r: int) -> list[frozenset]:
    """All r-cliques, read straight from the adjacency rows."""
    nbrs = [{w for w in range(g.n) if (g.adj[v] >> w) & 1} for v in range(g.n)]
    out = []

    def grow(members, cand):
        if len(members) == r:
            out.append(frozenset(members))
            return
        for v in sorted(cand):
            grow(members + [v], {w for w in cand if w > v and w in nbrs[v]})

    grow([], set(range(g.n)))
    return out


def overlap_pairs(cliques: list[frozenset], s: int) -> int:
    """Number of clique pairs that share exactly s vertices."""
    return sum(1 for a, b in combinations(cliques, 2) if len(a & b) == s)


class RepairBooks(Workload):
    name = "repair-books"

    def setup(self, seed: int, tiny: bool = False):
        bl = import_booklab()
        pool = load_pool(self.name)
        families = {f: bl.patterns.parse_family(f) for f in pool["families"]}
        items = pick_items(pool["groups"], random.Random(seed), tiny)
        return SimpleNamespace(bl=bl, n=pool["n"], families=families, items=items)

    def expected(self, inp):
        return None

    def items(self, inp):
        return [
            lambda it=it: inp.bl.search.random_free_graph(
                inp.n, inp.families[it["family"]], random.Random(it["seed"]))
            for it in inp.items
        ]

    def check(self, inp, outputs, expected):
        verdicts = []
        for it, g in zip(inp.items, outputs):
            tag = f"{it['family']} seed {it['seed']}"
            if isinstance(g, Exception):
                verdicts.append(f"{tag}: {g!r}")
                continue
            problems = []
            for spec in inp.families[it["family"]].books:
                if overlap_pairs(cliques_by_sets(g, spec.r), spec.s):
                    problems.append(f"contains B({spec.r},{spec.s})")
            if inp.bl.formats.graph6_encode(g) != it["g6"]:
                problems.append("graph6 differs from the recorded one")
            verdicts.append(f"{tag}: {'; '.join(problems)}" if problems else None)
        return verdicts

    def pass_stats(self, inp, outputs):
        return {}


WORKLOADS = {w.name: w for w in (GenLemma(), ClimbLemma(), VerifyBooks(), RepairBooks())}
