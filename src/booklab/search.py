"""Exact search engines and Zykov-style local search.

Two exhaustive engines compute the maximum number of r-cliques over all
family-free graphs on n vertices: a labeled sweep over every edge mask
(small n, trivially correct) and isomorph-free generation that grows graphs
one vertex at a time, pruning unfree children and deduplicating levels by
canonical form.  Pruning is sound because freeness is closed under taking
subgraphs, so every free graph arises from a free parent.

The hill climber repeatedly clones one vertex's neighborhood onto another
(count changes by k_r(target) - k_r(source)); when no single clone improves
it tries the paired clone that copies one vertex over both ends of an edge.
Every accepted move is re-checked for family-freeness, so the climber works
for any family even though its move accounting mirrors the two-clique case.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import patterns
from .canonical import CanonicalForm, canonical_form
from .errors import ResourceLimitError
from .graphs import (
    Graph,
    _bits,
    clique_mask_list,
    count_cliques,
    empty_graph,
    enumerate_clique_masks,
    find_subgraph,
    from_mask,
    has_clique,
)
from .patterns import ForbiddenFamily, family_signature, first_violation, is_free

LABELED_DEFAULT_CAP = 7
CANONICAL_DEFAULT_CAP = 10


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one search run.

    witnesses are canonical forms of the graphs attaining `maximum`
    (deduplicated; for a maximum of 0 the edgeless graph stands alone).
    `history` is the clique-count trace of a hill climb, empty for the
    exhaustive engines.  `exhaustive` is False when a deadline cut the
    run short, in which case `maximum` is only a lower bound.
    """

    n: int
    r: int
    family: ForbiddenFamily
    maximum: int
    witnesses: tuple[CanonicalForm, ...]
    examined: int
    engine: str
    exhaustive: bool
    history: tuple[int, ...] = ()


def _finish_witnesses(
    n: int,
    r: int,
    family: ForbiddenFamily,
    best: int,
    wit_keys: set[CanonicalForm],
    examined: int,
    engine: str,
    exhaustive: bool,
) -> SearchReport:
    if best <= 0:
        # every free graph attains 0; report the edgeless one, or nothing if
        # even that is forbidden (a family containing K(1) forbids everything)
        eg = empty_graph(n)
        wit = (canonical_form(eg),) if is_free(eg, family) else ()
        return SearchReport(n, r, family, 0, wit, examined, engine, exhaustive)
    witnesses = tuple(sorted(wit_keys, key=lambda cf: (cf.n, cf.key)))
    return SearchReport(n, r, family, best, witnesses, examined, engine, exhaustive)


# ---------------------------------------------------------------------------
# labeled brute force

def _labeled_shard(args):
    n, r, family, lo, hi, deadline = args
    best = -1
    wit: set[CanonicalForm] = set()
    examined = 0
    completed = True
    for mask in range(lo, hi):
        if deadline is not None and (mask & 0xFFF) == 0 and time.monotonic() > deadline:
            completed = False
            break
        examined += 1
        g = from_mask(n, mask)
        if not is_free(g, family):
            continue
        c = count_cliques(g, r)
        if c > best:
            best = c
            wit = set()
        if c == best and best > 0:
            wit.add(canonical_form(g))
    return best, wit, examined, completed


def brute_force_labeled(
    n: int,
    r: int,
    family: ForbiddenFamily,
    *,
    cap: int | None = None,
    max_seconds: float | None = None,
    jobs: int = 1,
) -> SearchReport:
    """Sweep all 2^C(n,2) labeled graphs.  Exponential; capped at n <= 7 by default."""
    cap = LABELED_DEFAULT_CAP if cap is None else cap
    if n > cap:
        raise ResourceLimitError(
            f"labeled sweep of n={n} exceeds the cap {cap}; pass a larger cap to force it"
        )
    engine = "labeled-brute-force"
    if n < r:
        return _finish_witnesses(n, r, family, 0, set(), 0, engine, True)
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    total = 1 << (n * (n - 1) // 2)
    if jobs <= 1 or total < 4096:
        best, wit, examined, completed = _labeled_shard((n, r, family, 0, total, deadline))
    else:
        step = -(-total // jobs)
        shards = [
            (n, r, family, lo, min(lo + step, total), deadline)
            for lo in range(0, total, step)
        ]
        best, wit, examined, completed = -1, set(), 0, True
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for sb, sw, se, sc in pool.map(_labeled_shard, shards):
                examined += se
                completed &= sc
                if sb > best:
                    best, wit = sb, set()
                if sb == best:
                    wit |= sw
    return _finish_witnesses(n, r, family, best, wit, examined, engine, completed)


# ---------------------------------------------------------------------------
# isomorph-free generation with per-level canonical dedup

def _child_graph(parent: Graph, smask: int) -> Graph:
    k = parent.n
    rows = [row | (1 << k) if (smask >> i) & 1 else row for i, row in enumerate(parent.adj)]
    rows.append(smask)
    return Graph(k + 1, tuple(rows))


def _overlap_hit(news: list[int], olds: list[int], s: int) -> bool:
    """Does a new clique share exactly s vertices with an old one or another new one?"""
    for a in news:
        for b in olds:
            if (a & b).bit_count() == s:
                return True
    for i, a in enumerate(news):
        for b in news[i + 1 :]:
            if (a & b).bit_count() == s:
                return True
    return False


def _pattern_through(g: Graph, noncomplete, touched) -> bool:
    """Does some pattern embed in g with one of its vertices on a touched vertex?"""
    for p in noncomplete:
        if p.n <= g.n:
            for w in touched:
                for q in range(p.n):
                    if find_subgraph(g, p, pin=(q, w)) is not None:
                        return True
    return False


def _child_is_free(
    parent: Graph,
    parent_cliques: dict[int, list[int]],
    child: Graph,
    smask: int,
    family: ForbiddenFamily,
) -> bool:
    """Freeness of parent + one vertex, checking only structures through it.

    The parent is free and every edge added touches the new vertex, so any
    violating book pair or pattern embedding must involve it.  A new K_m
    through the new vertex is a K_{m-1} inside its neighborhood.
    """
    k = parent.n
    for m in family.complete_sizes:
        if has_clique(parent, m - 1, within=smask):
            return False
    newbit = 1 << k
    for spec in family.books:
        news = [c | newbit for c in enumerate_clique_masks(parent, spec.r - 1, within=smask)]
        if news and _overlap_hit(news, parent_cliques[spec.r], spec.s):
            return False
    return not _pattern_through(child, family.noncomplete, (k,))


def _extend_parent(parent: Graph, family: ForbiddenFamily):
    """All free children of one parent, as (canonical form, child) pairs."""
    k = parent.n
    budget = patterns.CLIQUE_BUDGET
    parent_cliques = {
        rr: clique_mask_list(parent, rr, budget) for rr in {b.r for b in family.books}
    }
    out = []
    for smask in range(1 << k):
        child = _child_graph(parent, smask)
        if _child_is_free(parent, parent_cliques, child, smask, family):
            out.append((canonical_form(child), child))
    return out


def _canonical_shard(args):
    parents, family, deadline = args
    found: dict[CanonicalForm, Graph] = {}
    examined = 0
    completed = True
    for parent in parents:
        if deadline is not None and time.monotonic() > deadline:
            completed = False
            break
        examined += 1 << parent.n
        for cf, child in _extend_parent(parent, family):
            if cf not in found:
                found[cf] = child
    return found, examined, completed


# cache: family signature -> (levels, candidate counts); levels[k] holds one
# (canonical form, representative) per free class on k vertices
_GEN_CACHE: dict[tuple, tuple[list[list[tuple[CanonicalForm, Graph]]], list[int]]] = {}


def clear_generation_cache() -> None:
    _GEN_CACHE.clear()


def _generation_levels(family: ForbiddenFamily, n: int, deadline, jobs: int):
    """Grow cached levels of free representatives up to n vertices.

    Returns (levels, candidate_counts, completed).  Only fully built levels
    are cached, so a deadline abort never poisons the cache.
    """
    sig = family_signature(family)
    if sig not in _GEN_CACHE:
        base = empty_graph(0)
        lvl0 = [(canonical_form(base), base)] if is_free(base, family) else []
        _GEN_CACHE[sig] = ([lvl0], [0])
    levels, examined_per_level = _GEN_CACHE[sig]
    while len(levels) <= n:
        k = len(levels) - 1
        parents = [g for _, g in levels[k]]
        sharded = jobs > 1 and len(parents) >= 4 * jobs and k >= 5
        step = -(-len(parents) // jobs) if sharded else max(1, len(parents))
        shards = [(parents[lo : lo + step], family, deadline) for lo in range(0, len(parents), step)]
        merged: dict[CanonicalForm, Graph] = {}
        examined = 0
        completed = True
        if sharded:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_canonical_shard, shards))
        else:
            results = map(_canonical_shard, shards)
        for found, ex, comp in results:
            examined += ex
            completed &= comp
            for cf, g in found.items():
                merged.setdefault(cf, g)
        if not completed:
            return levels, examined_per_level, False
        levels.append(sorted(merged.items(), key=lambda kv: kv[0].key))
        examined_per_level.append(examined)
    return levels, examined_per_level, True


def canonical_generation(
    n: int,
    r: int,
    family: ForbiddenFamily,
    *,
    cap: int | None = None,
    max_seconds: float | None = None,
    jobs: int = 1,
) -> SearchReport:
    """Isomorph-free exhaustive search; one representative per free class."""
    cap = CANONICAL_DEFAULT_CAP if cap is None else cap
    if n > cap:
        raise ResourceLimitError(
            f"canonical generation at n={n} exceeds the cap {cap}; pass a larger cap to force it"
        )
    engine = "canonical-generation"
    if n < r:
        return _finish_witnesses(n, r, family, 0, set(), 0, engine, True)
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    levels, examined_per_level, completed = _generation_levels(family, n, deadline, jobs)
    examined = sum(examined_per_level[: n + 1])
    best = -1
    wit: set[CanonicalForm] = set()
    if len(levels) > n:
        for cf, g in levels[n]:
            c = count_cliques(g, r)
            if c > best:
                best, wit = c, set()
            if c == best and best > 0:
                wit.add(cf)
    return _finish_witnesses(n, r, family, best, wit, examined, engine, completed)


def exact_ex(
    n: int,
    r: int,
    family: ForbiddenFamily,
    engine: str = "auto",
    *,
    cap: int | None = None,
    max_seconds: float | None = None,
    jobs: int = 1,
) -> SearchReport:
    """Maximum number of r-cliques over family-free graphs on n vertices.

    engine: "labeled", "canonical", or "auto" (canonical generation, the
    one that scales).  Searches with n < r are degenerate: the maximum is 0
    and the edgeless graph is reported as the witness.
    """
    if n < 0:
        raise ValueError("negative vertex count")
    if r < 1:
        raise ValueError("clique size must be >= 1")
    if engine in ("auto", "canonical"):
        return canonical_generation(n, r, family, cap=cap, max_seconds=max_seconds, jobs=jobs)
    if engine == "labeled":
        return brute_force_labeled(n, r, family, cap=cap, max_seconds=max_seconds, jobs=jobs)
    raise ValueError(f"unknown engine {engine!r}")


# ---------------------------------------------------------------------------
# local search

def cleanup_edges(g: Graph, r: int) -> Graph:
    """Repeatedly delete edges lying in no r-clique.  Count of r-cliques is
    unchanged (an r-clique's edges each lie in at least that clique)."""
    if r < 2:
        raise ValueError("cleanup needs r >= 2")
    cur = g
    while True:
        dead = []
        for u, v in cur.edges():
            if not has_clique(cur, r - 2, within=cur.adj[u] & cur.adj[v]):
                dead.append((u, v))
        if not dead:
            return cur
        rows = list(cur.adj)
        for u, v in dead:
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
        cur = Graph(cur.n, tuple(rows))


def clone_move(g: Graph, u: int, v: int) -> Graph:
    """Replace u's neighborhood with v's (requires u != v and uv not an edge).

    The r-clique count changes by exactly k_r(v) - k_r(u): cliques through u
    are swapped for copies of the cliques through v.
    """
    if u == v:
        raise ValueError("clone_move needs two distinct vertices")
    if g.has_edge(u, v):
        raise ValueError(f"clone_move requires a non-edge, but {u}{v} is an edge")
    rows = list(g.adj)
    old, new = rows[u], g.adj[v]
    ubit = 1 << u
    for w in _bits(old & ~new):
        rows[w] &= ~ubit
    for w in _bits(new & ~old):
        rows[w] |= ubit
    rows[u] = new
    return Graph(g.n, tuple(rows))


def _clone_free(cand, src, targets, family, cliques_by_r):
    """Family check for cand, made by cloning src over each target (all non-edges).

    Only structures through a target are new.  New complete subgraphs are
    impossible (they would pull back to the pre-move graph through src), so
    K(m) patterns need no check here.
    """
    sbit = 1 << src
    tmask = sum(1 << t for t in targets)
    for spec in family.books:
        cl = cliques_by_r[spec.r]
        scl = [c for c in cl if c & sbit]
        news = [(c ^ sbit) | (1 << t) for t in targets for c in scl]
        if news and _overlap_hit(news, [c for c in cl if not c & tmask], spec.s):
            return False
    return not _pattern_through(cand, family.noncomplete, targets)


def symmetrize(
    g: Graph, r: int, family: ForbiddenFamily, *, seed: int | None = None
) -> SearchReport:
    """Hill-climb the r-clique count by admissible clone moves.

    Alternates edge cleanup with the best count-increasing clone move that
    keeps the graph family-free; when no single move improves, tries paired
    clones over the two ends of an edge.  The count strictly increases with
    every accepted move, so termination is guaranteed.  A seed randomizes
    the order among equally good moves; by default ties break toward the
    lexicographically smallest move.
    """
    if not is_free(g, family):
        raise ValueError("symmetrize requires a family-free starting graph")
    rng = random.Random(seed) if seed is not None else None
    needed_rs = {b.r for b in family.books} | {r}
    budget = patterns.CLIQUE_BUDGET
    n = g.n
    full = (1 << n) - 1

    cur = cleanup_edges(g, r)
    history = [count_cliques(cur, r)]
    examined = 0

    while True:
        cliques_by_r = {rr: clique_mask_list(cur, rr, budget) for rr in needed_rs}
        target = cliques_by_r[r]
        kcount = [0] * n
        for c in target:
            for v in _bits(c):
                kcount[v] += 1

        singles = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and not (cur.adj[u] >> v) & 1 and kcount[v] > kcount[u]
        ]
        if rng is not None:
            rng.shuffle(singles)
        singles.sort(key=lambda uv: -(kcount[uv[1]] - kcount[uv[0]]))

        chosen = None
        for u, v in singles:
            examined += 1
            cand = clone_move(cur, u, v)
            if _clone_free(cand, v, (u,), family, cliques_by_r):
                chosen = cand
                break

        if chosen is None:
            pair_k: dict[tuple[int, int], int] = {}
            for c in target:
                members = list(_bits(c))
                for i, a in enumerate(members):
                    for b in members[i + 1 :]:
                        pair_k[(a, b)] = pair_k.get((a, b), 0) + 1
            triples = []
            for y in range(n):
                nonnbrs = full & ~cur.adj[y] & ~(1 << y)
                others = list(_bits(nonnbrs))
                for i, x in enumerate(others):
                    for z in others[i + 1 :]:
                        if not (cur.adj[x] >> z) & 1:
                            continue  # paired move only pays off across an edge
                        gain = (
                            2 * kcount[y]
                            - kcount[x]
                            - kcount[z]
                            + pair_k.get((x, z), 0)
                        )
                        if gain > 0:
                            triples.append((y, x, z, gain))
            if rng is not None:
                rng.shuffle(triples)
            triples.sort(key=lambda t: (-t[3], t[0], t[1], t[2]))
            for y, x, z, gain in triples:
                examined += 1
                cand = clone_move(clone_move(cur, z, y), x, y)
                if _clone_free(cand, y, (x, z), family, cliques_by_r):
                    chosen = cand
                    break

        if chosen is None:
            break
        cur = cleanup_edges(chosen, r)
        history.append(count_cliques(cur, r))

    return SearchReport(
        n=n,
        r=r,
        family=family,
        maximum=history[-1],
        witnesses=(canonical_form(cur),),
        examined=examined,
        engine="hill-climb",
        exhaustive=False,
        history=tuple(history),
    )


# ---------------------------------------------------------------------------
# seeded starting points for climb experiments

def random_free_graph(n: int, family: ForbiddenFamily, rng: random.Random, p: float = 0.5) -> Graph:
    """Random graph repaired to family-freeness by deleting edges inside
    violating structures until none remain.  Deterministic given the rng."""
    for pat in family.patterns:
        if pat.edge_count() == 0:
            raise ValueError("family forbids an edgeless pattern; no repair can succeed")
    nbits = n * (n - 1) // 2
    mask = 0
    for k in range(nbits):
        if rng.random() < p:
            mask |= 1 << k
    g = from_mask(n, mask)
    while True:
        span = first_violation(g, family)
        if span is None:
            return g
        members = list(_bits(span))
        inside = [
            (u, v) for i, u in enumerate(members) for v in members[i + 1 :] if g.has_edge(u, v)
        ]
        u, v = rng.choice(inside)
        rows = list(g.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        g = Graph(n, tuple(rows))
