"""Exact search engines and Zykov-style local search.

Two exhaustive engines compute the maximum number of r-cliques over all
family-free graphs on n vertices: a labeled sweep over every edge mask
(small n, trivially correct) and isomorph-free generation that grows graphs
one vertex at a time, pruning unfree children and deduplicating levels by
canonical form.  Pruning is sound because freeness is closed under taking
subgraphs, so every free graph arises from a free parent.  Each parent is
extended by one neighbourhood per orbit of its automorphism group on vertex
subsets, using the generators the canonical search records: isomorphic
children are equally free and share one class; only children whose new
vertex has least degree are checked (McKay's canonical deletion, step one).
Levels below n are cached; the maxima on n vertices come from one bound
pass over the parents on n - 1 vertices, which scores the same children by
the (r-1)-cliques their new vertex sees, checks freeness only where the
score reaches the best so far and canonicalizes only the winners.

The hill climber repeatedly clones one vertex's neighborhood onto another
(cloning the source over a target changes the count by k_r(source) -
k_r(target)); when no single clone improves it tries the paired clone that
copies one vertex over both ends of an edge.  `_clone_free` decides each
move's freeness without `is_free`: books from the source's link, K(m) by
its pull-back through the source, other patterns by `_clone_pins`.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

from .canonical import CanonicalForm, canonical_form, nonedge_orbit_reps, subset_orbit_reps, vertex_orbit_reps
from .errors import ResourceLimitError
from .graphs import (
    Graph,
    _bits,
    _check_clique_count,
    _embed,
    _masks_from,
    clique_mask_list,
    count_cliques,
    disjoint_union,
    empty_graph,
    find_subgraph,
    from_edges,
    from_mask,
)
from .patterns import BookScan, BookSpec, ForbiddenFamily, book_violation, is_free, violation_span

#: Both engines refuse a run past this many candidate graphs (read at call time).
WORK_BUDGET = 2**22


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


def _check_work(count: int, exp: int, what: str) -> None:
    """Refuse count * 2^exp candidate graphs past WORK_BUDGET, comparing
    the exponent first so that no integer of exp bits is built."""
    if exp >= WORK_BUDGET.bit_length() or count << exp > WORK_BUDGET:
        raise ResourceLimitError(
            f"{what}: {count:,} x 2^{exp} candidate graphs exceed the work budget {WORK_BUDGET:,}"
        )


@contextmanager
def _sharder(jobs: int):
    """Yield shard(fn, items, *args): fn((chunk, *args)) for each of at most
    `jobs` chunks dealt round-robin from items, so that no chunk's share
    hangs on the order of items.  For jobs > 1 the chunks go to one process
    pool, of at most one worker per CPU, held until the context ends and
    imported only then, so a run at jobs 1 never loads `multiprocessing`."""
    jobs = max(1, jobs)
    pool, mapper = nullcontext(), map
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1))
        mapper = pool.map
    with pool:
        yield lambda fn, items, *args: list(
            mapper(fn, [(items[i::jobs], *args) for i in range(min(jobs, len(items)))]))


# ---------------------------------------------------------------------------
# labeled brute force

def _labeled_shard(args):
    masks, n, r, family, deadline = args
    best = -1
    wit: set[CanonicalForm] = set()
    examined = 0
    for mask in masks:
        if deadline is not None and (examined & 0xFFF) == 0 and time.monotonic() > deadline:
            break
        examined += 1
        g = from_mask(n, mask)
        # a count below the best can neither raise it nor join the witnesses
        c = count_cliques(g, r)
        if c < best or not is_free(g, family):
            continue
        if c > best:
            best = c
            wit = set()
        if c == best and best > 0:
            wit.add(canonical_form(g))
    return best, wit, examined, examined == len(masks)


def brute_force_labeled(
    n: int,
    r: int,
    family: ForbiddenFamily,
    *,
    max_seconds: float | None = None,
    jobs: int = 1,
) -> SearchReport:
    """Sweep all 2^C(n,2) labeled graphs.  Exponential: refused when
    2^C(n,2) exceeds WORK_BUDGET, so it runs up to n = 7."""
    if r < 1:
        raise ValueError("clique size must be >= 1")
    engine = "labeled-brute-force"
    if n < r:
        return _finish_witnesses(n, r, family, 0, set(), 0, engine, True)
    _check_work(1, n * (n - 1) // 2, f"the labeled sweep at n={n}")
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    with _sharder(jobs) as shard:
        results = shard(_labeled_shard, range(1 << (n * (n - 1) // 2)), n, r, family, deadline)
    best = max(res[0] for res in results)
    wit = set().union(*(res[1] for res in results if res[0] == best))
    examined = sum(res[2] for res in results)
    completed = all(res[3] for res in results)
    return _finish_witnesses(n, r, family, best, wit, examined, engine, completed)


# ---------------------------------------------------------------------------
# isomorph-free generation with per-level canonical dedup

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


def _clique_lists(parent: Graph, family: ForbiddenFamily, *sizes: int) -> dict[int, list[int]]:
    """The cliques of parent that `_free_child` reads, one list per size:
    m - 1 for each K(m), r - 1 and r for each book, and the given sizes."""
    wanted = {*sizes, *(m - 1 for m in family.complete_sizes)}
    for spec in family.books:
        wanted |= {spec.r - 1, spec.r}
    return {rr: clique_mask_list(parent, rr) for rr in wanted}


def _free_child(
    parent: Graph, lists: dict[int, list[int]], smask: int, family: ForbiddenFamily
) -> Graph | None:
    """parent plus one vertex joined to smask, or None when that child is
    not free; only structures through the new vertex are checked, against
    the parent's `_clique_lists`.

    The parent is free and every edge added touches the new vertex, so any
    violating book pair or pattern embedding must involve it.  A new K_m
    through the new vertex is a K_{m-1} inside its neighborhood.  The child
    is built only for the pattern check, after the cliques and books pass.
    An embedding through the new vertex composed with an automorphism of
    the pattern is another one, so each pattern is searched with one vertex
    per `vertex_orbit_reps` orbit pinned there.
    """
    k = parent.n
    for m in family.complete_sizes:
        if any(c & smask == c for c in lists[m - 1]):
            return None
    newbit = 1 << k
    for spec in family.books:
        news = [c | newbit for c in lists[spec.r - 1] if c & smask == c]
        if news and _overlap_hit(news, lists[spec.r], spec.s):
            return None
    rows = [row | newbit if (smask >> i) & 1 else row for i, row in enumerate(parent.adj)]
    child = Graph(k + 1, (*rows, smask))
    hit = any(find_subgraph(child, p, pin=(q, k)) is not None
              for p in family.noncomplete for q in vertex_orbit_reps(p))
    return None if hit else child


def _least_degree_reps(parent: Graph) -> list[int]:
    """The `subset_orbit_reps` masks S whose child P + S has its new vertex
    at least degree (ties kept): with d the parent's least degree, |S| <= d,
    or |S| = d + 1 and S holds every vertex of degree d.

    No class is lost when the parents are the whole level below, as in the
    level builder and the bound pass: deleting a least-degree vertex u of a
    free C leaves a free parent P, and the representative S of the orbit of
    u's neighbourhood gives C back with the new vertex in u's place.  A
    level cut at a clique-count threshold may lack P."""
    deg = [row.bit_count() for row in parent.adj]
    least = min(deg, default=0)
    ties = sum(1 << u for u, d in enumerate(deg) if d == least)
    return [s for s in subset_orbit_reps(parent)
            if s.bit_count() <= least or (s.bit_count() == least + 1 and not ties & ~s)]


def _canonical_shard(args):
    """Canonical forms of each parent's free `_least_degree_reps` children,
    and how many parents were extended before the deadline."""
    parents, family, deadline = args
    found: set[CanonicalForm] = set()
    extended = 0
    for parent in parents:
        if deadline is not None and time.monotonic() > deadline:
            break
        lists = _clique_lists(parent, family)
        for smask in _least_degree_reps(parent):
            child = _free_child(parent, lists, smask, family)
            if child is not None:
                found.add(canonical_form(child))
        extended += 1
    return found, extended


# cache: family -> levels; levels[k] is the key-sorted list of canonical
# forms of the free classes on k vertices
_GEN_CACHE: dict[ForbiddenFamily, list[list[CanonicalForm]]] = {}


def clear_generation_cache() -> None:
    _GEN_CACHE.clear()


def _generation_levels(family: ForbiddenFamily, n: int, deadline, jobs: int):
    """Grow cached levels of free classes up to n vertices.

    Returns (levels, examined, completed).  Every parent on k vertices
    offers 2^k candidate children, so examined is the sum over k < n of
    |levels[k]| * 2^k.  Only fully built levels are cached, so a deadline
    abort never poisons the cache; the level it cut short is returned after
    the cached ones, and examined counts only the parents extended for it.

    Level k + 1 is built only when |levels[k]| * 2^(n-1) fits WORK_BUDGET:
    the last build's candidates at k = n - 1, a lower bound on them below,
    as an isolated vertex maps the free classes on k vertices one-to-one
    into those on k + 1 (when no pattern has a vertex of degree 0).
    """
    if family not in _GEN_CACHE:
        # the cache holds one family's levels
        _GEN_CACHE.clear()
        # a pattern has a vertex and a book three, so the 0-vertex graph is free
        _GEN_CACHE[family] = [[canonical_form(empty_graph(0))]]
    levels = _GEN_CACHE[family]
    with _sharder(jobs) as shard:
        while len(levels) <= n:
            k = len(levels) - 1
            _check_work(len(levels[k]), n - 1,
                        f"building level {n} from at least level {k}'s {len(levels[k]):,} classes")
            parents = [cf.to_graph() for cf in levels[k]]
            results = shard(_canonical_shard, parents, family, deadline)
            level = sorted(set().union(*(res[0] for res in results)), key=lambda cf: cf.key)
            extended = sum(res[1] for res in results)
            if extended < len(parents):
                examined = sum(len(lv) << j for j, lv in enumerate(levels[:k])) + (extended << k)
                return levels + [level], examined, False
            levels.append(level)
    return levels, sum(len(lv) << j for j, lv in enumerate(levels[:n])), True


def _last_level_maxima(parents: list[CanonicalForm], r: int, family: ForbiddenFamily, deadline):
    """The best r-clique count over the free children of `parents`, found
    without building their level.

    Every new r-clique of the child P + S contains the new vertex, so the
    child has count_r(P) plus the number of (r-1)-cliques of P inside S,
    and no child of P beats count_r(P) + K_{r-1}(P).  Parents are visited in
    descending order of that bound, down to the first one below the best
    free child found.  The parents are the whole level n - 1, so a visited
    parent is extended only by its `_least_degree_reps`, and of those only
    the ones whose score reaches the best so far are tested for freeness.
    Only the children at the best score need canonicalizing.  A parent's
    cliques are listed, by `_clique_lists`, only when it is visited.

    A child with no r-clique cannot change the report, which then names the
    edgeless graph, so only positive counts are sought.  Returns (best,
    winners, visited, completed): the winners are the free children found
    at the best count, best is -1 when none with a positive count was
    found, and a deadline stops the pass before the next parent.
    """
    scored = []
    for cf in parents:
        p = cf.to_graph()
        base = count_cliques(p, r)
        scored.append((base + count_cliques(p, r - 1), base, p))
    scored.sort(key=lambda t: -t[0])  # stable, so ties keep the level's key order
    best, winners, visited = -1, [], 0
    for bound, base, p in scored:
        if bound < max(best, 1):
            break
        if deadline is not None and time.monotonic() > deadline:
            return best, winners, visited, False
        visited += 1
        lists = _clique_lists(p, family, r - 1)
        for s in _least_degree_reps(p):
            score = base + sum(c & s == c for c in lists[r - 1])
            child = _free_child(p, lists, s, family) if score >= max(best, 1) else None
            if child is not None:
                if score > best:
                    best, winners = score, []
                winners.append(child)
    return best, winners, visited, True


def canonical_generation(
    n: int,
    r: int,
    family: ForbiddenFamily,
    *,
    max_seconds: float | None = None,
    jobs: int = 1,
) -> SearchReport:
    """Isomorph-free exhaustive search; one representative per free class.

    Levels 0..n-1 are generated (and cached) within WORK_BUDGET; level n is
    never built, its maxima come from one bound pass over the parents on n-1
    vertices.  `examined` counts the 2^(n-1) candidate children of every
    parent, the ones the bound skipped included.
    """
    if r < 1:
        raise ValueError("clique size must be >= 1")
    engine = "canonical-generation"
    if n < r:
        return _finish_witnesses(n, r, family, 0, set(), 0, engine, True)
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    levels, examined, completed = _generation_levels(family, n - 1, deadline, jobs)
    best, winners = -1, []
    if completed:
        parents = levels[n - 1]
        best, winners, visited, completed = _last_level_maxima(parents, r, family, deadline)
        examined += (len(parents) if completed else visited) << (n - 1)
    if best < 0 and not completed:
        # the deadline came before any free child with an r-clique: the deepest
        # graphs held, padded with isolated vertices, give a lower bound where
        # they stay free
        held = next((level for level in reversed(levels) if level), [])
        padded = (disjoint_union(cf.to_graph(), empty_graph(n - cf.n)) for cf in held)
        free = [g for g in padded if is_free(g, family)]
        counts = [count_cliques(g, r) for g in free]
        best = max(counts, default=-1)
        winners = [g for g, c in zip(free, counts) if c == best]
    # at a best of 0 the report names the edgeless graph instead
    wit = {canonical_form(g) for g in winners} if best > 0 else set()
    return _finish_witnesses(n, r, family, best, wit, examined, engine, completed)


def exact_ex(
    n: int,
    r: int,
    family: ForbiddenFamily,
    engine: str = "canonical",
    *,
    max_seconds: float | None = None,
    jobs: int = 1,
) -> SearchReport:
    """Maximum number of r-cliques over family-free graphs on n vertices.

    engine: "canonical" (generation, the one that scales) or "labeled" (the
    sweep of every labeled graph).  Searches with n < r are degenerate: the
    maximum is 0 and the edgeless graph is reported as the witness, on
    either engine and at every n up to VERTEX_CAP.
    """
    if n < 0:
        raise ValueError("negative vertex count")
    if engine == "canonical":
        return canonical_generation(n, r, family, max_seconds=max_seconds, jobs=jobs)
    if engine == "labeled":
        return brute_force_labeled(n, r, family, max_seconds=max_seconds, jobs=jobs)
    raise ValueError(f"unknown engine {engine!r}")


# ---------------------------------------------------------------------------
# local search

def _edge_cover(n: int, cliques: list[int]) -> tuple[Graph, list[int]]:
    """The edges inside the cliques, row v the OR of those through v minus
    v, and how many of the cliques hold each vertex."""
    rows = [0] * n
    held = [0] * n
    for c in cliques:
        for v in _bits(c):
            rows[v] |= c
            held[v] += 1
    return Graph(n, tuple(row & ~(1 << v) for v, row in enumerate(rows))), held


def cleanup_edges(g: Graph, r: int) -> Graph:
    """Delete the edges lying in no r-clique, keeping those the r-cliques
    cover; the count of r-cliques is unchanged.  Like every clique list,
    listing the r-cliques is bounded by CLIQUE_BUDGET."""
    if r < 2:
        raise ValueError("cleanup needs r >= 2")
    return _edge_cover(g.n, clique_mask_list(g, r))[0]


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


def _clones_keep_books(src: int, books, cliques_by_r) -> bool:
    """Does cloning src over non-neighbours keep a book-free graph free?

    A clone replaces each clique c through src by c - src + t on each
    target t.  An old clique b that stays meets it in |c & b| - [src in b]
    vertices, and two copies meet as their originals do, or in one fewer
    on two targets.  So a new B(r,s) is two r-cliques through src, not
    necessarily distinct, that meet in s + 1 vertices, whatever the targets.
    """
    sbit = 1 << src
    for spec in books:
        through = [c for c in cliques_by_r[spec.r] if c & sbit]
        for i, a in enumerate(through):
            if any((a & b).bit_count() == spec.s + 1 for b in through[i:]):
                return False
    return True


def _merged(p: Graph, merge: int) -> Graph:
    """p with the independent vertex set `merge` identified to one vertex."""
    label, k = [], 0
    for v in range(p.n):
        if merge >> v & 1 and merge & ((1 << v) - 1):
            label.append(label[(merge & -merge).bit_length() - 1])
        else:
            label.append(k)
            k += 1
    return from_edges(k, ((label[u], label[w]) for u, w in p.edges()))


@lru_cache(maxsize=256)
def _clone_pins(family: ForbiddenFamily, k: int) -> tuple[tuple[Graph, int, int], ...]:
    """The two-pin checks (p, a, b) of a clone over k targets: one per
    orbit of p's non-edges, less those whose merge cannot be free.

    In a new copy of p the vertices I landing on the twin class (src and
    the targets) are independent, at least two, and at most k + 1.  Merging
    I onto src maps p/I into the clone minus the targets, inside the free
    pre-move graph, so p/I is free.  A pin (a, b) is kept when some
    independent I holding a and b, of at most k + 1 vertices, has p/I free.
    """
    pins = []
    for p in family.noncomplete:
        for a, b in nonedge_orbit_reps(p):
            ab = 1 << a | 1 << b
            rest = [c for c in range(p.n) if not (ab | p.adj[a] | p.adj[b]) >> c & 1]
            merges = (
                ab | sum(1 << c for c in extra)
                for size in range(k)
                for extra in combinations(rest, size)
                if not any(p.has_edge(c, d) for c, d in combinations(extra, 2))
            )
            if any(is_free(_merged(p, merge), family) for merge in merges):
                pins.append((p, a, b))
    return tuple(pins)


def _clone_free(cur, src, targets, family, cliques_by_r, books_ok):
    """cur with src cloned over each target (non-neighbours of src), or None
    when that is not free; books_ok memoises `_clones_keep_books` for cur.

    No new K(m) can appear: it would pull back to cur through src.  src and
    the targets are pairwise non-adjacent twins in the clone, which minus
    the targets lies in the free cur, so a new pattern copy covers two
    twins; swaps move them onto src and targets[0], and one two-pin
    embedding per `_clone_pins` check decides it.
    """
    if src not in books_ok:
        books_ok[src] = _clones_keep_books(src, family.books, cliques_by_r)
    if not books_ok[src]:
        return None
    cand = cur
    for t in targets:
        cand = clone_move(cand, t, src)
    for p, a, b in _clone_pins(family, len(targets)):
        if _embed(cand, p, ((a, src), (b, targets[0]))) is not None:
            return None
    return cand


def _cloned_cliques(cl: list[int], src: int, targets: tuple[int, ...]) -> list[int]:
    """cl, cliques of one size, after src is cloned over targets: those that
    avoid the targets, and a copy on each target of those through src."""
    sbit, tmask = 1 << src, sum(1 << t for t in targets)
    moved = [c ^ sbit for c in cl if c & sbit]
    return [c for c in cl if not c & tmask] + [c | (1 << t) for t in targets for c in moved]


def _carry(
    cand: Graph, src: int, targets: tuple[int, ...], r: int, cliques_by_r, kcount: list[int]
) -> tuple[Graph, list[int]]:
    """cand, the clone of src over targets from the clean graph whose
    r-cliques hold kcount[v] through each v, cleaned up, and the counts
    of the result; cliques_by_r goes from the lists before the move to
    those of the result.  Cleanup keeps the edges of the r-cliques, so
    only smaller cliques can lose one.  When no target is in an r-clique,
    the targets were isolated: no clique is lost, the copies cover the
    targets' new edges, and cand is already clean.  Each list meets
    CLIQUE_BUDGET once final, as a list made afresh would."""
    kept = len(cliques_by_r[r])
    for rr, cl in cliques_by_r.items():
        cliques_by_r[rr] = _cloned_cliques(cl, src, targets)
    if any(kcount[t] for t in targets):
        cur, kcount = _edge_cover(cand.n, cliques_by_r[r])
    else:
        # the r-list is the old one followed by the copies
        cur, kcount = cand, list(kcount)
        for c in cliques_by_r[r][kept:]:
            for v in _bits(c):
                kcount[v] += 1
    adj = cur.adj
    for rr, cl in cliques_by_r.items():
        if rr < r and adj != cand.adj:
            cl = cliques_by_r[rr] = [c for c in cl if all(c & ~adj[v] == 1 << v for v in _bits(c))]
        _check_clique_count(len(cl), rr)
    return cur, kcount


def _shuffled_positions(count: int, rng):
    """Where `rng.shuffle` would move each item of a list of `count`:
    pos[i] is the final place of item i.  The same Fisher-Yates pass makes
    the same `getrandbits` draws, rejections included, so rng ends in the
    state the shuffle leaves; with no rng every item stays put."""
    if rng is None:
        return range(count)
    getrandbits = rng.getrandbits
    held = list(range(count))
    pos = list(held)
    hi = count - 1
    while hi > 0:
        # places lo..hi draw below i + 1 with the same number of bits, k
        k = (hi + 1).bit_length()
        lo = max(1, (1 << (k - 1)) - 1)
        for i in range(hi, lo - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            # place i is final: it takes the item at j, which takes i's
            pos[held[j]] = i
            held[j] = held[i]
        hi = lo - 1
    if count:
        pos[held[0]] = 0
    return pos


def _single_moves(cur: Graph, kcount: list[int], rng):
    """The single clones (src, (u,)) that raise the count, in the order a
    stable sort by gain, best first, gives the list of them all, u then src
    ascending, after `rng.shuffle`: the same order and the same draws, but
    only the gain groups the caller reaches are built.

    With m_u the vertices outside u's row in more r-cliques than u, move
    (src, u) has index offs[u] + |m_u below src| in that list, and its
    place after the shuffle comes from `_shuffled_positions`.  The group of
    gain g is the moves onto u from level[kcount[u] + g], ordered by place;
    with no rng, by least target, then least source."""
    level: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    for v, c in enumerate(kcount):
        level[c] = level.get(c, 0) | 1 << v
        members.setdefault(c, []).append(v)
    counts = sorted(level)
    above, more = {}, 0
    for c in reversed(counts):
        above[c] = more
        more |= level[c]
    masks, offs, total = [], [], 0
    for u, row in enumerate(cur.adj):
        m = above[kcount[u]] & ~row
        masks.append(m)
        offs.append(total)
        total += m.bit_count()
    pos = _shuffled_positions(total, rng)
    lows: dict[int, list[int]] = {}  # gain -> the counts c with c + gain a count
    for i, c in enumerate(counts):
        for d in counts[i + 1 :]:
            lows.setdefault(d - c, []).append(c)
    for gain in sorted(lows, reverse=True):
        group = []
        for c in lows[gain]:
            top = level[c + gain]
            for u in members[c]:
                m, base = masks[u], offs[u]
                t = m & top
                while t:
                    low = t & -t
                    t ^= low
                    group.append((pos[base + (m & (low - 1)).bit_count()], low.bit_length() - 1, u))
        group.sort()
        for _, src, u in group:
            yield src, (u,)


def _paired_moves(cur: Graph, kcount: list[int], target: list[int], rng):
    """The paired clones (y, (x, z)) that raise the count: y over both ends
    of an edge among its non-neighbours, best gain first, then least (y, x,
    z).  Listed once the singles have failed; rng makes the draws a shuffle
    of the list would, which never changes this total order but moves the
    rng on for later steps.  A pair's count is at most the lesser of its
    ends', so a gain needs both ends' counts below 2·kcount[y]; only those
    ends are walked, and the pair counts are made at the first such edge."""
    pair_k = None
    under: dict[int, int] = {}
    moves = []
    for y, row in enumerate(cur.adj):
        t = 2 * kcount[y]
        if t not in under:
            under[t] = sum(1 << v for v, k in enumerate(kcount) if k < t)
        others = under[t] & ~row & ~(1 << y)
        for x in _bits(others):
            for z in _bits(others & cur.adj[x] & -(2 << x)):
                if pair_k is None:
                    pair_k = Counter(ab for c in target for ab in combinations(_bits(c), 2))
                gain = t - kcount[x] - kcount[z] + pair_k[(x, z)]
                if gain > 0:
                    moves.append((-gain, y, x, z))
    _shuffled_positions(len(moves), rng)
    moves.sort()
    for _, y, x, z in moves:
        yield y, (x, z)


def symmetrize(
    g: Graph, r: int, family: ForbiddenFamily, *, seed: int | None = None
) -> SearchReport:
    """Hill-climb the r-clique count by admissible clone moves.

    Alternates edge cleanup with the best count-increasing clone move that
    keeps the graph family-free; when no single move improves, tries paired
    clones over the two ends of an edge.  The count strictly increases with
    every accepted move, so termination is guaranteed.  A seed randomizes
    the order among equally good moves; by default a tie between single
    moves goes to the least target, then the least source, and one between
    paired moves to the least (source, target pair).  The clique lists are
    made after the first cleanup and carried across the moves by `_carry`.
    """
    if not is_free(g, family):
        raise ValueError("symmetrize requires a family-free starting graph")
    if r < 2:
        raise ValueError("cleanup needs r >= 2")
    rng = random.Random(seed) if seed is not None else None
    n = g.n
    cliques_by_r = {r: clique_mask_list(g, r)}
    cur, kcount = _edge_cover(n, cliques_by_r[r])
    for rr in {b.r for b in family.books} - {r}:
        cliques_by_r[rr] = clique_mask_list(cur, rr)
    history: list[int] = []
    examined = 0

    while True:
        target = cliques_by_r[r]
        history.append(len(target))
        if not target:
            break  # every clone gain is a difference of clique counts, all 0

        books_ok: dict[int, bool] = {}
        moves = chain(_single_moves(cur, kcount, rng), _paired_moves(cur, kcount, target, rng))
        for src, targets in moves:
            examined += 1
            cand = _clone_free(cur, src, targets, family, cliques_by_r, books_ok)
            if cand is not None:
                break
        else:
            break
        cur, kcount = _carry(cand, src, targets, r, cliques_by_r, kcount)

    witnesses = (canonical_form(cur),)
    return SearchReport(n, r, family, history[-1], witnesses, examined, "hill-climb", False,
                        tuple(history))


# ---------------------------------------------------------------------------
# seeded starting points for climb experiments

def _delete_inside(rows: list[int], span: int, rng: random.Random) -> tuple[int, int]:
    """Delete from rows, in place, one edge among the vertices of span,
    drawn as rng.choice would from a list of those edges in lexicographic
    order: the edges are counted, and only the drawn one is found;
    returns the edge."""
    count, rest = 0, span
    while rest:
        low = rest & -rest
        rest ^= low
        count += (rows[low.bit_length() - 1] & rest).bit_count()
    k, rest = rng.choice(range(count)), span
    while True:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        later = rows[u] & rest
        if k < later.bit_count():
            break
        k -= later.bit_count()
    for _ in range(k):
        later &= later - 1
    v = (later & -later).bit_length() - 1
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return u, v


def random_free_graph(n: int, family: ForbiddenFamily, rng: random.Random, p: float = 0.5) -> Graph:
    """Random graph repaired to family-freeness by deleting edges inside
    violating structures until none remain.  Deterministic given the rng.

    Each step deletes an edge inside the first violation of
    `patterns.first_violation`.  The repair runs that rule one check of
    `family.checks` at a time, each until it is clean: deleting an edge
    creates no violation, so a clean check stays clean.  Every stage
    deletes in place on one row list.  A K(m) size resumes its clique
    search at the least vertex of its last hit: an m-clique left with a
    lesser least vertex was there before the deletion and would have come
    first.  A book lists its cliques once and resumes one
    `patterns.BookScan` at the row of its last hit after each deletion,
    which drops exactly the cliques holding both ends of the edge.
    """
    for pat in family.patterns:
        if pat.edge_count() == 0:
            raise ValueError("family forbids an edgeless pattern; no repair can succeed")
    rows = list(from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                               if rng.random() < p]).adj)
    full = (1 << n) - 1
    for check in family.checks:
        if isinstance(check, int):
            floor = full
            while (span := next(_masks_from(rows, 0, floor, check), None)) is not None:
                _delete_inside(rows, span, rng)
                floor = full & -(span & -span)
            continue
        if not isinstance(check, BookSpec):
            while (span := violation_span(Graph(n, tuple(rows)), check)) is not None:
                _delete_inside(rows, span, rng)
            continue
        g = Graph(n, tuple(rows))
        # the book check perfbench traces (book.calls); a clean book stops
        # here, and a dirty one stops at its first hit, listing few blocks
        if book_violation(g, check) is None:
            continue
        scan = BookScan(g, check)
        hit = scan.first()
        while hit is not None:
            i, j = hit
            scan.drop_edge(*_delete_inside(rows, scan.masks[i] | scan.masks[j], rng))
            hit = scan.first(i)
    return Graph(n, tuple(rows))
