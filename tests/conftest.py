"""Shared strategies and independent reference implementations.

The oracles here deliberately use a different algorithmic route than the
package (itertools subsets, permutation minima, set-based sums) so that
agreement is meaningful.
"""

import itertools

import hypothesis
from hypothesis import strategies as st

from booklab.canonical import subset_orbit_reps, vertex_orbit_reps
from booklab.graphs import Graph, from_edges, from_mask
from booklab.patterns import is_free

hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.register_profile("thorough", deadline=None, max_examples=400)
hypothesis.settings.load_profile("default")


# ---------------------------------------------------------------------------
# strategies


@st.composite
def graphs(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    return from_mask(n, mask)


@st.composite
def graphs_with_vertex_pair(draw, min_n=2, max_n=8):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    u = draw(st.integers(min_value=0, max_value=g.n - 1))
    v = draw(st.integers(min_value=0, max_value=g.n - 1))
    return g, u, v


@st.composite
def twin_blowups(draw, max_base=5):
    """A small graph with each vertex blown up into 1-3 false twins (equal
    rows, pairwise non-adjacent), then up to two twin pairs joined (true
    twins), up to two pairs toggled (broken rows) and the vertices shuffled."""
    base = draw(graphs(min_n=1, max_n=max_base))
    owner = [v for v in range(base.n) for _ in range(draw(st.integers(1, 3)))]
    n = len(owner)
    pairs = {(a, b) for a, b in itertools.combinations(range(n), 2)
             if base.has_edge(owner[a], owner[b])}
    twins = [(a, b) for a, b in itertools.combinations(range(n), 2) if owner[a] == owner[b]]
    if twins:
        pairs |= set(draw(st.lists(st.sampled_from(twins), max_size=2)))
    if n > 1:
        pairs ^= set(draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                                   max_size=2, unique=True)))
    perm = draw(st.permutations(range(n)))
    return from_edges(n, [(perm[a], perm[b]) for a, b in pairs])


# ---------------------------------------------------------------------------
# highly symmetric graphs, hard cases for canonical labeling


def kneser(m, k):
    """Vertices are the k-subsets of range(m), adjacent when disjoint."""
    subsets = [set(c) for c in itertools.combinations(range(m), k)]
    return from_edges(
        len(subsets),
        [(a, b) for a, b in itertools.combinations(range(len(subsets)), 2)
         if not subsets[a] & subsets[b]],
    )


def paley(q):
    """Vertices are Z_q (q prime, q = 1 mod 4), adjacent when they differ by a square."""
    squares = {x * x % q for x in range(1, q)}
    return from_edges(q, [(a, b) for a, b in itertools.combinations(range(q), 2)
                          if (b - a) % q in squares])


# ---------------------------------------------------------------------------
# oracles


def oracle_count_cliques(g: Graph, r: int) -> int:
    if r == 0:
        return 1
    total = 0
    for combo in itertools.combinations(range(g.n), r):
        if all(g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
            total += 1
    return total


def oracle_canonical_key(g: Graph) -> tuple:
    """Minimum adjacency encoding over every relabeling.  Factorial; n <= 6."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        bits = tuple(
            1 if g.has_edge(perm[i], perm[j]) else 0
            for j in range(g.n)
            for i in range(j)
        )
        if best is None or bits < best:
            best = bits
    return (g.n, best)


def oracle_contains_subgraph(g: Graph, h: Graph) -> bool:
    if h.n > g.n:
        return False
    for combo in itertools.permutations(range(g.n), h.n):
        if all(
            g.has_edge(combo[a], combo[b])
            for a, b in itertools.combinations(range(h.n), 2)
            if h.has_edge(a, b)
        ):
            return True
    return False


def oracle_partitions(r: int):
    """All partitions of r, built by first-part recursion (not the package's)."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return list(rec(r, r))


def oracle_subset_sums(parts) -> set:
    sums = {0}
    for a in parts:
        sums |= {x + a for x in sums}
    return sums


def oracle_beta(r: int, s: int) -> int:
    best = 0
    for parts in oracle_partitions(r):
        hit = any(
            sum(c) == s
            for k in range(1, len(parts) + 1)
            for c in itertools.combinations(parts, k)
        )
        if not hit:
            best = max(best, len(parts))
    return best


def orbit_double_count(lower, upper, family) -> tuple[int, int]:
    """Both sides of the orbit double count between the free classes on k
    vertices (lower) and on k + 1 (upper), lists of canonical forms.

    Deleting a vertex v of a free class C on k + 1 vertices leaves a free
    parent P and v's neighbourhood S, and two vertices of C give isomorphic
    pairs (P, S) exactly when an automorphism of C maps one to the other.
    So when both lists are whole levels, the Aut(P)-orbits of subsets S with
    P + S free, summed over lower (the left side, each child decided by
    the full `is_free`), number the Aut(C)-orbits of vertices summed over
    upper (the right side).  Neither side uses the level builder's
    least-degree rule or its incremental child check."""
    left = 0
    for cf in lower:
        p = cf.to_graph()
        k = p.n
        for s in subset_orbit_reps(p):
            rows = tuple(row | (s >> i & 1) << k for i, row in enumerate(p.adj))
            left += is_free(Graph(k + 1, (*rows, s)), family)
    right = sum(len(vertex_orbit_reps(cf.to_graph())) for cf in upper)
    return left, right
