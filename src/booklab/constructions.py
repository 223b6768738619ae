"""Extremal and near-extremal constructions for book-free clique counting.

Each builder returns a plain Graph plus (separately) a closed-form count of
its r-cliques, so tests can confront formula, construction, and search
against one another.
"""

from __future__ import annotations

from .graphs import (
    Graph,
    _check_order,
    complete_graph,
    disjoint_union,
    empty_graph,
    join,
    turan_graph,
    turan_part_sizes,
)
from .partitions import Partition, is_s_sum_free, offending_subset


def turan_clique_count(n: int, t: int, s: int) -> int:
    """Number of s-cliques in T_t(n): sum over s-subsets of parts of the
    products of their sizes (an elementary symmetric polynomial), exactly."""
    if t < 1:
        raise ValueError("need at least one part")
    if s < 0:
        raise ValueError("clique size must be >= 0")
    if n < 0:
        raise ValueError("negative vertex count")
    if s > t:
        return 0
    # coefficients of prod (1 + size*x), integer arithmetic throughout
    coeffs = [1] + [0] * s
    for size in turan_part_sizes(n, t):
        for k in range(s, 0, -1):
            coeffs[k] += coeffs[k - 1] * size
    return coeffs[s]


def book_extremal(n: int, r: int, s: int) -> Graph:
    """K_{s+1} joined to T_{r-s-1}(n-s-1).

    Every r-clique must absorb the whole K_{s+1} side, so two r-cliques
    always share more than s vertices.  Only built in the regime
    r >= 2s+1 where this shape is the conjectured/known optimum; outside
    it use partition_construction instead.
    """
    if s < 0:
        raise ValueError("overlap s must be >= 0")
    if r < 2 * s + 1:
        raise ValueError(
            f"unsupported regime: book_extremal needs r >= 2s+1, got r={r}, s={s};"
            f" use partition_construction for r <= 2s"
        )
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    return join(complete_graph(s + 1), turan_graph(n - s - 1, r - s - 1))


def k4_packing(n: int) -> Graph:
    """Disjoint K_4 blocks plus one K_{n mod 4} remainder block.

    Triangle count is n, n-1, n-2, n-2 for n = 0, 1, 2, 3 mod 4; any two
    triangles meet in 0 or 2+ vertices, never exactly one.
    """
    _check_order(n)
    g = empty_graph(0)
    for _ in range(n // 4):
        g = disjoint_union(g, complete_graph(4))
    return disjoint_union(g, complete_graph(n % 4))


def k4_packing_count(n: int) -> int:
    """Closed-form triangle count of k4_packing(n)."""
    rem = n % 4
    return (n - rem) + (1 if rem == 3 else 0)


def partition_construction(n: int, p: Partition, s: int) -> Graph:
    """Complete multipartite skeleton with within-part clique blocks.

    Part X_i (sizes as in T_t(n), t = len(p)) is filled with floor(|X_i|/a_i)
    disjoint K_{a_i} blocks; leftover vertices stay edgeless inside the part;
    all cross-part pairs are edges.  Requires p to be s-sum-free: every
    r-clique is then a full block from each part, so two r-cliques overlap
    in a subset-sum of p, never exactly s.
    """
    t = len(p)
    r = p.r
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    if not is_s_sum_free(p, s):
        bad = offending_subset(p, s)
        raise ValueError(
            f"partition {p.parts} is not {s}-sum-free: parts {bad} sum to {s}"
        )
    # vertex v lives in part v mod t, as in turan_graph
    rows = list(turan_graph(n, t).adj)
    for i, a in enumerate(p.parts):
        members = range(i, n, t)
        for lo in range(0, len(members) - a + 1, a):
            block = sum(1 << v for v in members[lo : lo + a])
            for v in members[lo : lo + a]:
                rows[v] |= block ^ (1 << v)
    return Graph(n, tuple(rows))


def partition_predicted_count(n: int, p: Partition) -> int:
    """Product over parts of floor(|X_i| / a_i), with exact part sizes."""
    sizes = turan_part_sizes(n, len(p))
    out = 1
    for size, a in zip(sizes, p.parts):
        out *= size // a
    return out


def b42_construction(n: int) -> Graph:
    """Disjoint triangles completely joined to an independent set.

    Every K_4 is one triangle plus one independent vertex, so two K_4s
    share 0, 1, or 3 vertices, never exactly 2.  With m triangles the
    count is m * (n - 3m); m = (n+1) // 6 maximizes that product, which
    writes n = 6m + t with -1 <= t <= 4 (one extra triangle when
    n = 5 mod 6) and keeps m(3m+t) >= n^2/12 - 2 for every n >= 6.
    For n < 6 this degenerates to the edgeless graph.
    """
    _check_order(n)
    m = (n + 1) // 6 if n >= 6 else 0
    tris = empty_graph(0)
    for _ in range(m):
        tris = disjoint_union(tris, complete_graph(3))
    return join(tris, empty_graph(n - 3 * m))


def b42_count(n: int) -> int:
    """Closed-form K_4 count of b42_construction(n): m * (3m + t)."""
    if n < 6:
        return 0
    m = (n + 1) // 6
    return m * (n - 3 * m)
