"""Immutable bit-vector graphs and the clique / containment kernel.

A graph stores one integer per vertex whose set bits are the neighbor
indices.  Python integers are arbitrary-precision bit vectors, so the
same word-wise AND tricks work uniformly for any order; everything below
64 vertices stays on the CPython small-int fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import itemgetter, or_
from typing import Iterator, Sequence

from . import canonical  # a cycle: canonical imports this module, and booklab loads it first
from .errors import ResourceLimitError

#: Soft guard against absurd inputs.  Constructions in this package live in
#: the tens-to-hundreds of vertices; raise this if you know what you're doing,
#: but keep it at most 258047, the largest order graph6_encode's header holds.
VERTEX_CAP = 4096

#: Every materialized clique list stops past this many cliques.
CLIQUE_BUDGET = 10**6


def _check_order(n: int) -> None:
    """The one vertex-count guard: every builder and codec calls it before allocating."""
    if not 0 <= n <= VERTEX_CAP:
        raise ValueError(f"vertex count {n} outside [0, {VERTEX_CAP}]")


def _check_clique_count(count: int, r: int) -> None:
    """The one clique-budget guard, read at call time: every clique list
    and the CLI's up-front check on a construction's predicted count."""
    if count > CLIQUE_BUDGET:
        raise ResourceLimitError(
            f"more than {CLIQUE_BUDGET} cliques of size {r}; raise the budget to proceed"
        )


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class VertexSet:
    """A subset of vertices, stored as a bit mask."""

    bits: int

    @classmethod
    def of(cls, *vertices: int) -> "VertexSet":
        m = 0
        for v in vertices:
            m |= 1 << v
        return cls(m)

    def vertices(self) -> tuple[int, ...]:
        return tuple(_bits(self.bits))

    def overlap(self, other: "VertexSet") -> int:
        return (self.bits & other.bits).bit_count()

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, v: int) -> bool:
        return (self.bits >> v) & 1 == 1


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    adj[v] is the neighbor set of v as a bit mask.  Instances are values:
    every operation returns a new graph.  Factories check their input; hot
    loops that build graphs from already-consistent rows skip the check.
    """

    n: int
    adj: tuple[int, ...]

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in _bits(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + v)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.adj[v]))

    def permute(self, perm: tuple[int, ...] | list[int]) -> "Graph":
        """Relabel: vertex v of self becomes perm[v] of the result.  A row
        with more than 5 + n/8 neighbors is formatted, its digits picked in
        the new order and parsed, about 1 + n/45 microseconds; the bit loop
        takes about 0.18 a neighbor (CPython 3.11)."""
        n = self.n
        if sorted(perm) != list(range(n)):
            raise ValueError("perm is not a permutation of range(n)")
        image = [1 << p for p in perm]
        # digit k of a new row, most significant first, is digit order[k] of the old
        order = [0] * n
        for w, p in enumerate(perm):
            order[n - 1 - p] = n - 1 - w
        pick = itemgetter(*order) if n else None
        fmt, cut = f"0{n}b", 5 + n // 8
        rows = [0] * n
        for u, row in enumerate(self.adj):
            if row.bit_count() > cut:
                rows[perm[u]] = int("".join(pick(format(row, fmt))), 2)
                continue
            out = 0
            while row:
                low = row & -row
                out |= image[low.bit_length() - 1]
                row ^= low
            rows[perm[u]] = out
        return Graph(n, tuple(rows))


def from_edges(n: int, edges) -> Graph:
    """Build a graph from an iterable of (u, v) pairs.  Duplicates collapse."""
    _check_order(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def empty_graph(n: int) -> Graph:
    _check_order(n)
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    _check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)]) if n else empty_graph(0)


def turan_part_sizes(n: int, t: int) -> tuple[int, ...]:
    """Part sizes of the Turan graph T_t(n): the first n mod t parts round up."""
    if t < 1:
        raise ValueError("need at least one part")
    q, rem = divmod(n, t)
    return tuple(q + 1 if i < rem else q for i in range(t))


def turan_graph(n: int, t: int) -> Graph:
    """Complete multipartite T_t(n); vertex i sits in part i mod t."""
    if t < 1:
        raise ValueError("need at least one part")
    _check_order(n)
    full = (1 << n) - 1
    part_mask = [sum(1 << v for v in range(i, n, t)) for i in range(min(t, n))]
    return Graph(n, tuple(full & ~part_mask[v % t] for v in range(n)))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides; h is shifted."""
    n = g.n + h.n
    _check_order(n)
    g_side = (1 << g.n) - 1
    h_side = ((1 << h.n) - 1) << g.n
    rows = [g.adj[u] | h_side for u in range(g.n)]
    rows += [(h.adj[v] << g.n) | g_side for v in range(h.n)]
    return Graph(n, tuple(rows))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    _check_order(n)
    rows = list(g.adj) + [h.adj[v] << g.n for v in range(h.n)]
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# edge masks, the one upper-triangle codec of graph6, canonical keys and the
# labeled sweep: pair (i, j), i < j, column by column, (0,1) in the highest
# of the C(n,2) bits.  One format/int call per column keeps both linear.

def from_mask(n: int, mask: int) -> Graph:
    nbits = n * (n - 1) // 2
    # reversed, character p is bit p, and column j reads (j-1, j) .. (0, j)
    bits = format(mask, f"0{nbits}b")[::-1]
    rows = [0] * n
    for j in range(1, n):
        rows[j] = col = int(bits[nbits - j * (j + 1) // 2 : nbits - j * (j - 1) // 2], 2)
        jb = 1 << j
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= jb
            col ^= low
    return Graph(n, tuple(rows))


def to_mask(g: Graph) -> int:
    cols = (format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n))
    return int("0" + "".join(cols), 2)


# ---------------------------------------------------------------------------
# cliques

# Each kernel recurses in a module-level helper that takes adj as an
# argument: a closure that calls itself would leave a reference cycle for
# the garbage collector on every call.

def twin_classes(g: Graph) -> tuple[int, tuple[int, ...] | None]:
    """The classes of false twins, vertices with equal adjacency rows (so
    never adjacent), as (reps, size): reps holds the least vertex of each
    class, and size[v] is the size of v's class for v in reps, 0 elsewhere;
    size is None when every class is one vertex."""
    if len(set(g.adj)) == g.n:
        return (1 << g.n) - 1, None
    rep: dict[int, int] = {}
    size = [0] * g.n
    reps = 0
    for v, row in enumerate(g.adj):
        u = rep.setdefault(row, v)
        if u == v:
            reps |= 1 << v
        size[u] += 1
    return reps, tuple(size)


def _count_from(adj: tuple[int, ...], size: tuple[int, ...] | None, cand: int, need: int) -> int:
    """Sum over the need-cliques inside cand of the product of their
    members' size; size None weighs every vertex 1, so the last vertex is
    counted by a popcount without a call."""
    total = 0
    if need == 1:
        if size is None:
            return cand.bit_count()
        while cand:
            low = cand & -cand
            total += size[low.bit_length() - 1]
            cand ^= low
        return total
    while cand:
        if cand.bit_count() < need:
            break
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        if size is not None:
            total += size[v] * _count_from(adj, size, cand & adj[v], need - 1)
        elif need == 2:
            total += (cand & adj[v]).bit_count()
        else:
            total += _count_from(adj, None, cand & adj[v], need - 1)
    return total


def count_cliques(g: Graph, r: int) -> int:
    """Number of r-cliques.  r=0 counts the empty clique once.

    An r-clique takes one vertex of each class of an r-clique of
    `twin_classes` representatives, any choice, so each of those weighs
    the product of its class sizes."""
    if r < 0:
        raise ValueError("clique size must be >= 0")
    if r == 0:
        return 1
    reps, size = twin_classes(g)
    return _count_from(g.adj, size, reps, r)


def _masks_from(adj: Sequence[int], chosen: int, cand: int, need: int) -> Iterator[int]:
    if need == 0:
        yield chosen
        return
    while cand:
        if cand.bit_count() < need:
            return
        low = cand & -cand
        cand ^= low
        yield from _masks_from(adj, chosen | low, cand & adj[low.bit_length() - 1], need - 1)


def enumerate_clique_masks(g: Graph, r: int) -> Iterator[int]:
    """Yield every r-clique as a bit mask, lexicographically by sorted members.

    Lazy, so a caller that wants only the first clique pays for no more.
    """
    if r < 0:
        raise ValueError("clique size must be >= 0")
    yield from _masks_from(g.adj, 0, (1 << g.n) - 1, r)


def enumerate_cliques(g: Graph, r: int) -> Iterator[VertexSet]:
    """Deterministic stream of all r-cliques as VertexSets."""
    for mask in enumerate_clique_masks(g, r):
        yield VertexSet(mask)


def has_clique(g: Graph, r: int) -> bool:
    """Existence test: stops at the first clique `enumerate_clique_masks` yields."""
    return r >= 0 and next(enumerate_clique_masks(g, r), None) is not None


def clique_number(g: Graph) -> int:
    w = 0
    while has_clique(g, w + 1):
        w += 1
    return w


def _list_into(out: list[int], adj: tuple[int, ...], chosen: int, cand: int, need: int) -> None:
    if need == 1:
        # the innermost burst appends at most n cliques before the guard
        while cand:
            low = cand & -cand
            out.append(chosen | low)
            cand ^= low
        _check_clique_count(len(out), chosen.bit_count() + 1)  # chosen holds r - 1 vertices
        return
    while cand:
        if cand.bit_count() < need:
            return
        low = cand & -cand
        cand ^= low
        _list_into(out, adj, chosen | low, cand & adj[low.bit_length() - 1], need - 1)


def clique_mask_list(g: Graph, r: int, within: int | None = None) -> list[int]:
    """Materialize all r-cliques (inside `within`, if given) as masks, in
    the order of `enumerate_clique_masks`, refusing past CLIQUE_BUDGET."""
    if r < 0:
        raise ValueError("clique size must be >= 0")
    if r == 0:
        return [0]
    out: list[int] = []
    _list_into(out, g.adj, 0, (1 << g.n) - 1 if within is None else within, r)
    return out


# ---------------------------------------------------------------------------
# subgraph containment (not induced): injective map carrying edges to edges

@lru_cache(maxsize=1024)
def _plan(h: Graph, pinned: tuple[int, ...]):
    """Search plan of h with the given pattern vertices placed first, the
    rest most-constrained-first (most placed neighbours, then degree).

    Returns (order, later, need): the pattern vertex at each position, the
    later positions adjacent to it, and its degree.
    """
    order = list(pinned)
    placed = sum(1 << p for p in pinned)
    while len(order) < h.n:
        best, best_key = -1, (-1, -1)
        for p in range(h.n):
            if (placed >> p) & 1:
                continue
            key = ((h.adj[p] & placed).bit_count(), h.adj[p].bit_count())
            if key > best_key:
                best, best_key = p, key
        order.append(best)
        placed |= 1 << best
    later = tuple(
        tuple(j for j in range(i + 1, h.n) if h.has_edge(p, order[j])) for i, p in enumerate(order)
    )
    return tuple(order), later, tuple(h.adj[p].bit_count() for p in order)


def _embed(
    g: Graph, h: Graph, pins: tuple[tuple[int, int], ...]
) -> tuple[int, ...] | None:
    """First embedding of h into g with each pin (p, w) sending p to w.

    The pins name distinct pattern vertices.  Returns the host vertex of
    every pattern vertex, or None.  Pinned vertices are placed first, each
    with its host vertex as its only candidate, the rest in the order of h's
    cached plan, and host candidates are tried in ascending order.

    Domains and a neighbour count prune subtrees that hold no embedding
    (README "Embedding"), so the first embedding found does not change.
    """
    if h.n > g.n:
        return None
    order, later, need = _plan(h, tuple(p for p, _ in pins))
    adj = g.adj
    nh = h.n
    image = [0] * nh

    def place(idx: int, free: int, dom: list[int]) -> bool:
        cand = dom[idx] & free
        d, p, nxt = need[idx], order[idx], later[idx]
        reach = free & reduce(or_, map(dom.__getitem__, nxt), 0)
        while cand:
            low = cand & -cand
            w = low.bit_length() - 1
            cand ^= low
            row = adj[w]
            if row.bit_count() < d or (reach & row).bit_count() < len(nxt):
                continue
            child = dom.copy()
            for j in nxt:
                child[j] = dj = child[j] & row
                if not dj & free:
                    break
            else:
                image[p] = w
                if idx + 1 == nh or place(idx + 1, free ^ low, child):
                    return True
        return False

    full = (1 << g.n) - 1
    found = not nh or place(0, full, [1 << w for _, w in pins] + [full] * (nh - len(pins)))
    del place  # the closure refers to itself, a cycle each call would leave
    return tuple(image) if found else None


def find_subgraph(
    g: Graph, h: Graph, *, pin: tuple[int, int] | None = None
) -> tuple[int, ...] | None:
    """First embedding of h into g, as a tuple mapping pattern vertex -> host.

    pin=(p, w) forces pattern vertex p onto host vertex w.  Returns None when
    no embedding exists.  Extra host edges are fine; this is plain subgraph
    containment, not induced.  A pin outside either graph raises ValueError.
    """
    if pin is None:
        return _embed(g, h, ())
    if not (0 <= pin[0] < h.n and 0 <= pin[1] < g.n):
        raise ValueError(f"pin {pin} is outside the pattern's {h.n} or the host's {g.n} vertices")
    return _embed(g, h, (pin,))


def contains_subgraph(g: Graph, h: Graph) -> bool:
    return find_subgraph(g, h) is not None


def contains_subgraph_at(g: Graph, h: Graph, host_vertex: int) -> bool:
    """Does some embedding of h cover the given host vertex?

    An embedding through the host vertex composed with an automorphism of h
    is another one, so one pinned vertex per orbit suffices.
    """
    for p in canonical.vertex_orbit_reps(h):
        if find_subgraph(g, h, pin=(p, host_vertex)) is not None:
            return True
    return False
