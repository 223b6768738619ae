"""Canonical labeling by ordered-partition refinement with backtracking.

The canonical key is the smallest `graphs.to_mask` (the graph6 bit order)
over all vertex orderings the refinement tree reaches, as big-endian bytes
zero-padded at the low end.  Two graphs get equal keys exactly when they
are isomorphic: the key fixes the whole adjacency matrix, and the
refinement steps are label-independent, so isomorphic graphs explore the
same tree up to relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import Graph, _bits, from_mask, to_mask


@dataclass(frozen=True)
class CanonicalForm:
    """Hashable isomorphism-class fingerprint: vertex count plus packed key."""

    n: int
    key: bytes

    def to_graph(self) -> Graph:
        """Rebuild the canonical representative the key encodes."""
        nbits = self.n * (self.n - 1) // 2
        return from_mask(self.n, int.from_bytes(self.key, "big") >> (-nbits % 8))


def _refine(adj: tuple[int, ...], cells: list[int]) -> list[int]:
    """Split cells by neighbor counts toward every cell until stable.

    Cells are vertex bit masks in a significant order.  Each round splits
    every cell by the counts toward the previous round's cells and orders
    the sub-cells by those signatures, so the outcome is label-independent.
    """
    while True:
        new_cells: list[int] = []
        for c in cells:
            if c.bit_count() == 1:
                new_cells.append(c)
                continue
            groups: dict[tuple[int, ...], int] = {}
            for v in _bits(c):
                sig = tuple([(adj[v] & c2).bit_count() for c2 in cells])
                groups[sig] = groups.get(sig, 0) | 1 << v
            new_cells += [groups[sig] for sig in sorted(groups)]
        if len(new_cells) == len(cells):
            return cells
        cells = new_cells


def _twin_representatives(adj: tuple[int, ...], cell: int, twins: dict[int, int]) -> list[int]:
    """One vertex per twin class of the cell.  Swapping twins is an
    automorphism; each pruned twin v maps to the first representative it
    was pruned against in `twins`."""
    reps: list[int] = []
    for v in _bits(cell):
        vb = 1 << v
        for u in reps:
            if (adj[u] ^ adj[v]) & ~((1 << u) | vb) == 0:
                twins.setdefault(v, u)
                break
        else:
            reps.append(v)
    return reps


def _encode(adj: tuple[int, ...], perm: list[int], n: int) -> int:
    """`to_mask` of the graph relabeled so that perm[j] becomes j.  The bit
    loop is faster up to n = 32; above, its shifts of a growing key are
    quadratic in C(n,2), and relabeling first is linear per row."""
    if n > 32:
        inverse = [0] * n
        for j, v in enumerate(perm):
            inverse[v] = j
        return to_mask(Graph(n, adj).permute(inverse))
    key = 0
    for j in range(1, n):
        pj = perm[j]
        for i in range(j):
            key = (key << 1) | ((adj[perm[i]] >> pj) & 1)
    return key


def _search(g: Graph) -> tuple[CanonicalForm, dict[tuple[int, ...], None], dict[int, int]]:
    """Canonical form of g, the automorphisms found between leaves, each a
    tuple sending vertex v to sigma[v], and the pruned twins, each mapped to
    the representative it was pruned against.  Those automorphisms and the
    twins' transpositions generate Aut(g).

    Twin cells end the search early.  In a twin cell every vertex is a twin
    of the least one, so a vertex outside sees all of it or none: refinement
    never splits it, and individualizing in it splits no other cell and
    keeps every signature's order.  Branching there has one child, so below
    a node whose cells are singletons and twin cells lies one leaf, each
    cell ascending; `descend` emits it at once, each twin recorded against
    its cell's least vertex as the branching did.  The leaves, keys and
    jump-back nodes stay the same, and a blow-up costs what its quotient
    costs.  Leaf keys come from `_encode`: a bit loop up to n = 32, then a
    `Graph.permute` relabel, whose rows past 5 + n/8 neighbours take one
    string pick each.

    The generators are recorded the nauty way.  A pruned twin gives its
    transposition, and a leaf whose key equals the first leaf's, or the best
    so far, gives the automorphism gamma between the two leaf orders; the
    search then jumps back to the node where the two leaves' paths part.  An
    individualized vertex keeps its cell's first position in every leaf
    below, so gamma fixes that node and maps its finished child toward the
    matched leaf onto the current child: the leaves skipped repeat keys
    already bounded, and the minimum key does not change.  By the same
    induction every leaf of the full tree is the image of a visited leaf
    under the group found.  So is the first leaf's image under any
    automorphism, which then lies in that group, as every visited leaf with
    the first key is the image of the first leaf under a generator.  Twins
    form global classes, and the first scan of a class sees all of it, so
    each class contributes a star of transpositions.
    """
    n = g.n
    nbits = n * (n - 1) // 2
    if n <= 1:
        return CanonicalForm(n, b""), {}, {}
    adj = g.adj
    first = best = (0, [], ())
    gens: dict[tuple[int, ...], None] = {}
    twins: dict[int, int] = {}

    def descend(cells: list[int], path: tuple[int, ...]) -> int:
        """Search below the node `path` reached; return the depth to jump back to, or n."""
        nonlocal first, best
        for idx, c in enumerate(cells):
            if c.bit_count() > 1 and len(reps := _twin_representatives(adj, c, twins)) > 1:
                break
        else:
            if len(cells) == n:
                perm = [c.bit_length() - 1 for c in cells]
            else:  # the cells left are twin cells
                perm = [v for c in cells for v in _bits(c)]
            key = _encode(adj, perm, n)
            if not first[1]:
                first = best = (key, perm, path)
            elif key == first[0] or key == best[0]:
                _, leaf, leaf_path = first if key == first[0] else best
                gens[tuple(v for _, v in sorted(zip(leaf, perm)))] = None  # leaf[j] -> perm[j]
                return next(d for d, (a, b) in enumerate(zip(leaf_path, path)) if a != b)
            elif key < best[0]:
                best = (key, perm, path)
            return n
        for v in reps:
            vb = 1 << v
            back = descend(_refine(adj, cells[:idx] + [vb, c ^ vb] + cells[idx + 1 :]), path + (v,))
            if back < len(path):
                return back
        return n

    descend(_refine(adj, [(1 << n) - 1]), ())
    del descend  # the closure refers to itself, a cycle each call would leave
    pad = (-nbits) % 8
    key = (best[0] << pad).to_bytes((nbits + pad) // 8, "big")
    return CanonicalForm(n, key), gens, twins


def _canonical_search(g: Graph) -> tuple[CanonicalForm, tuple[tuple[int, ...], ...]]:
    """Canonical form of g and generators of Aut(g): leaf automorphisms, then twin swaps."""
    form, gens, twins = _search(g)
    for v, u in twins.items():
        sigma = list(range(g.n))
        sigma[u], sigma[v] = v, u
        gens[tuple(sigma)] = None
    return form, tuple(gens)


def canonical_form(g: Graph) -> CanonicalForm:
    return _search(g)[0]  # no twin transposition, n entries each, is built


def _orbit_reps(size: int, tables: list) -> list[int]:
    """The smallest point of each orbit on range(size), ascending, of the
    group generated by the image tables, each sending x to table[x]."""
    seen = bytearray(size)
    reps = []
    for m in range(size):
        if seen[m]:
            continue
        reps.append(m)
        seen[m] = 1
        orbit = [m]
        for x in orbit:  # the orbit grows while it is scanned
            for img in tables:
                y = img[x]
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
    return reps


def subset_orbit_reps(g: Graph) -> list[int]:
    """The smallest mask of each orbit of Aut(g) on subsets of its vertices.
    Each generator's image table is built by doubling, img[m | 1 << i] =
    img[m] | 1 << sigma[i] for m < 2^i, so no mask loops over its bits."""
    tables = []
    for sigma in _canonical_search(g)[1]:
        img = [0]
        for i in range(g.n):
            b = 1 << sigma[i]
            img += [m | b for m in img]
        tables.append(img)
    return _orbit_reps(1 << g.n, tables)


@lru_cache(maxsize=256)
def vertex_orbit_reps(h: Graph) -> tuple[int, ...]:
    """One vertex per orbit of Aut(h), the smallest of each."""
    return tuple(_orbit_reps(h.n, _canonical_search(h)[1]))


@lru_cache(maxsize=256)
def nonedge_orbit_reps(h: Graph) -> tuple[tuple[int, int], ...]:
    """One non-adjacent pair (u, v), u < v, per orbit of Aut(h) on non-edges,
    the lexicographically smallest of each."""
    pairs = [(u, v) for u in range(h.n) for v in range(u + 1, h.n) if not h.has_edge(u, v)]
    index = {uv: i for i, uv in enumerate(pairs)}
    tables = [
        [index[min(s[u], s[v]), max(s[u], s[v])] for u, v in pairs]
        for s in _canonical_search(h)[1]
    ]
    return tuple(pairs[i] for i in _orbit_reps(len(pairs), tables))
