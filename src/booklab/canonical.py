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

from .graphs import Graph, _bits, from_mask


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
    """`to_mask` of the graph relabeled so that perm[j] becomes j, inlined
    because it runs once per leaf, where relabeling first costs more."""
    key = 0
    for j in range(1, n):
        pj = perm[j]
        for i in range(j):
            key = (key << 1) | ((adj[perm[i]] >> pj) & 1)
    return key


def _canonical_search(g: Graph) -> tuple[CanonicalForm, tuple[tuple[int, ...], ...]]:
    """Canonical form of g and generators of Aut(g), each a tuple sending
    vertex v to sigma[v].

    The generators are recorded the nauty way.  A leaf whose key equals the
    first leaf's, or the best so far, gives the automorphism between the two
    leaf orders, and a pruned twin gives its transposition.  An image of the
    first leaf under any automorphism reaches a visited leaf through those
    transpositions, so the generators generate the whole group.  Twins form
    global classes, and the first scan of a class sees all of it, so each
    class contributes a star of transpositions.
    """
    n = g.n
    nbits = n * (n - 1) // 2
    if n <= 1:
        return CanonicalForm(n, b""), ()
    adj = g.adj
    first = best = (0, [])
    gens: dict[tuple[int, ...], None] = {}
    twins: dict[int, int] = {}

    def descend(cells: list[int]) -> None:
        nonlocal first, best
        for idx, c in enumerate(cells):
            if c.bit_count() > 1:
                break
        else:
            perm = [c.bit_length() - 1 for c in cells]
            key = _encode(adj, perm, n)
            if not first[1]:
                first = best = (key, perm)
            elif key == first[0] or key == best[0]:
                sigma = [0] * n
                for u, v in zip(first[1] if key == first[0] else best[1], perm):
                    sigma[u] = v
                gens[tuple(sigma)] = None
            elif key < best[0]:
                best = (key, perm)
            return
        for v in _twin_representatives(adj, c, twins):
            vb = 1 << v
            descend(_refine(adj, cells[:idx] + [vb, c ^ vb] + cells[idx + 1 :]))

    descend(_refine(adj, [(1 << n) - 1]))
    for v, u in twins.items():
        sigma = list(range(n))
        sigma[u], sigma[v] = v, u
        gens[tuple(sigma)] = None
    pad = (-nbits) % 8
    key = (best[0] << pad).to_bytes((nbits + pad) // 8, "big")
    return CanonicalForm(n, key), tuple(gens)


def canonical_form(g: Graph) -> CanonicalForm:
    return _canonical_search(g)[0]
