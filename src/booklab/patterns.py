"""Forbidden structures: books B(r,s), explicit pattern graphs, families.

A book B(r,s) is a pair of r-cliques sharing exactly s vertices (0 <= s < r).
A family is a conjunction: a graph is free when it avoids every listed book
and contains none of the listed pattern graphs as a subgraph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .canonical import canonical_form
from .errors import ResourceLimitError
from .graphs import (
    Graph,
    VertexSet,
    clique_mask_list,
    complete_graph,
    enumerate_clique_masks,
    find_subgraph,
    from_edges,
)

#: Book detection materializes the clique list; beyond this it refuses.
CLIQUE_BUDGET = 10**6


@dataclass(frozen=True)
class BookSpec:
    """Two r-cliques glued along exactly s shared vertices."""

    r: int
    s: int

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"book needs r >= 2, got r={self.r}")
        if not 0 <= self.s < self.r:
            raise ValueError(
                f"book overlap must satisfy 0 <= s < r, got r={self.r}, s={self.s}"
            )


@dataclass(frozen=True)
class CliqueWitness:
    """A violating pair of cliques and their overlap size."""

    first: VertexSet
    second: VertexSet
    overlap: int


def _is_complete(p: Graph) -> bool:
    return p.edge_count() == p.n * (p.n - 1) // 2


@dataclass(frozen=True)
class ForbiddenFamily:
    """Books and pattern graphs; the pattern split is derived once, in family order."""

    books: tuple[BookSpec, ...] = ()
    patterns: tuple[Graph, ...] = ()
    #: distinct sizes m of the K(m) patterns
    complete_sizes: tuple[int, ...] = field(init=False, compare=False, repr=False)
    #: every pattern that is not a complete graph
    noncomplete: tuple[Graph, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for p in self.patterns:
            if p.n < 1:
                raise ValueError("pattern graphs must have at least one vertex")
        complete = [_is_complete(p) for p in self.patterns]
        sizes = dict.fromkeys(p.n for p, c in zip(self.patterns, complete) if c)
        object.__setattr__(self, "complete_sizes", tuple(sizes))
        object.__setattr__(
            self, "noncomplete", tuple(p for p, c in zip(self.patterns, complete) if not c)
        )

    def is_empty(self) -> bool:
        return not self.books and not self.patterns


def book_graph(spec: BookSpec) -> Graph:
    """The book itself: K_r on 0..r-1 and K_r on r-s..2r-s-1, sharing s vertices."""
    r, s = spec.r, spec.s
    n = 2 * r - s
    edges = []
    first = range(r)
    second = range(r - s, n)
    for block in (first, second):
        verts = list(block)
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                edges.append((verts[i], verts[j]))
    return from_edges(n, edges)


def _pair_scan_python(masks: list[int], s: int) -> tuple[int, int] | None:
    for i in range(len(masks)):
        mi = masks[i]
        for j in range(i + 1, len(masks)):
            if (mi & masks[j]).bit_count() == s:
                return i, j
    return None


def _pair_scan_numpy(masks: list[int], s: int, n: int) -> tuple[int, int] | None:
    """Blockwise vectorized scan; same (i, j) row-major order as the loop."""
    words = max(1, (n + 63) // 64)
    m = len(masks)
    arr = np.empty((m, words), dtype=np.uint64)
    for i, mask in enumerate(masks):
        for w in range(words):
            arr[i, w] = (mask >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
    block = max(1, (1 << 22) // max(1, m * words))
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        inter = np.bitwise_count(arr[lo:hi, None, :] & arr[None, :, :]).sum(axis=2)
        cols = np.arange(m)
        hit = (inter == s) & (cols[None, :] > np.arange(lo, hi)[:, None])
        if hit.any():
            i_off, j = np.argwhere(hit)[0]
            return lo + int(i_off), int(j)
    return None


_NUMPY_SCAN_THRESHOLD = 1500


def book_violation(
    g: Graph, spec: BookSpec, budget: int = CLIQUE_BUDGET
) -> CliqueWitness | None:
    """First pair of r-cliques sharing exactly s vertices, in a fixed scan order.

    Cliques are enumerated lexicographically and pairs scanned row-major, so
    the witness is deterministic.  Raises ResourceLimitError past the budget.
    """
    masks = clique_mask_list(g, spec.r, budget)
    if len(masks) < 2:
        return None
    if len(masks) >= _NUMPY_SCAN_THRESHOLD:
        hit = _pair_scan_numpy(masks, spec.s, g.n)
    else:
        hit = _pair_scan_python(masks, spec.s)
    if hit is None:
        return None
    i, j = hit
    return CliqueWitness(VertexSet(masks[i]), VertexSet(masks[j]), spec.s)


def first_violation(
    g: Graph, family: ForbiddenFamily, budget: int = CLIQUE_BUDGET
) -> int | None:
    """Vertex mask of the first violating structure in g; None when g is free.

    Cheap checks come first: the first clique of the first listed K(m) that
    g contains, then the first witness of each book in turn, then the first
    embedding of each other pattern, all in family order.
    """
    for m in family.complete_sizes:
        clique = next(enumerate_clique_masks(g, m), None)
        if clique is not None:
            return clique
    for spec in family.books:
        w = book_violation(g, spec, budget)
        if w is not None:
            return w.first.bits | w.second.bits
    for p in family.noncomplete:
        image = find_subgraph(g, p)
        if image is not None:
            return sum(1 << v for v in image)
    return None


def is_free(g: Graph, family: ForbiddenFamily, budget: int = CLIQUE_BUDGET) -> bool:
    """True when g avoids every book and every pattern in the family."""
    return first_violation(g, family, budget) is None


# ---------------------------------------------------------------------------
# the two fixed auxiliary pattern graphs

_H1_EDGES = [
    # union of the four K_4s {0,1,2,3}, {1,2,3,5}, {1,3,4,5}, {2,3,5,6}
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    (1, 5), (2, 5), (3, 5),
    (1, 4), (3, 4), (4, 5),
    (2, 6), (3, 6), (5, 6),
]

_H2_EDGES = [
    # K_5 on 0..4 plus vertex 5 joined to {2, 3, 4}
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    (2, 5), (3, 5), (4, 5),
]


def h1_graph() -> Graph:
    """Seven vertices, fifteen edges: the union of four pairwise-overlapping K_4s."""
    return from_edges(7, _H1_EDGES)


def h2_graph() -> Graph:
    """Six vertices, thirteen edges: K_5 plus an apex joined to three of its vertices."""
    return from_edges(6, _H2_EDGES)


def _selfcheck_fixed_patterns() -> None:
    h1 = h1_graph()
    assert h1.n == 7 and h1.edge_count() == 15
    blocks = [(0, 1, 2, 3), (1, 2, 3, 5), (1, 3, 4, 5), (2, 3, 5, 6)]
    for b in blocks:
        assert all(h1.has_edge(u, v) for k, u in enumerate(b) for v in b[k + 1 :])
    non_edges = {(u, v) for u in range(7) for v in range(u + 1, 7) if not h1.has_edge(u, v)}
    assert non_edges == {(0, 4), (0, 5), (0, 6), (1, 6), (2, 4), (4, 6)}
    h2 = h2_graph()
    assert h2.n == 6 and h2.edge_count() == 13
    assert all(h2.has_edge(u, v) for u in range(5) for v in range(u + 1, 5))
    assert h2.neighbors(5) == (2, 3, 4)


_selfcheck_fixed_patterns()


# ---------------------------------------------------------------------------
# family mini-language: comma-separated terms  B(r,s) | K(m) | H1 | H2

_TERM_RE = re.compile(
    r"""^\s*(?:
        B\(\s*(?P<br>\d+)\s*,\s*(?P<bs>\d+)\s*\)
      | K\(\s*(?P<km>\d+)\s*\)
      | (?P<h>H[12])
    )\s*$""",
    re.VERBOSE | re.IGNORECASE,
)


def parse_family(text: str) -> ForbiddenFamily:
    """Parse a family spec such as  "B(4,1),H1,K(5)".  Empty text means no constraints."""
    books: list[BookSpec] = []
    patterns: list[Graph] = []
    if not text.strip():
        return ForbiddenFamily()
    terms, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            terms.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    terms.append("".join(cur))
    for term in terms:
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"unrecognized family term {term.strip()!r}")
        if m.group("br") is not None:
            r, s = int(m.group("br")), int(m.group("bs"))
            if s >= r:
                raise ValueError(
                    f"book term B({r},{s}) is impossible: the overlap s must be"
                    f" smaller than the clique size r"
                )
            books.append(BookSpec(r, s))
        elif m.group("km") is not None:
            mval = int(m.group("km"))
            if mval < 1:
                raise ValueError("K(m) needs m >= 1")
            patterns.append(complete_graph(mval))
        else:
            patterns.append(h1_graph() if m.group("h").upper() == "H1" else h2_graph())
    return ForbiddenFamily(tuple(books), tuple(patterns))


def _pattern_name(p: Graph) -> str:
    if _is_complete(p):
        return f"K({p.n})"
    if p.n == 7 and canonical_form(p) == canonical_form(h1_graph()):
        return "H1"
    if p.n == 6 and canonical_form(p) == canonical_form(h2_graph()):
        return "H2"
    from .formats import graph6_encode

    return f"g6:{graph6_encode(p)}"


def family_to_text(family: ForbiddenFamily) -> str:
    """Inverse of parse_family up to term naming; used in reports."""
    parts = [f"B({b.r},{b.s})" for b in family.books]
    parts.extend(_pattern_name(p) for p in family.patterns)
    return ",".join(parts)


def find_pattern_violation(
    g: Graph, family: ForbiddenFamily
) -> tuple[str, tuple[int, ...]] | None:
    """First pattern of the family embedded in g, with its image; None if clean."""
    for p in family.patterns:
        image = find_subgraph(g, p)
        if image is not None:
            return _pattern_name(p), image
    return None


def family_signature(family: ForbiddenFamily) -> tuple:
    """Label-insensitive hashable key, shared by isomorphic families."""
    books = tuple(sorted((b.r, b.s) for b in family.books))
    pats = tuple(sorted((cf.n, cf.key) for cf in map(canonical_form, family.patterns)))
    return (books, pats)
