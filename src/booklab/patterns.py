"""Forbidden structures: books B(r,s), explicit pattern graphs, families.

A book B(r,s) is a pair of r-cliques sharing exactly s vertices (0 <= s < r).
A family is a conjunction: a graph is free when it avoids every listed book
and contains none of the listed pattern graphs as a subgraph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .canonical import canonical_form
from .formats import graph6_decode, graph6_encode
from .graphs import (
    Graph,
    VertexSet,
    _check_clique_count,
    _list_into,
    clique_mask_list,
    complete_graph,
    enumerate_clique_masks,
    find_subgraph,
    from_edges,
    twin_classes,
)


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


#: one term of a family's check order: a K(m) size, a book or another pattern
Check = int | BookSpec | Graph


@dataclass(frozen=True)
class ForbiddenFamily:
    """Books and pattern graphs; the pattern split and the check order are
    derived once, in family order."""

    books: tuple[BookSpec, ...] = ()
    patterns: tuple[Graph, ...] = ()
    #: distinct sizes m of the K(m) patterns
    complete_sizes: tuple[int, ...] = field(init=False, compare=False, repr=False)
    #: every pattern that is not a complete graph
    noncomplete: tuple[Graph, ...] = field(init=False, compare=False, repr=False)
    #: the order a whole graph is checked in, cheap checks first: each K(m)
    #: size, each book, each other pattern; the first with a `violation_span`
    #: decides
    checks: tuple[Check, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for p in self.patterns:
            if p.n < 1:
                raise ValueError("pattern graphs must have at least one vertex")
        complete = [_is_complete(p) for p in self.patterns]
        sizes = tuple(dict.fromkeys(p.n for p, c in zip(self.patterns, complete) if c))
        noncomplete = tuple(p for p, c in zip(self.patterns, complete) if not c)
        object.__setattr__(self, "complete_sizes", sizes)
        object.__setattr__(self, "noncomplete", noncomplete)
        object.__setattr__(self, "checks", sizes + self.books + noncomplete)


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


class BookScan:
    """The r-cliques of a graph, scanned row by row for a pair that marks a
    book B(r,s), with the cliques of deleted edges dropped in place.

    `masks` lists the cliques inside `within` lexicographically, block by
    block: block v holds those whose least vertex is v, and `rest` is the
    least vertices not used yet.  A dropped clique keeps its row as 0, so
    every other clique keeps its index.  Until a row is clean or an edge
    is dropped, `first` probes its start row against each block as it is
    listed, and stops once fewer than s of the row's vertices are at or
    above the next block's least vertex, as every later clique meets the
    row in fewer than s.  A graph that holds a book usually shows it in
    row 0 within a few blocks.  Then `_columns` lists the rest in
    one call and sets `top`, `live` and cols: cols[v] is the bitset of
    live cliques holding v, clique i at bit top - i, so the cliques after
    row i are the low bits.  Raises ResourceLimitError past
    `graphs.CLIQUE_BUDGET`.

    By default (`within` and `singles` every vertex) a hit is a pair sharing
    exactly s vertices.  With `within` the `graphs.twin_classes`
    representatives and `singles` those whose class has one vertex, a hit
    exists iff g holds a B(r,s), by this lemma.  Every r-clique of g takes
    one vertex of each class of one representative r-clique Q, and every
    such choice is a clique.  Cliques over Q1 != Q2 meet in every size from
    singles(Q1 ∩ Q2) to |Q1 ∩ Q2|; two over one Q, in every size from
    singles(Q) to r - 1.  So the hits are the pairs with |Q1 ∩ Q2| >= s and
    singles(Q1 ∩ Q2) <= s, and the rows with singles(Q) <= s.
    """

    def __init__(self, g: Graph, spec: BookSpec, within: int | None = None,
                 singles: int | None = None):
        full = (1 << g.n) - 1
        self.g, self.r, self.s = g, spec.r, spec.s
        self.rest = full if within is None else within
        self.singles = full if singles is None else singles
        self.masks: list[int] = []
        self.cols: list[int] | None = None

    def _block(self) -> None:
        low = self.rest & -self.rest
        self.rest = rest = self.rest ^ low
        adj = self.g.adj
        _list_into(self.masks, adj, low, rest & adj[low.bit_length() - 1], self.r - 1)
        if rest.bit_count() < self.r:
            self.rest = 0  # too few vertices are left for another clique

    def _columns(self) -> list[int]:
        masks = self.masks
        if self.rest:
            # every clique left lies inside the unused least vertices, in order
            masks += clique_mask_list(self.g, self.r, self.rest)
            _check_clique_count(len(masks), self.r)
            self.rest = 0
        self.top = len(masks) - 1
        self.live = (1 << len(masks)) - 1
        self.cols = cols = [0] * self.g.n
        for k, c in enumerate(reversed(self.masks)):
            bit = 1 << k
            while c:
                low = c & -c
                cols[low.bit_length() - 1] |= bit
                c ^= low
        return cols

    def first(self, start: int = 0) -> tuple[int, int] | None:
        """The first hit (i, j) with i >= start: the least i, then the least
        j; (i, i) when row i is a hit by itself, which needs at most s
        single members and so never happens by default."""
        masks, s, singles = self.masks, self.s, self.singles
        if self.cols is None:
            # no edge is dropped yet: probe row start against the cliques as
            # their blocks come, and list the rest only when the row is clean
            while len(masks) <= start and self.rest:
                self._block()
            if start < len(masks):
                ci = masks[start]
                if (ci & singles).bit_count() <= s:
                    return start, start
                j = start + 1
                while True:
                    end = len(masks)
                    for j in range(j, end):
                        x = ci & masks[j]
                        if x.bit_count() >= s and (x & singles).bit_count() <= s:
                            return start, j
                    j = end
                    low = self.rest & -self.rest
                    if not low or (ci & -low).bit_count() < s:
                        break
                    self._block()
                start += 1
            self._columns()
        top, end = self.top, len(masks)
        cols = self.cols
        steps = range(s + 1, 0, -1)
        rest = [0] * (s + 1)
        for i in range(start, end):
            ci = masks[i]
            if not ci:
                continue
            one = ci & singles
            if one.bit_count() <= s:
                return i, i
            # at[t]: the cliques after row i sharing at least t vertices with
            # it; only at[0] holds dropped ones, as no column does.  The
            # single members go first, and many keeps the cliques sharing
            # more than s of them, which no choice of twins brings down to s
            at = [(1 << (top - i)) - 1] + rest
            other = ci ^ one
            while one:
                low = one & -one
                col = cols[low.bit_length() - 1]
                one ^= low
                for t in steps:
                    at[t] |= at[t - 1] & col
            many = at[s + 1]
            while other:
                low = other & -other
                col = cols[low.bit_length() - 1]
                other ^= low
                for t in steps:
                    at[t] |= at[t - 1] & col
            hit = at[s] & ~many
            if hit:
                hit &= self.live
                if hit:
                    return i, top + 1 - hit.bit_length()
        return None

    def drop_edge(self, u: int, v: int) -> None:
        """Drop the cliques holding both u and v, as deleting edge uv does.
        Valid only on a default scan: deleting an edge splits twin classes."""
        cols = self._columns() if self.cols is None else self.cols
        masks, top = self.masks, self.top
        dead = cols[u] & cols[v]
        self.live ^= dead
        members = 0
        rest = dead
        while rest:
            low = rest & -rest
            rest ^= low
            k = top + 1 - low.bit_length()
            members |= masks[k]
            masks[k] = 0
        while members:
            low = members & -members
            members ^= low
            cols[low.bit_length() - 1] &= ~dead


def book_violation(g: Graph, spec: BookSpec) -> CliqueWitness | None:
    """First pair of r-cliques sharing exactly s vertices, in a fixed scan order.

    Cliques are enumerated lexicographically and the first pair (i, j) in
    row-major order is returned (the least i, then the least j), so the
    witness is deterministic.  This is `BookScan.first` from row 0, the one
    book scanner; `search.random_free_graph` resumes the same scan after
    each deleted edge.  When g has false twins, the scan of its twin
    quotient runs first and answers None when it finds no hit, so a clean
    graph with twins lists only the quotient's cliques.  A hit in row 0
    is found with only the blocks up to it listed, in each scan; a clean
    graph is listed in full.  Raises ResourceLimitError past
    `graphs.CLIQUE_BUDGET`.
    """
    reps, size = twin_classes(g)
    if size is not None:
        singles = sum(1 << v for v, k in enumerate(size) if k == 1)
        if BookScan(g, spec, reps, singles).first() is None:
            return None
    scan = BookScan(g, spec)
    hit = scan.first()
    if hit is None:
        return None
    i, j = hit
    return CliqueWitness(VertexSet(scan.masks[i]), VertexSet(scan.masks[j]), spec.s)


def violation_span(g: Graph, check: Check) -> int | None:
    """Vertex mask of the first violation of one check in g; None when clean.

    A K(m) size finds the first m-clique of `enumerate_clique_masks`, a
    book the pair `book_violation` returns, and a pattern graph the first
    image of `find_subgraph`.
    """
    if isinstance(check, BookSpec):
        w = book_violation(g, check)
        return None if w is None else w.first.bits | w.second.bits
    if isinstance(check, int):
        return next(enumerate_clique_masks(g, check), None)
    image = find_subgraph(g, check)
    return None if image is None else sum(1 << v for v in image)


def first_violation(g: Graph, family: ForbiddenFamily) -> int | None:
    """Vertex mask of the first violating structure in g, over
    `family.checks`; None when g is free."""
    for check in family.checks:
        span = violation_span(g, check)
        if span is not None:
            return span
    return None


def is_free(g: Graph, family: ForbiddenFamily) -> bool:
    """True when g avoids every book and every pattern in the family."""
    return first_violation(g, family) is None


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


# ---------------------------------------------------------------------------
# family mini-language: comma-separated terms  B(r,s) | K(m) | H1 | H2 | g6:<graph6>

_TERM_RE = re.compile(
    r"""^\s*(?:
        B\(\s*(?P<br>\d+)\s*,\s*(?P<bs>\d+)\s*\)
      | K\(\s*(?P<km>\d+)\s*\)
      | (?P<h>H[12])
      | g6:(?P<g6>\S+)
    )\s*$""",
    re.VERBOSE | re.IGNORECASE,
)


def parse_family(text: str) -> ForbiddenFamily:
    """Parse a family spec such as  "B(4,1),H1,K(5)" or "B(3,1),g6:Ch", whose
    g6 term is any pattern by its graph6.  Empty text means no constraints."""
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
        elif m.group("g6") is not None:
            patterns.append(graph6_decode(m.group("g6")))
        else:
            patterns.append(h1_graph() if m.group("h").upper() == "H1" else h2_graph())
    return ForbiddenFamily(tuple(books), tuple(patterns))


def pattern_name(p: Graph) -> str:
    """The family-language name of one pattern: K(m), H1, H2 or g6:<graph6>."""
    if _is_complete(p):
        return f"K({p.n})"
    if p.n == 7 and canonical_form(p) == canonical_form(h1_graph()):
        return "H1"
    if p.n == 6 and canonical_form(p) == canonical_form(h2_graph()):
        return "H2"
    return f"g6:{graph6_encode(p)}"


def family_to_text(family: ForbiddenFamily) -> str:
    """Inverse of parse_family up to term naming; used in reports."""
    parts = [f"B({b.r},{b.s})" for b in family.books]
    parts.extend(pattern_name(p) for p in family.patterns)
    return ",".join(parts)
