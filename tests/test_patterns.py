import itertools
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import booklab
from booklab.constructions import book_extremal
from booklab.errors import ResourceLimitError
from booklab.graphs import (
    Graph,
    _bits,
    clique_mask_list,
    complete_graph,
    contains_subgraph,
    count_cliques,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_clique_masks,
    find_subgraph,
    from_edges,
    from_mask,
    join,
    turan_graph,
    twin_classes,
)
from booklab.patterns import (
    BookScan,
    BookSpec,
    ForbiddenFamily,
    book_graph,
    book_violation,
    family_to_text,
    first_violation,
    h1_graph,
    h2_graph,
    is_free,
    parse_family,
    violation_span,
)

from conftest import graphs, oracle_contains_subgraph, twin_blowups


def test_book_spec_validation():
    BookSpec(2, 0)
    BookSpec(5, 4)
    with pytest.raises(ValueError):
        BookSpec(1, 0)
    with pytest.raises(ValueError):
        BookSpec(3, 3)
    with pytest.raises(ValueError):
        BookSpec(3, -1)


def test_book_graph_shape():
    for r in range(2, 6):
        for s in range(r):
            g = book_graph(BookSpec(r, s))
            assert g.n == 2 * r - s
            assert g.edge_count() == r * (r - 1) - s * (s - 1) // 2
    bowtie = book_graph(BookSpec(3, 1))
    assert (bowtie.n, bowtie.edge_count()) == (5, 6)
    assert count_cliques(bowtie, 3) == 2
    b42 = book_graph(BookSpec(4, 2))
    assert (b42.n, b42.edge_count()) == (6, 11)
    b40 = book_graph(BookSpec(4, 0))
    assert (b40.n, b40.edge_count()) == (8, 12)


_SMALL_SPECS = [
    BookSpec(r, s) for r in range(2, 5) for s in range(r) if 2 * r - s <= 7
]


@given(graphs(max_n=6))
@settings(max_examples=120)
def test_book_violation_iff_book_subgraph(g):
    # the clique-pair scan and plain subgraph containment of the book graph
    # must agree; they are independent routes to the same predicate
    for spec in _SMALL_SPECS:
        found = book_violation(g, spec) is not None
        assert found == contains_subgraph(g, book_graph(spec))


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=120)
def test_book_witness_is_valid(g):
    for spec in _SMALL_SPECS:
        w = book_violation(g, spec)
        if w is None:
            continue
        for side in (w.first, w.second):
            vs = side.vertices()
            assert len(vs) == spec.r
            assert all(g.has_edge(a, b) for a, b in itertools.combinations(vs, 2))
        assert w.first != w.second
        assert w.first.overlap(w.second) == spec.s
        assert w.overlap == spec.s


@given(graphs(min_n=1, max_n=7), st.integers(min_value=0, max_value=2**30))
def test_free_survives_edge_deletion(g, seed):
    fam = parse_family("B(3,1),K(5)")
    if not is_free(g, fam):
        return
    edges = list(g.edges())
    if not edges:
        return
    u, v = random.Random(seed).choice(edges)
    smaller = from_edges(g.n, [e for e in edges if e != (u, v)])
    assert is_free(smaller, fam)


def test_is_free_examples():
    bowtie = book_graph(BookSpec(3, 1))
    assert not is_free(bowtie, parse_family("B(3,1)"))
    assert is_free(bowtie, parse_family("B(3,2)"))
    assert is_free(turan_graph(10, 2), parse_family("B(3,1)"))
    assert not is_free(complete_graph(5), parse_family("K(5)"))
    assert is_free(complete_graph(4), parse_family("K(5)"))
    assert is_free(empty_graph(0), parse_family("B(3,1),H1,K(5)"))


# a book, a K(m) and a non-complete pattern; the second lists the pattern first
_MIXED_FAMILIES = [
    parse_family("B(3,1),K(4),H2"),
    ForbiddenFamily((BookSpec(3, 2),), (cycle_graph(5), complete_graph(4))),
]


def _oracle_is_free(g, family):
    """Books by overlaps of itertools-listed cliques, patterns by brute force."""
    for spec in family.books:
        cliques = [
            set(c)
            for c in itertools.combinations(range(g.n), spec.r)
            if all(g.has_edge(a, b) for a, b in itertools.combinations(c, 2))
        ]
        if any(len(a & b) == spec.s for a, b in itertools.combinations(cliques, 2)):
            return False
    return not any(oracle_contains_subgraph(g, p) for p in family.patterns)


def _induced(g, mask):
    vs = [v for v in range(g.n) if (mask >> v) & 1]
    index = {v: i for i, v in enumerate(vs)}
    return from_edges(len(vs), [(index[u], index[v]) for u, v in g.edges()
                                if u in index and v in index])


def _three_loop_first_violation(g, family):
    """first_violation as it was before `family.checks`: the K(m) sizes, then
    the books, then the other patterns, each in family order."""
    for m in family.complete_sizes:
        clique = next(enumerate_clique_masks(g, m), None)
        if clique is not None:
            return clique
    for spec in family.books:
        w = book_violation(g, spec)
        if w is not None:
            return w.first.bits | w.second.bits
    for p in family.noncomplete:
        image = find_subgraph(g, p)
        if image is not None:
            return sum(1 << v for v in image)
    return None


@given(graphs(max_n=8), st.sampled_from(_MIXED_FAMILIES + [parse_family("K(5),H1,K(4),B(3,1)")]))
@settings(max_examples=200)
def test_first_violation_matches_the_three_loop_order(g, fam):
    assert first_violation(g, fam) == _three_loop_first_violation(g, fam)


@given(graphs(max_n=7), st.sampled_from(_MIXED_FAMILIES))
@settings(max_examples=150)
def test_is_free_matches_oracle_and_violation_is_real(g, fam):
    assert is_free(g, fam) == _oracle_is_free(g, fam)
    mask = first_violation(g, fam)
    if mask is not None:
        # the structure the mask spans violates the family on its own
        assert not _oracle_is_free(_induced(g, mask), fam)


def test_family_parts_are_derived_once_in_family_order():
    fam = parse_family("K(5),H1,K(4),B(3,1),K(5)")
    assert fam.complete_sizes == (5, 4)
    assert fam.noncomplete == (h1_graph(),)
    assert fam.checks == (5, 4, BookSpec(3, 1), h1_graph())
    same = ForbiddenFamily(fam.books, fam.patterns)
    assert same == fam and hash(same) == hash(fam)
    assert pickle.loads(pickle.dumps(fam)).checks == fam.checks
    assert "complete_sizes" not in repr(fam) and "checks" not in repr(fam)
    # K(5) is listed before K(4), so its clique is the first violation
    assert first_violation(complete_graph(6), fam) == 0b11111
    # a bowtie beside H1, which holds K4s: the K(4) check comes before both,
    # and without the K(m) terms the bowtie comes before H1
    g = disjoint_union(book_graph(BookSpec(3, 1)), h1_graph())
    assert first_violation(g, fam) == 0b1111 << 5
    assert first_violation(g, ForbiddenFamily(fam.books, fam.noncomplete)) == 0b11111


def test_fixed_patterns_structure():
    h1 = h1_graph()
    assert (h1.n, h1.edge_count()) == (7, 15)
    assert count_cliques(h1, 4) == 4
    assert count_cliques(h1, 5) == 0
    assert is_free(h1, ForbiddenFamily(books=(BookSpec(4, 1),)))
    # H1 is the union of four K4 blocks, and misses exactly six pairs
    for block in [(0, 1, 2, 3), (1, 2, 3, 5), (1, 3, 4, 5), (2, 3, 5, 6)]:
        assert all(h1.has_edge(u, v) for u, v in itertools.combinations(block, 2))
    non_edges = {(u, v) for u, v in itertools.combinations(range(7), 2) if not h1.has_edge(u, v)}
    assert non_edges == {(0, 4), (0, 5), (0, 6), (1, 6), (2, 4), (4, 6)}
    h2 = h2_graph()
    assert (h2.n, h2.edge_count()) == (6, 13)
    assert count_cliques(h2, 5) == 1
    assert count_cliques(h2, 4) == 6
    # K5 on 0..4, and vertex 5 joined to three of its vertices
    assert all(h2.has_edge(u, v) for u, v in itertools.combinations(range(5), 2))
    assert h2.neighbors(5) == (2, 3, 4)


def test_parse_family_roundtrip():
    fam = parse_family("B(4,1),H1,K(5)")
    assert len(fam.books) == 1 and len(fam.patterns) == 2
    assert family_to_text(fam) == "B(4,1),H1,K(5)"
    assert parse_family(family_to_text(fam)) == fam
    assert parse_family(" b(3,1) ") == parse_family("B(3,1)")
    assert parse_family("K(3)").patterns[0] == complete_graph(3)


def test_family_to_text_names_h2_a_relabeled_h1_and_other_patterns():
    # H1 and H2 are named by isomorphism class; any other pattern by its graph6
    relabeled = h1_graph().permute(random.Random(1).sample(range(7), 7))
    assert relabeled != h1_graph()
    path = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    fam = ForbiddenFamily((BookSpec(3, 1),), (h2_graph(), relabeled, path))
    assert family_to_text(fam) == "B(3,1),H2,H1,g6:Ch"


def test_parse_family_rejects():
    assert parse_family("") == ForbiddenFamily()
    with pytest.raises(ValueError):
        parse_family("B(3,3)")
    with pytest.raises(ValueError):
        parse_family("B(3,4)")
    with pytest.raises(ValueError):
        parse_family("K(0)")
    with pytest.raises(ValueError):
        parse_family("H3")
    with pytest.raises(ValueError):
        parse_family("B(3,1),,K(4)")


def test_violation_span_finds_each_kind_of_check():
    fam = parse_family("B(4,1),H1,K(5)")
    k5 = complete_graph(5)
    # K(5) as a clique size and as a pattern graph: one 5-vertex image either way
    assert violation_span(k5, 5) == violation_span(k5, k5) == 0b11111
    # any two K4s of K5 share three vertices
    assert violation_span(k5, BookSpec(4, 1)) is None
    assert violation_span(book_graph(BookSpec(4, 1)), BookSpec(4, 1)) == 0b1111111
    assert violation_span(h1_graph(), h1_graph()) == 0b1111111
    assert all(violation_span(turan_graph(8, 2), check) is None for check in fam.checks)


def _row_major_first_pair(g, spec, start=0):
    """The first pair (i, j), start <= i < j, of listed r-cliques meeting in
    exactly s vertices."""
    masks = clique_mask_list(g, spec.r)
    for i, a in enumerate(masks[start:], start):
        for b in masks[i + 1 :]:
            if (a & b).bit_count() == spec.s:
                return a, b
    return None


def _scan_pair(g, spec):
    w = book_violation(g, spec)
    return None if w is None else (w.first.bits, w.second.bits)


def _core(g, r):
    """The vertices in every r-clique of g, from an AND over the list; none
    when g has no r-clique."""
    masks = clique_mask_list(g, r)
    core = masks[0] if masks else 0
    for c in masks:
        core &= c
    return core


def _joins(g, s):
    """K_c ∨ g for c = 0..s+2, so the core of the r-cliques falls below, at
    or above s."""
    return [join(complete_graph(c), g) for c in range(s + 3)]


@pytest.mark.parametrize("n, p", [(20, 0.5), (70, 0.2), (130, 0.12)])
def test_book_scan_matches_row_major_double_loop(n, p):
    # n > 64 spreads each clique over several machine words
    rng = random.Random(n)
    for _ in range(3):
        g = from_mask(n, sum(1 << k for k in range(n * (n - 1) // 2) if rng.random() < p))
        for r in range(2, 5):
            for s in range(r):
                spec = BookSpec(r, s)
                assert _scan_pair(g, spec) == _row_major_first_pair(g, spec)
    # a clean join makes the double loop run in full, so its base stays small
    g = from_mask(12, sum(1 << k for k in range(66) if rng.random() < p))
    for r in range(2, 5):
        for s in range(r):
            spec = BookSpec(r, s)
            for host in _joins(g, s):
                assert _scan_pair(host, spec) == _row_major_first_pair(host, spec)


def _column_scan_pair(g, spec, start=0, within=None, singles=None):
    """The column scan book_violation ran before the row-major kernel: one
    pass over j keeps, per vertex, the bitset of earlier cliques holding it,
    and after a hit (i, j') only a pair with a smaller i can come earlier.

    It builds every column up front, the eager reference for BookScan's
    lazy ones.  Rows before `start` take no part.  With `within` and
    `singles` it finds the hits of the BookScan lemma on the twin quotient:
    pairs with at least s shared members and at most s shared single ones,
    and rows (j, j) with at most s single members."""
    masks = clique_mask_list(g, spec.r, within)
    s = spec.s
    singles = (1 << g.n) - 1 if singles is None else singles
    cols = [0] * g.n
    hit = None
    for j, cj in enumerate(masks):
        if j < start:
            continue
        below = j if hit is None else hit[0]
        at = [(1 << below) - (1 << start)] + [0] * (s + 1)
        one = cj & singles
        for v in _bits(one):
            for t in range(s + 1, 0, -1):
                at[t] |= at[t - 1] & cols[v]
        many = at[s + 1]
        for v in _bits(cj ^ one):
            for t in range(s + 1, 0, -1):
                at[t] |= at[t - 1] & cols[v]
        for v in _bits(cj):
            cols[v] |= 1 << j
        exact = at[s] & ~many
        if exact:
            hit = ((exact & -exact).bit_length() - 1, j)
        elif hit is None and one.bit_count() <= s:
            hit = (j, j)
        if hit is not None and hit[0] == start:
            break
    return None if hit is None else (masks[hit[0]], masks[hit[1]])


_ALL_SPECS = [BookSpec(r, s) for r in range(2, 6) for s in range(r)]


@given(graphs(max_n=9))
@settings(max_examples=150)
def test_book_violation_matches_the_column_scan(g):
    for spec in _ALL_SPECS:
        assert _scan_pair(g, spec) == _column_scan_pair(g, spec)
        for host in _joins(g, spec.s):
            assert _scan_pair(host, spec) == _column_scan_pair(host, spec)


def _scan_from(g, spec, start, within=None, singles=None):
    scan = BookScan(g, spec, within, singles)
    hit = scan.first(start)
    return scan, None if hit is None else (scan.masks[hit[0]], scan.masks[hit[1]])


def _check_lazy_scan(g, spec, data, within=None, singles=None):
    """A fresh scan's first() and first(k) for a drawn k > 0 give the eager
    column scan's pair, and so does first(k) after first() built or skipped
    the columns."""
    scan, got = _scan_from(g, spec, 0, within, singles)
    assert got == _column_scan_pair(g, spec, 0, within, singles)
    k = data.draw(st.integers(1, len(clique_mask_list(g, spec.r, within)) + 1), label="k")
    want = _column_scan_pair(g, spec, k, within, singles)
    assert _scan_from(g, spec, k, within, singles)[1] == want
    hit = scan.first(k)
    assert (None if hit is None else (scan.masks[hit[0]], scan.masks[hit[1]])) == want


@given(graphs(max_n=9), st.data())
@settings(max_examples=100)
def test_lazy_columns_give_the_eager_scan_pair(g, data):
    for spec in _ALL_SPECS:
        _check_lazy_scan(g, spec, data)
        for host in _joins(g, spec.s):
            _check_lazy_scan(host, spec, data)


@given(twin_blowups(), st.data())
@settings(max_examples=100)
def test_lazy_columns_give_the_eager_scan_pair_on_twin_quotients(g, data):
    reps, size = twin_classes(g)
    singles = reps if size is None else sum(1 << v for v, k in enumerate(size) if k == 1)
    for spec in _ALL_SPECS:
        _check_lazy_scan(g, spec, data)
        _check_lazy_scan(g, spec, data, reps, singles)


def test_a_book_in_row_zero_is_found_without_columns():
    # K1 ∨ T_6(39): 74,088 seven-cliques, and row 0 meets a later one in vertex 0 alone
    g = join(complete_graph(1), turan_graph(39, 6))
    spec = BookSpec(7, 1)
    scan = BookScan(g, spec)
    assert scan.first()[0] == 0
    assert scan.cols is None
    w = book_violation(g, spec)
    assert (w.first.bits, w.second.bits) == (127, 8065)
    # a clean row builds the columns, and so does a deleted edge
    clean = BookScan(book_extremal(12, 4, 1), BookSpec(4, 1))
    assert clean.first() is None and clean.cols is not None
    small = BookScan(complete_graph(6), BookSpec(3, 1))
    small.drop_edge(0, 1)
    assert small.cols is not None


@given(st.one_of(graphs(max_n=9), twin_blowups()), st.data())
@settings(max_examples=150)
def test_block_scan_matches_the_row_major_double_loop(g, data):
    """A hit in the start row leaves a prefix of the clique list listed;
    a clean start row or a dropped edge lists all of it."""
    edges = [(u, v) for u, v in itertools.combinations(range(g.n), 2) if g.has_edge(u, v)]
    for spec in _ALL_SPECS:
        full = clique_mask_list(g, spec.r)
        assert _scan_pair(g, spec) == _row_major_first_pair(g, spec)
        for start in {0, data.draw(st.integers(0, len(full)), label="start")}:
            scan, got = _scan_from(g, spec, start)
            assert got == _row_major_first_pair(g, spec, start)
            if scan.cols is None:  # the start row's probe hit
                assert got is not None and scan.masks == full[:len(scan.masks)]
            else:
                assert scan.masks == full
        if edges:
            u, v = data.draw(st.sampled_from(edges), label="edge")
            scan = BookScan(g, spec)
            scan.first()
            scan.drop_edge(u, v)
            both = 1 << u | 1 << v
            assert scan.masks == [0 if c & both == both else c for c in full]


def test_a_book_in_the_first_blocks_is_found_past_the_clique_budget():
    # K_100 holds C(100,4) = 3,921,225 four-cliques, past the budget; block 0
    # (least vertex 0) holds C(99,3) = 156,849, and row 0 meets {0,4,5,6}
    # in vertex 0 alone
    k100 = complete_graph(100)
    w = book_violation(k100, BookSpec(4, 1))
    assert (w.first.vertices(), w.second.vertices()) == ((0, 1, 2, 3), (0, 4, 5, 6))
    assert not is_free(k100, parse_family("B(4,1)"))
    # in K_200 block 0 alone holds C(199,3) = 1,293,699
    with pytest.raises(ResourceLimitError):
        is_free(complete_graph(200), parse_family("B(4,1)"))


def test_a_clean_graph_past_the_clique_budget_is_refused(monkeypatch):
    # 32 disjoint K4s: 128 triangles and no twins.  Row 0 is clean, so the
    # blocks of vertices 0 to 2 (four triangles) and then the rest are listed
    k4s = from_edges(128, [(4 * b + x, 4 * b + y) for b in range(32)
                           for x, y in itertools.combinations(range(4), 2)])
    monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", 127)
    with pytest.raises(ResourceLimitError):
        is_free(k4s, parse_family("B(3,1)"))
    monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", 128)
    assert is_free(k4s, parse_family("B(3,1)"))


@given(twin_blowups())
@settings(max_examples=150)
def test_book_violation_on_twin_blowups(g):
    reps, size = twin_classes(g)
    singles = reps if size is None else sum(1 << v for v, k in enumerate(size) if k == 1)
    for spec in _ALL_SPECS:
        want = _row_major_first_pair(g, spec)
        assert _scan_pair(g, spec) == want
        # the quotient scan alone decides freeness, by the BookScan lemma
        quotient = BookScan(g, spec, reps, singles).first()
        assert (quotient is None) == (book_violation(g, spec) is None) == (want is None)


def test_the_budget_bounds_the_twin_quotient(monkeypatch):
    monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", 2)
    # K2 ∨ T_2(10): 25 four-cliques in g, one in its quotient, and clean
    clean = book_extremal(12, 4, 1)
    with pytest.raises(ResourceLimitError):
        clique_mask_list(clean, 4)
    assert is_free(clean, parse_family("B(4,1)"))
    # K1 ∨ T_3(9): one quotient clique with a single member, so a B(4,1),
    # which is located on g's 27 cliques
    dirty = join(complete_graph(1), turan_graph(9, 3))
    with pytest.raises(ResourceLimitError):
        is_free(dirty, parse_family("B(4,1)"))


def _resume_after_deleting(g, u, v, spec):
    rows = list(g.adj)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    h = Graph(g.n, tuple(rows))
    scan = BookScan(g, spec)
    hit = scan.first()
    scan.drop_edge(u, v)
    # the live rows are the cliques of h, in order
    assert [m for m in scan.masks if m] == clique_mask_list(h, spec.r)
    assert scan.live == sum(1 << (scan.top - i) for i, m in enumerate(scan.masks) if m)
    # every row before the old hit was clean and stays clean
    hit = scan.first(0 if hit is None else hit[0])
    got = None if hit is None else (scan.masks[hit[0]], scan.masks[hit[1]])
    assert got == _scan_pair(h, spec)
    return scan


@given(graphs(min_n=2, max_n=9), st.data())
@settings(max_examples=150)
def test_resumed_scan_equals_a_fresh_scan_after_a_deletion(g, data):
    edges = [(u, v) for u, v in itertools.combinations(range(g.n), 2) if g.has_edge(u, v)]
    if not edges:
        return
    u, v = data.draw(st.sampled_from(edges))
    for spec in _ALL_SPECS:
        _resume_after_deleting(g, u, v, spec)
        for c, host in enumerate(_joins(g, spec.s)):
            _resume_after_deleting(host, u + c, v + c, spec)
            core = list(_bits(_core(host, spec.r)))
            if len(core) >= 2:
                # an edge inside the core lies in every clique
                scan = _resume_after_deleting(host, core[0], core[1], spec)
                assert not any(scan.masks) and scan.live == 0


@pytest.mark.parametrize("n, r, s", [(12, 3, 1), (24, 7, 1), (20, 5, 2), (14, 7, 3)])
def test_a_core_above_s_is_free_and_a_core_of_s_holds_a_book(n, r, s):
    # every r-clique of K_{s+1} ∨ T holds the K_{s+1}, so no pair meets in s
    spec = BookSpec(r, s)
    g = book_extremal(n, r, s)
    assert _core(g, r).bit_count() > s
    assert BookScan(g, spec).first() is None
    assert book_violation(g, spec) is None
    # K_s ∨ T_{r-s}(n-s) with parts of two or more: a core of exactly s, and a book
    h = join(complete_graph(s), turan_graph(n - s, r - s))
    assert _core(h, r).bit_count() == s
    assert book_violation(h, spec) is not None


def test_book_scan_without_a_hit():
    three_edges = from_edges(6, [(0, 1), (2, 3), (4, 5)])
    assert book_violation(three_edges, BookSpec(2, 1)) is None
    w = book_violation(three_edges, BookSpec(2, 0))
    assert (w.first.vertices(), w.second.vertices()) == ((0, 1), (2, 3))
    # 32 disjoint K4s: 128 triangles, pairwise overlaps of 0 or 2 only
    k4s = from_edges(128, [(4 * b + x, 4 * b + y) for b in range(32)
                           for x, y in itertools.combinations(range(4), 2)])
    for s in range(3):
        spec = BookSpec(3, s)
        assert _scan_pair(k4s, spec) == _row_major_first_pair(k4s, spec)
    assert book_violation(k4s, BookSpec(3, 1)) is None
    assert book_violation(complete_graph(3), BookSpec(3, 0)) is None


def test_clique_budget_is_read_at_call_time(monkeypatch):
    # K6 has twenty triangles; a budget lowered after import must still hold
    monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", 2)
    with pytest.raises(ResourceLimitError):
        is_free(complete_graph(6), parse_family("B(3,0)"))


def test_import_pulls_in_no_numpy():
    src = os.path.dirname(os.path.dirname(booklab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, booklab, booklab.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_row_major_witness_on_k22_triangles():
    # K(22) has 1540 triangles; on a large clique list the witness must
    # still be the deterministic row-major first pair
    g = complete_graph(22)
    w = book_violation(g, BookSpec(3, 1))
    assert w.first.vertices() == (0, 1, 2)
    assert w.second.vertices() == (0, 3, 4)
