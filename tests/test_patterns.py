import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from booklab.graphs import (
    complete_graph,
    contains_subgraph,
    count_cliques,
    cycle_graph,
    empty_graph,
    from_edges,
    from_mask,
    to_mask,
    turan_graph,
)
from booklab.patterns import (
    BookSpec,
    ForbiddenFamily,
    _pair_scan_numpy,
    _pair_scan_python,
    book_graph,
    book_violation,
    family_signature,
    family_to_text,
    find_pattern_violation,
    first_violation,
    h1_graph,
    h2_graph,
    is_free,
    parse_family,
)

from conftest import graphs, oracle_contains_subgraph


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
    same = ForbiddenFamily(fam.books, fam.patterns)
    assert same == fam and hash(same) == hash(fam)
    assert pickle.loads(pickle.dumps(fam)).complete_sizes == (5, 4)
    assert "complete_sizes" not in repr(fam)
    # K(5) is listed before K(4), so its clique is the first violation
    assert first_violation(complete_graph(6), fam) == 0b11111


def test_fixed_patterns_structure():
    h1 = h1_graph()
    assert (h1.n, h1.edge_count()) == (7, 15)
    assert count_cliques(h1, 4) == 4
    assert count_cliques(h1, 5) == 0
    assert is_free(h1, ForbiddenFamily(books=(BookSpec(4, 1),)))
    h2 = h2_graph()
    assert (h2.n, h2.edge_count()) == (6, 13)
    assert count_cliques(h2, 5) == 1
    assert count_cliques(h2, 4) == 6


def test_parse_family_roundtrip():
    fam = parse_family("B(4,1),H1,K(5)")
    assert len(fam.books) == 1 and len(fam.patterns) == 2
    assert family_to_text(fam) == "B(4,1),H1,K(5)"
    assert parse_family(family_to_text(fam)) == fam
    assert parse_family(" b(3,1) ") == parse_family("B(3,1)")
    assert parse_family("K(3)").patterns[0] == complete_graph(3)


def test_parse_family_rejects():
    assert parse_family("").is_empty()
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


def test_find_pattern_violation():
    fam = parse_family("B(4,1),H1,K(5)")
    hit = find_pattern_violation(complete_graph(5), fam)
    assert hit is not None
    name, image = hit
    assert name in {"B(4,1)", "H1", "K(5)"}
    assert len(set(image)) == len(image)
    assert find_pattern_violation(turan_graph(8, 2), fam) is None


def test_family_signature_order_insensitive():
    a = parse_family("B(4,1),H1,K(5)")
    b = parse_family("K(5),B(4,1),H1")
    assert family_signature(a) == family_signature(b)
    assert family_signature(a) != family_signature(parse_family("B(4,1),H1"))


def _random_clique_masks(rng, n, count):
    masks = set()
    while len(masks) < count:
        verts = rng.sample(range(n), rng.randint(2, min(5, n)))
        masks.add(sum(1 << v for v in verts))
    return sorted(masks)


@pytest.mark.parametrize("n", [20, 70, 130])
def test_pair_scans_agree(n):
    # same first hit whether scanned in pure python or through numpy words
    rng = random.Random(n)
    masks = _random_clique_masks(rng, n, 300)
    for s in range(4):
        assert _pair_scan_python(masks, s) == _pair_scan_numpy(masks, s, n)


def test_pair_scan_no_hit():
    masks = [0b11, 0b1100, 0b110000]
    assert _pair_scan_python(masks, 1) is None
    assert _pair_scan_numpy(masks, 1, 6) is None
    assert _pair_scan_python(masks, 0) == (0, 1)
    assert _pair_scan_numpy(masks, 0, 6) == (0, 1)


def test_numpy_path_used_above_threshold():
    # K(22) has 1540 triangles, crossing the vectorized-scan threshold; the
    # witness must stay the deterministic first pair regardless of path
    g = complete_graph(22)
    w = book_violation(g, BookSpec(3, 1))
    assert w.first.vertices() == (0, 1, 2)
    assert w.second.vertices() == (0, 3, 4)
