import hashlib
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from booklab.canonical import CanonicalForm, _canonical_search, _refine, canonical_form
from booklab.constructions import book_extremal
from booklab.formats import graph6_decode
from booklab.graphs import (
    _bits,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_mask,
    join,
    path_graph,
    to_mask,
    turan_graph,
)

from conftest import graphs, kneser, oracle_canonical_key, paley


@given(graphs(max_n=7), st.integers(min_value=0, max_value=2**30))
def test_invariant_under_relabeling(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    assert canonical_form(g.permute(tuple(perm))) == canonical_form(g)


@given(graphs(max_n=5))
@settings(max_examples=150)
def test_key_equality_matches_permutation_oracle(g):
    # two graphs get the same key exactly when the factorial oracle agrees,
    # checked by comparing g against single-edge mutations of itself
    base_key = canonical_form(g)
    base_oracle = oracle_canonical_key(g)
    bits = g.n * (g.n - 1) // 2
    for flip in range(min(bits, 4)):
        other = from_mask(g.n, to_mask(g) ^ (1 << flip))
        same_canonical = canonical_form(other) == base_key
        same_oracle = oracle_canonical_key(other) == base_oracle
        assert same_canonical == same_oracle


def test_class_counts_small_n():
    # number of isomorphism classes of simple graphs on n vertices
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    for n, want in expected.items():
        keys = {
            canonical_form(from_mask(n, m)).key
            for m in range(1 << (n * (n - 1) // 2))
        }
        assert len(keys) == want


def test_to_graph_roundtrip_examples():
    for g in [
        empty_graph(0),
        empty_graph(4),
        complete_graph(5),
        cycle_graph(6),
        path_graph(5),
        turan_graph(8, 3),
        join(complete_graph(2), turan_graph(6, 2)),
    ]:
        cf = canonical_form(g)
        assert isinstance(cf, CanonicalForm)
        assert canonical_form(cf.to_graph()) == cf
        assert cf.to_graph().edge_count() == g.edge_count()


@given(graphs(max_n=7))
def test_to_graph_roundtrip(g):
    cf = canonical_form(g)
    back = cf.to_graph()
    assert back.n == g.n
    assert canonical_form(back) == cf


def test_distinguishes_non_isomorphic():
    assert canonical_form(path_graph(3)) != canonical_form(complete_graph(3))
    # C6 and K_{3,3} share the degree sequence
    assert canonical_form(cycle_graph(6)) != canonical_form(turan_graph(6, 2))
    # so do C6 and two disjoint triangles
    two_triangles = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert canonical_form(cycle_graph(6)) != canonical_form(two_triangles)


def test_keys_are_bytes_and_orderable():
    cf1 = canonical_form(cycle_graph(5))
    cf2 = canonical_form(path_graph(5))
    assert isinstance(cf1.key, bytes)
    assert cf1.key != cf2.key
    assert sorted([cf1, cf2], key=lambda c: c.key)


def two_pass_refine(adj, cells):
    """The refinement before its one-pass rewrite, kept as the oracle: every
    signature first, then a grouping pass with a changed flag."""
    while True:
        sigs = {}
        for c in cells:
            if c.bit_count() == 1:
                continue
            for v in _bits(c):
                sigs[v] = tuple((adj[v] & c2).bit_count() for c2 in cells)
        new_cells = []
        changed = False
        for c in cells:
            if c.bit_count() == 1:
                new_cells.append(c)
                continue
            groups = {}
            for v in _bits(c):
                groups.setdefault(sigs[v], 0)
                groups[sigs[v]] |= 1 << v
            if len(groups) == 1:
                new_cells.append(c)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(groups[sig])
        cells = new_cells
        if not changed:
            return cells


@st.composite
def graphs_with_ordered_partition(draw, max_n=10):
    """A graph and an ordered partition of its vertices into cell masks."""
    g = draw(graphs(max_n=max_n))
    order = draw(st.permutations(range(g.n)))
    cuts = draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    cells, cell = [], 0
    for v, cut in zip(order, cuts):
        cell |= 1 << v
        if cut or v == order[-1]:
            cells.append(cell)
            cell = 0
    return g, cells


@given(graphs_with_ordered_partition())
@settings(max_examples=400)
def test_refine_matches_the_two_pass_oracle(case):
    g, cells = case
    assert _refine(g.adj, cells) == two_pass_refine(g.adj, cells)


def test_refine_matches_the_two_pass_oracle_on_symmetric_graphs():
    # vertex-transitive graphs refine nothing until a vertex is individualized
    for g in (kneser(6, 2), kneser(7, 2), paley(13), paley(17)):
        full = (1 << g.n) - 1
        starts = [[full]] + [[1 << v, full ^ (1 << v)] for v in range(g.n)]
        starts += [[1, 1 << v, full ^ 1 ^ (1 << v)] for v in range(1, g.n)]
        for cells in starts:
            assert _refine(g.adj, cells) == two_pass_refine(g.adj, cells)


# canonical key hex of highly symmetric graphs, recorded before the
# refinement became one pass; Kneser(8,2)'s and the two g6 ones before the
# search jumped back after each automorphism.  The g6 ones are disjoint
# unions of two circulants, found by a seeded scan, whose keys change with
# the labeling when the search jumps back one level above the node where
# the two leaves' paths part.
SYMMETRIC_KEY_PINS = {
    "g6:NQGSQG??G?_@?@??_CG": (
        lambda: graph6_decode("NQGSQG??G?_@?@??_CG"), "0000001050a060600c0300180000"
    ),
    "g6:P?`@?aGP@CAG??????O?E??W": (
        lambda: graph6_decode("P?`@?aGP@CAG??????O?E??W"), "00000850c10082400805000800c0008001"
    ),
    "Kneser(7,2)": (
        lambda: kneser(7, 2), "00007ae6c743c139eb5ad697386733d6aadacc73993d6a93ce6400"
    ),
    "Kneser(8,2)": (
        lambda: kneser(8, 2),
        "000001f5e6e3b0f41f0279f5d75b6cbae8bcf0679cfaeb5b6dad375ce1cf399f5d6a"
        "aedb598f3ce64faeb549f3ce6400",
    ),
    "Paley(13)": (lambda: paley(13), "055ae539db865ba53914"),
    "Paley(17)": (lambda: paley(17), "04d49b574a3c773a6d93475ca37451da0d"),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_KEY_PINS))
def test_symmetric_keys_are_pinned_under_relabeling(name):
    build, key_hex = SYMMETRIC_KEY_PINS[name]
    g = build()
    assert canonical_form(g).key.hex() == key_hex
    for seed in range(3):
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        assert canonical_form(g.permute(perm)).key.hex() == key_hex


# sha256 prefixes of the canonical keys, recorded while the search branched
# on every vertex of a twin cell: 1.1-2.7 s each at n = 400 and 6-27 s at
# n = 800 on a 2-core VM (CPython 3.11); each graph has at most 3 twin
# classes, so the search now stops at the root's refinement
TWIN_CLASS_KEYS = {
    ("edgeless", 400): "979aca0f9d52",
    ("K_n", 400): "635fa10f9290",
    ("book_extremal", 400): "65704da3fb9f",
    ("edgeless", 800): "ebbf32160af5",
    ("K_n", 800): "67b01c1ed975",
    ("book_extremal", 800): "f337d60ddb92",
}
TWIN_CLASS_GRAPHS = {"edgeless": empty_graph, "K_n": complete_graph,
                     "book_extremal": lambda n: book_extremal(n, 4, 1)}


@pytest.mark.parametrize("n", [400, pytest.param(800, marks=pytest.mark.slow)])
@pytest.mark.parametrize("name", sorted(TWIN_CLASS_GRAPHS))
def test_few_twin_classes_keep_the_search_fast(name, n):
    g = TWIN_CLASS_GRAPHS[name](n)
    t0 = time.perf_counter()
    key = canonical_form(g).key
    assert time.perf_counter() - t0 < 2.0
    assert hashlib.sha256(key).hexdigest()[:12] == TWIN_CLASS_KEYS[name, n]


@pytest.mark.parametrize("name", [
    "edgeless",
    pytest.param("K_n", marks=pytest.mark.slow),
    pytest.param("book_extremal", marks=pytest.mark.slow),
])
def test_canonical_form_at_the_vertex_cap_stays_small(name):
    # canonical_form builds no generator: the 4,095 twin transpositions of
    # the edgeless graph on 4,096 vertices took a 609 MB traced peak when it
    # did, and the key alone takes 16-20 MB on these three graphs
    g = TWIN_CLASS_GRAPHS[name](4096)
    tracemalloc.start()
    try:
        canonical_form(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# automorphism generators recorded by the search


def generated_group(n, gens):
    """Every permutation the generators generate.  A generator already in
    the group is skipped, so the closure multiplies by few of them."""
    basis, group = [], {tuple(range(n))}
    for sigma in gens:
        if sigma in group:
            continue
        basis.append(sigma)
        stack = list(group)
        while stack:
            p = stack.pop()
            for b in basis:
                q = tuple(b[x] for x in p)
                if q not in group:
                    group.add(q)
                    stack.append(q)
    return group


def is_automorphism(g, sigma):
    return sorted(sigma) == list(range(g.n)) and all(
        g.has_edge(sigma[u], sigma[v]) for u, v in g.edges()
    )


def brute_force_automorphisms(g):
    edges = list(g.edges())
    return {
        p for p in itertools.permutations(range(g.n))
        if all(g.has_edge(p[u], p[v]) for u, v in edges)
    }


@given(graphs(max_n=7))
@settings(max_examples=150)
def test_generators_generate_the_automorphism_group(g):
    cf, gens = _canonical_search(g)
    assert cf == canonical_form(g)
    assert all(is_automorphism(g, sigma) for sigma in gens)
    assert generated_group(g.n, gens) == brute_force_automorphisms(g)


# graphs whose first leaf is not the best one, and whose best key is
# reached twice, found by a seeded random scan at n <= 10
BEST_LEAF_NOT_FIRST = ["F`G]?", "GRU?SK", "HWaQ}`w", "INeJcmmog"]


@pytest.mark.parametrize("g6", BEST_LEAF_NOT_FIRST)
def test_generators_from_leaves_equal_to_the_best_one(g6):
    g = graph6_decode(g6)
    gens = _canonical_search(g)[1]
    assert all(is_automorphism(g, sigma) for sigma in gens)
    if g.n <= 8:
        assert generated_group(g.n, gens) == brute_force_automorphisms(g)


@pytest.mark.parametrize(
    "name, build, order",
    [
        ("Petersen", lambda: kneser(5, 2), 120),
        ("Kneser(6,2)", lambda: kneser(6, 2), 720),
        ("Kneser(7,2)", lambda: kneser(7, 2), 5040),
        ("Paley(13)", lambda: paley(13), 78),
        ("K(3,3,3)", lambda: turan_graph(9, 3), 6 ** 4),
        ("C5 + 3K1", lambda: disjoint_union(cycle_graph(5), empty_graph(3)), 60),
    ],
)
def test_generated_group_orders(name, build, order):
    g = build()
    gens = _canonical_search(g)[1]
    assert all(is_automorphism(g, sigma) for sigma in gens)
    assert len(generated_group(g.n, gens)) == order


@pytest.mark.parametrize(
    "name, build",
    [
        ("Petersen", lambda: kneser(5, 2)),
        ("Kneser(6,2)", lambda: kneser(6, 2)),
        ("Kneser(7,2)", lambda: kneser(7, 2)),
        ("Kneser(8,2)", lambda: kneser(8, 2)),
        ("Paley(13)", lambda: paley(13)),
        ("Paley(17)", lambda: paley(17)),
    ],
)
def test_jump_back_keeps_the_generators_few(name, build):
    # one generator per leaf equal to the first would give |Aut| - 1 of them
    # (40,319 for Kneser(8,2)); jumping back after each leaves at most 2n
    g = build()
    gens = _canonical_search(g)[1]
    assert all(is_automorphism(g, sigma) for sigma in gens)
    assert len(gens) <= 2 * g.n
