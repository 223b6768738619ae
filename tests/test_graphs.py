import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from booklab.canonical import canonical_form, subset_orbit_reps
from booklab.errors import ResourceLimitError
from booklab.formats import graph6_decode, graph6_encode
from booklab.graphs import (
    VERTEX_CAP,
    Graph,
    VertexSet,
    clique_mask_list,
    clique_number,
    complete_graph,
    contains_subgraph,
    contains_subgraph_at,
    count_cliques,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_clique_masks,
    enumerate_cliques,
    find_subgraph,
    from_edges,
    from_mask,
    has_clique,
    join,
    path_graph,
    to_mask,
    turan_graph,
    turan_part_sizes,
    twin_classes,
)
from booklab.partitions import Partition, beta, offending_subset

from conftest import graphs, oracle_contains_subgraph, oracle_count_cliques, twin_blowups


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(-1, [])
    with pytest.raises(ValueError, match="at least 3 vertices"):
        cycle_graph(2)
    with pytest.raises(ValueError, match="not a permutation"):
        path_graph(3).permute((0, 0, 1))


def test_clique_kernels_reject_a_negative_size():
    g = complete_graph(4)
    with pytest.raises(ValueError, match="clique size must be >= 0"):
        count_cliques(g, -1)
    with pytest.raises(ValueError, match="clique size must be >= 0"):
        clique_mask_list(g, -1)
    masks = enumerate_clique_masks(g, -1)  # a generator: the check runs at the first next()
    with pytest.raises(ValueError, match="clique size must be >= 0"):
        next(masks)


def test_vertex_set_basics():
    s = VertexSet.of(0, 2, 5)
    assert len(s) == 3
    assert 2 in s and 1 not in s
    assert s.vertices() == (0, 2, 5)
    assert s.overlap(VertexSet.of(2, 3)) == 1


def test_edges_are_lexicographic():
    g = from_edges(4, [(2, 3), (0, 1), (1, 3)])
    assert tuple(g.edges()) == ((0, 1), (1, 3), (2, 3))
    assert g.edge_count() == 3
    assert g.degree(3) == 2


@given(graphs(max_n=7))
def test_mask_roundtrip(g):
    assert from_mask(g.n, to_mask(g)) == g


@given(graphs(max_n=7))
def test_permute_preserves_edge_count(g):
    perm = tuple(reversed(range(g.n)))
    assert g.permute(perm).edge_count() == g.edge_count()


@given(graphs(max_n=9), st.data())
def test_permute_matches_a_set_relabel(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    want = {frozenset((perm[u], perm[v])) for u, v in g.edges()}
    h = g.permute(perm)
    assert {frozenset(e) for e in h.edges()} == want and h.n == g.n


@pytest.mark.parametrize("p", [0, 0.5, 1])
def test_permute_matches_an_edge_list_relabel_across_row_kernels(p):
    # rows past 5 + n/8 neighbors take the string pick, sparser ones the bit
    # loop; n = 0..64 puts rows of every density on both sides of the cut
    rng = random.Random(64)
    for n in range(65):
        g = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        perm = rng.sample(range(n), n)
        assert g.permute(perm) == from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])


@given(graphs(max_n=7), st.integers(min_value=0, max_value=8))
def test_count_cliques_matches_subset_oracle(g, r):
    assert count_cliques(g, r) == oracle_count_cliques(g, r)


@given(twin_blowups())
@settings(max_examples=150)
def test_count_cliques_on_twin_blowups_matches_subset_oracle(g):
    for r in range(7):
        assert count_cliques(g, r) == oracle_count_cliques(g, r)


@given(twin_blowups())
def test_twin_classes_group_equal_rows(g):
    rows = [frozenset(w for w in range(g.n) if g.has_edge(v, w)) for v in range(g.n)]
    groups: dict[frozenset, list[int]] = {}
    for v, row in enumerate(rows):
        groups.setdefault(row, []).append(v)
    reps, size = twin_classes(g)
    assert reps == sum(1 << vs[0] for vs in groups.values())
    want = tuple(len(groups[row]) if groups[row][0] == v else 0 for v, row in enumerate(rows))
    assert size == (None if len(groups) == g.n else want)


@given(graphs(min_n=1, max_n=7), st.integers(min_value=1, max_value=5))
def test_enumerate_cliques_consistent(g, r):
    cliques = list(enumerate_cliques(g, r))
    assert len(cliques) == count_cliques(g, r)
    assert len(set(cliques)) == len(cliques)
    for c in cliques:
        vs = c.vertices()
        assert len(vs) == r
        assert all(g.has_edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :])


@given(graphs(max_n=7), st.integers(min_value=0, max_value=6))
def test_has_clique_agrees_with_count(g, r):
    assert has_clique(g, r) == (count_cliques(g, r) > 0)


def test_clique_number_examples():
    assert clique_number(empty_graph(5)) == 1
    assert clique_number(complete_graph(6)) == 6
    assert clique_number(cycle_graph(5)) == 2
    assert clique_number(turan_graph(9, 3)) == 3


@given(graphs(max_n=8))
def test_clique_mask_list_keeps_the_lazy_order(g):
    for r in range(7):
        assert clique_mask_list(g, r) == list(enumerate_clique_masks(g, r))


def _cyclic_garbage(call) -> int:
    """Objects that only the cycle collector frees, left by 100 calls."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(100):
            call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_clique_kernels_leave_no_cyclic_garbage():
    # a recursive closure refers to itself, so each call would leave a cycle
    g = turan_graph(12, 4)

    def kernels():
        count_cliques(g, 3)
        has_clique(g, 3)
        clique_mask_list(g, 3)
        list(enumerate_clique_masks(g, 3))

    assert _cyclic_garbage(kernels) == 0


_T12 = turan_graph(12, 4)
_RECURSIVE_CALLS = {
    "find_subgraph": lambda: find_subgraph(_T12, cycle_graph(5)),
    "find_subgraph_pinned": lambda: find_subgraph(_T12, cycle_graph(5), pin=(2, 7)),
    "contains_subgraph_at": lambda: contains_subgraph_at(_T12, cycle_graph(5), 7),
    "canonical_form": lambda: canonical_form(cycle_graph(8)),
    "subset_orbit_reps": lambda: subset_orbit_reps(cycle_graph(6)),
    "beta": lambda: beta(8, 3),
    "offending_subset": lambda: offending_subset(Partition((3, 2, 2, 1)), 4),
}


@pytest.mark.parametrize("name", _RECURSIVE_CALLS)
def test_recursive_searches_leave_no_cyclic_garbage(name):
    assert _cyclic_garbage(_RECURSIVE_CALLS[name]) == 0


def test_clique_mask_budget(monkeypatch):
    # K16 has 120 edges: a budget of exactly 120 lists them all, 119 refuses
    monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", 120)
    assert len(clique_mask_list(complete_graph(16), 2)) == 120
    monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", 119)
    with pytest.raises(ResourceLimitError, match="more than 119 cliques of size 2; raise"):
        clique_mask_list(complete_graph(16), 2)


def test_turan_part_sizes():
    assert turan_part_sizes(10, 3) == (4, 3, 3)
    assert turan_part_sizes(3, 5) == (1, 1, 1, 0, 0)
    with pytest.raises(ValueError):
        turan_part_sizes(3, 0)
    with pytest.raises(ValueError, match="at least one part"):
        turan_graph(3, 0)


# every builder and codec rejects one vertex past the cap before allocating
_OVER_CAP = {
    "from_edges": lambda n: from_edges(n, []),
    "empty_graph": empty_graph,
    "complete_graph": complete_graph,
    "join": lambda n: join(empty_graph(n - 1), empty_graph(1)),
    "disjoint_union": lambda n: disjoint_union(empty_graph(n - 1), empty_graph(1)),
    "turan_graph": lambda n: turan_graph(n, 2),
    "graph6_encode": lambda n: graph6_encode(Graph(n, (0,) * n)),
    "graph6_decode": lambda n: graph6_decode(
        bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]).decode()
    ),
}


@pytest.mark.parametrize("name", sorted(_OVER_CAP))
def test_vertex_cap_guards_every_builder_and_codec(name):
    n = VERTEX_CAP + 1
    with pytest.raises(ValueError, match=rf"vertex count {n} outside \[0, {VERTEX_CAP}\]"):
        _OVER_CAP[name](n)


def test_turan_graph_rejects_a_negative_order():
    with pytest.raises(ValueError, match="vertex count -1 outside"):
        turan_graph(-1, 3)


def test_turan_graph_shape():
    g = turan_graph(7, 3)
    # parts {0,3,6}, {1,4}, {2,5}; edges only across parts
    assert not g.has_edge(0, 3)
    assert g.has_edge(0, 1)
    assert g.edge_count() == 16
    assert count_cliques(g, 3) == 3 * 2 * 2


def test_join_and_union():
    g = join(complete_graph(2), empty_graph(3))
    assert g.n == 5
    assert g.edge_count() == 1 + 6
    assert count_cliques(g, 3) == 3
    h = disjoint_union(complete_graph(3), complete_graph(3))
    assert h.edge_count() == 6
    assert count_cliques(h, 3) == 2
    assert not h.has_edge(0, 3)


def test_path_graph():
    g = path_graph(4)
    assert tuple(g.edges()) == ((0, 1), (1, 2), (2, 3))


@given(graphs(max_n=6), graphs(max_n=4))
@settings(max_examples=60)
def test_contains_subgraph_matches_oracle(g, h):
    if h.n == 0:
        return
    assert contains_subgraph(g, h) == oracle_contains_subgraph(g, h)


@given(graphs(min_n=1, max_n=6))
def test_contains_subgraph_at_pins_vertex(g):
    h = path_graph(2)
    for v in range(g.n):
        expected = g.degree(v) > 0
        assert contains_subgraph_at(g, h, v) == expected


def test_contains_subgraph_triangle_in_bowtie():
    bowtie = from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert contains_subgraph(bowtie, complete_graph(3))
    assert not contains_subgraph(bowtie, complete_graph(4))
    assert contains_subgraph_at(bowtie, complete_graph(3), 0)
    assert contains_subgraph_at(bowtie, cycle_graph(4), 2) is False
