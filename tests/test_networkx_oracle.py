"""Optional oracle: the embedding kernel against networkx's VF2 monomorphism
search.  networkx is not a dependency; these tests skip without it."""

import itertools

import pytest
from hypothesis import given, settings

from booklab.graphs import _embed, find_subgraph

from conftest import graphs

nx = pytest.importorskip("networkx")
GraphMatcher = nx.algorithms.isomorphism.GraphMatcher


def to_nx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


@given(graphs(max_n=10), graphs(min_n=1, max_n=5))
@settings(max_examples=150)
def test_find_subgraph_matches_vf2(g, h):
    expected = GraphMatcher(to_nx(g), to_nx(h)).subgraph_is_monomorphic()
    assert (find_subgraph(g, h) is not None) == expected


@given(graphs(max_n=10), graphs(min_n=1, max_n=4))
@settings(max_examples=60)
def test_pinned_embeddings_match_vf2_monomorphisms(g, h):
    # each monomorphism maps host vertex -> pattern vertex; invert it
    embs = [
        {p: w for w, p in m.items()}
        for m in GraphMatcher(to_nx(g), to_nx(h)).subgraph_monomorphisms_iter()
    ]
    singles = {(p, e[p]) for e in embs for p in range(h.n)}
    pairs = {(a, e[a], b, e[b]) for e in embs for a, b in itertools.permutations(range(h.n), 2)}
    for p in range(h.n):
        for w in range(g.n):
            assert (find_subgraph(g, h, pin=(p, w)) is not None) == ((p, w) in singles)
    for a, b in itertools.permutations(range(h.n), 2):
        for wa, wb in itertools.permutations(range(g.n), 2):
            found = _embed(g, h, ((a, wa), (b, wb))) is not None
            assert found == ((a, wa, b, wb) in pairs)
