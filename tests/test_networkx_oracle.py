"""Optional oracle: the embedding kernel against networkx's VF2 monomorphism
search.  networkx is not a dependency; these tests skip without it."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from booklab.graphs import _embed, find_subgraph, from_edges
from booklab.patterns import h1_graph, h2_graph
from booklab.search import clone_move

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


def _pinned_vf2(g, h, pins):
    """Does some monomorphism of h into g send each pinned pattern vertex to
    its host vertex?  Each pin is a node label that only its ends carry."""
    host, pat = to_nx(g), to_nx(h)
    for i, (p, w) in enumerate(pins):
        pat.nodes[p]["pin"] = host.nodes[w]["pin"] = i
    matcher = GraphMatcher(host, pat, node_match=lambda x, y: x.get("pin") == y.get("pin"))
    return matcher.subgraph_is_monomorphic()


@st.composite
def twin_hosts(draw):
    """A random graph on 8-14 vertices with edge probability 1/2, 3/4 or
    7/8 in which a clone move has made src and t non-adjacent twins, with
    the pair (src, t)."""
    n = draw(st.integers(min_value=8, max_value=14))
    p = draw(st.sampled_from((0.5, 0.75, 0.875)))
    rng = draw(st.randoms(use_true_random=False))
    src, t = rng.sample(range(n), 2)
    g = from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                       if {u, v} != {src, t} and rng.random() < p])
    return clone_move(g, t, src), src, t


@given(twin_hosts(), st.one_of(st.sampled_from([h1_graph(), h2_graph()]),
                               graphs(min_n=2, max_n=6)), st.data())
@settings(max_examples=150)
def test_twin_pins_match_labelled_vf2(host, h, data):
    g, src, t = host
    # twins are non-adjacent, so the climb pins a non-edge of the pattern
    pairs = list(itertools.permutations(range(h.n), 2))
    a, b = data.draw(st.sampled_from([(u, v) for u, v in pairs if not h.has_edge(u, v)] or pairs))
    pins = ((a, src), (b, t))
    img = _embed(g, h, pins)
    assert (img is not None) == _pinned_vf2(g, h, pins)
    if img is not None:
        assert (img[a], img[b]) == (src, t) and len(set(img)) == h.n
        assert all(g.has_edge(img[u], img[v]) for u, v in h.edges())
