"""The embedding kernel's pins and the automorphism-orbit helpers, against
permutation brute force."""

import itertools
import os
import subprocess
import sys

from hypothesis import given, settings

import booklab
from booklab.graphs import (
    _embed,
    contains_subgraph_at,
    find_subgraph,
    from_edges,
    nonedge_orbit_reps,
    vertex_orbit_reps,
)
from booklab.patterns import h1_graph, h2_graph

from conftest import graphs


def brute_embeddings(g, h):
    """Every injective map of h's vertices into g carrying edges to edges."""
    edges = list(h.edges())
    return [
        img
        for img in itertools.permutations(range(g.n), h.n)
        if all(g.has_edge(img[a], img[b]) for a, b in edges)
    ]


def brute_automorphisms(h):
    return brute_embeddings(h, h)


def smallest_per_orbit(items, image_of, auts):
    seen, reps = set(), []
    for item in items:
        if item not in seen:
            reps.append(item)
            seen.update(image_of(sigma, item) for sigma in auts)
    return tuple(reps)


@given(graphs(max_n=6))
@settings(max_examples=150)
def test_vertex_orbit_reps_match_brute_force(h):
    auts = brute_automorphisms(h)
    expected = smallest_per_orbit(range(h.n), lambda sigma, q: sigma[q], auts)
    assert vertex_orbit_reps(h) == expected


@given(graphs(max_n=6))
@settings(max_examples=150)
def test_nonedge_orbit_reps_match_brute_force(h):
    auts = brute_automorphisms(h)
    nonedges = [
        (u, v) for u, v in itertools.combinations(range(h.n), 2) if not h.has_edge(u, v)
    ]
    expected = smallest_per_orbit(
        nonedges, lambda sigma, uv: tuple(sorted((sigma[uv[0]], sigma[uv[1]]))), auts
    )
    assert nonedge_orbit_reps(h) == expected


def test_orbit_reps_of_the_fixed_patterns():
    assert vertex_orbit_reps(h1_graph()) == (0, 1, 3)
    assert nonedge_orbit_reps(h1_graph()) == ((0, 4), (0, 5))
    assert vertex_orbit_reps(h2_graph()) == (0, 2, 5)
    assert nonedge_orbit_reps(h2_graph()) == ((0, 5),)
    k2_plus_k1 = from_edges(3, [(0, 1)])
    assert vertex_orbit_reps(k2_plus_k1) == (0, 2)
    assert nonedge_orbit_reps(k2_plus_k1) == ((0, 2),)


def _is_embedding(g, h, img):
    return len(set(img)) == h.n and all(g.has_edge(img[a], img[b]) for a, b in h.edges())


@given(graphs(max_n=7), graphs(min_n=1, max_n=4))
@settings(max_examples=120)
def test_pins_match_brute_force(g, h):
    embs = brute_embeddings(g, h)
    img = find_subgraph(g, h)
    assert (img is not None) == bool(embs)
    assert img is None or _is_embedding(g, h, img)
    for p in range(h.n):
        for w in range(g.n):
            img = find_subgraph(g, h, pin=(p, w))
            assert (img is not None) == any(e[p] == w for e in embs)
            assert img is None or (_is_embedding(g, h, img) and img[p] == w)
    for w in range(g.n):
        assert contains_subgraph_at(g, h, w) == any(w in e for e in embs)
    for a, b in itertools.permutations(range(h.n), 2):
        for wa, wb in itertools.product(range(g.n), repeat=2):
            img = _embed(g, h, ((a, wa), (b, wb)))
            assert (img is not None) == any(e[a] == wa and e[b] == wb for e in embs)
            assert img is None or (_is_embedding(g, h, img) and (img[a], img[b]) == (wa, wb))


def test_nothing_is_planned_at_import():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(booklab.__file__)))
    code = (
        "import booklab, booklab.cli\n"
        "from booklab import graphs\n"
        "print(graphs._plan.cache_info().currsize,"
        " graphs.vertex_orbit_reps.cache_info().currsize,"
        " graphs.nonedge_orbit_reps.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["0", "0", "0"]
