"""The embedding kernel's pins and the automorphism-orbit helpers, against
permutation brute force and the self-embedding loops the orbits once came
from."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings

import booklab
from booklab.canonical import nonedge_orbit_reps, vertex_orbit_reps
from booklab.constructions import book_extremal
from booklab.graphs import (
    _bits,
    _embed,
    complete_graph,
    contains_subgraph_at,
    cycle_graph,
    find_subgraph,
    from_edges,
    path_graph,
    turan_graph,
)
from booklab.patterns import BookSpec, book_graph, h1_graph, h2_graph, parse_family
from booklab.search import clone_move, random_free_graph

from conftest import graphs, kneser, paley


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


def self_embedding_vertex_reps(h):
    """The orbit loop the generators replaced: a self-embedding of a finite
    graph is an automorphism, so q lies in the orbit of p exactly when h
    embeds in itself with p pinned onto q."""
    reps = []
    for q in range(h.n):
        if all(_embed(h, h, ((p, q),)) is None for p in reps):
            reps.append(q)
    return tuple(reps)


def self_embedding_nonedge_reps(h):
    reps = []
    for u in range(h.n):
        for v in _bits(((1 << h.n) - 1) & ~h.adj[u] & ~((2 << u) - 1)):
            if all(
                _embed(h, h, ((a, u), (b, v))) is None
                and _embed(h, h, ((a, v), (b, u))) is None
                for a, b in reps
            ):
                reps.append((u, v))
    return tuple(reps)


ORBIT_ORACLE_GRAPHS = {
    "H1": h1_graph(),
    "H2": h2_graph(),
    **{
        f"B({r},{s})": book_graph(BookSpec(r, s))
        for r in range(2, 6)
        for s in range(r)
    },
    **{f"C{n}": cycle_graph(n) for n in range(4, 13)},
    "P4": path_graph(4),
    "K1,3": from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    "Petersen": kneser(5, 2),
    "Paley(13)": paley(13),
    "Kneser(6,2)": kneser(6, 2),
    "K(3,3,3)": turan_graph(9, 3),
}


@pytest.mark.parametrize("name", sorted(ORBIT_ORACLE_GRAPHS))
def test_orbit_reps_match_the_self_embedding_loops(name):
    h = ORBIT_ORACLE_GRAPHS[name]
    assert vertex_orbit_reps(h) == self_embedding_vertex_reps(h)
    assert nonedge_orbit_reps(h) == self_embedding_nonedge_reps(h)


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


@pytest.mark.parametrize("pin", [(0, 7), (5, 0), (0, -1)])
def test_pin_out_of_range_is_named(pin):
    with pytest.raises(ValueError, match=rf"pin \({pin[0]}, {pin[1]}\)"):
        find_subgraph(complete_graph(4), path_graph(3), pin=pin)


def test_nothing_is_planned_at_import():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(booklab.__file__)))
    code = (
        "import booklab, booklab.cli\n"
        "from booklab import canonical, graphs\n"
        "print(graphs._plan.cache_info().currsize,"
        " canonical.vertex_orbit_reps.cache_info().currsize,"
        " canonical.nonedge_orbit_reps.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["0", "0", "0"]


# SHA-256 over the result of every `_embed` call below, recorded before the
# pins became ordinary positions of the search.  It pins the first embedding
# found, which `first_violation` masks and the CLI's `free` witnesses read.
FIRST_EMBEDDINGS_SHA256 = "124c0c5203e3d02dfe69a9f7df2018e8c4b1aba1b91233751bc4b06a89f5a0d2"


def test_first_embeddings_are_pinned():
    pats = {
        "C4": cycle_graph(4),
        "H1": h1_graph(),
        "H2": h2_graph(),
        "K13": from_edges(4, [(0, 1), (0, 2), (0, 3)]),
        "P4": path_graph(4),
    }
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for n in range(1, 13):
        for p in (0.45, 0.75):
            g = from_edges(
                n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            )
            for name in sorted(pats):
                h = pats[name]
                # every zero-, one- and two-pin choice, a host vertex twice included
                pinsets = [()] + [((a, w),) for a in range(h.n) for w in range(n)]
                pinsets += [
                    ((a, w), (b, x))
                    for a, b in itertools.permutations(range(h.n), 2)
                    for w in range(n)
                    for x in range(n)
                ]
                for pins in pinsets:
                    digest.update(repr(_embed(g, h, pins)).encode())
    assert digest.hexdigest() == FIRST_EMBEDDINGS_SHA256


def _twin_clone(g):
    """g after the clone move that gives vertex 0's last non-neighbour the
    neighbourhood of 0, making the two non-adjacent twins."""
    t = max(v for v in range(1, g.n) if not g.has_edge(0, v))
    return clone_move(g, t, 0)


def _large_host_corpus():
    lemma = parse_family("B(4,1),H1,K(5)")
    hosts = {}
    for n in (16, 40):
        g = random_free_graph(n, lemma, random.Random(n))
        hosts[f"repaired{n}"] = g
        hosts[f"clone{n}"] = _twin_clone(g)
    hosts["book_extremal20"] = book_extremal(20, 4, 1)
    hosts["turan28"] = turan_graph(28, 3)
    return hosts


# SHA-256 over the result of every `_embed` call below, recorded before the
# search carried domains.  No host holds H1, so the H1 calls are failing
# searches, the ones the pruning cuts; Q6 embeds in every host.
LARGE_HOST_EMBEDDINGS_SHA256 = "698296ccf313f6ec4cc0e16ab4fc03a880d155de035fecaf3ac9ea5ce50bcfad"


def test_first_embeddings_on_large_hosts_are_pinned():
    pats = {
        "H1": h1_graph(),
        "Q6": from_edges(6, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (1, 5), (2, 3), (2, 4),
                             (2, 5), (3, 4), (4, 5)]),
    }
    digest = hashlib.sha256()
    hosts = _large_host_corpus()
    for name in sorted(hosts):
        g = hosts[name]
        for pname in sorted(pats):
            h = pats[pname]
            # every set of at most two pins: swapping two pins changes no
            # result, so each pair of pattern vertices comes once
            pinsets = [()] + [((a, w),) for a in range(h.n) for w in range(g.n)]
            pinsets += [
                ((a, w), (b, x))
                for a, b in itertools.combinations(range(h.n), 2)
                for w in range(g.n)
                for x in range(g.n)
            ]
            for pins in pinsets:
                digest.update(repr(_embed(g, h, pins)).encode())
    assert digest.hexdigest() == LARGE_HOST_EMBEDDINGS_SHA256


def test_pinned_twins_of_an_extremal_graph_fail_fast():
    # the climb's check on a move: H1 with its non-adjacent 0 and 5 pinned on
    # two twins (here one side of the complete bipartite part)
    g = book_extremal(800, 4, 1)
    assert g.adj[2] == g.adj[4] and not g.has_edge(2, 4)
    t0 = time.perf_counter()
    assert _embed(g, h1_graph(), ((0, 2), (5, 4))) is None
    assert time.perf_counter() - t0 < 0.05
