"""The one upper-triangle codec, `graphs.to_mask` / `graphs.from_mask`.

Canonical keys, graph6 bodies and the masks of the labeled sweep share its
bit order: pair (i, j), i < j, sits at bit C(n,2) - 1 - (j(j-1)/2 + i).  The
pinned keys and graph6 strings were recorded before the codec was unified
into one module; each of them changes if that order is reversed.
"""

import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from booklab.canonical import _encode, canonical_form
from booklab.constructions import book_extremal
from booklab.formats import graph6_decode, graph6_encode
from booklab.graphs import cycle_graph, from_edges, from_mask, to_mask, turan_graph
from booklab.patterns import h1_graph, h2_graph

from conftest import graphs, kneser


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, outer + spokes + inner)


def seeded_graph(n, seed, p=0.5):
    """A random graph drawn pair by pair in row-major order, without the codec."""
    rng = random.Random(seed)
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


# (graph, canonical key hex, graph6 of the canonical representative)
KEY_PINS = {
    "C5": (lambda: cycle_graph(5), "3700", "DLo"),
    "Petersen": (petersen, "00d4c49a4c80", "I?LRCecq?"),
    "K33": (lambda: turan_graph(6, 2), "1fb8", "EFz_"),
    "H1": (h1_graph, "0ef7f8", "FBn^w"),
    "H2": (h2_graph, "3ffe", "EN~w"),
    "Kneser(6,2)": (
        lambda: kneser(6, 2), "000eb347099d55663327549cc800", "N??yrPoe\\TUWrHtQ[q?"
    ),
    "book_extremal(12,4,1)": (
        lambda: book_extremal(12, 4, 1), "003ff7cf8f87ffffc0", "K?B~vrw}F~~~"
    ),
}


@pytest.mark.parametrize("name", sorted(KEY_PINS))
def test_canonical_keys_are_pinned(name):
    build, key_hex, g6 = KEY_PINS[name]
    cf = canonical_form(build())
    assert cf.key.hex() == key_hex
    assert graph6_encode(cf.to_graph()) == g6
    assert canonical_form(graph6_decode(g6)) == cf


# n = 62 is the last one-byte header, 63 and 64 take the four-byte header
GRAPH6_PINS = {
    62: ("}Xqb]s", "b8fc83052568a9f8802b6b7815bdda57ee0fec1e98ff4f1071aab8ba0f6f1fbf"),
    63: ("~??~rj", "95db2d592524407f330fb89fd1de07c18d71c277d43a8ea779731f671bfcd0d3"),
    64: ("~?@?mN", "52aff47bf67d06d9b48d84b6e3e3d8bf1fe2f1335fa4823ba39b898808339e44"),
    100: ("~?@coT", "f9bcb8ed4a6d14cac824503d2942762bfcc4c71cf1d1173642ac5f9460012ac5"),
}


@pytest.mark.parametrize("n", sorted(GRAPH6_PINS))
def test_graph6_strings_are_pinned(n):
    g = seeded_graph(n, n)
    text = graph6_encode(g)
    prefix, digest = GRAPH6_PINS[n]
    assert (text[:6], hashlib.sha256(text.encode()).hexdigest()) == (prefix, digest)
    assert graph6_decode(text) == g


@st.composite
def edge_sets(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    return n, draw(st.sets(st.sampled_from(pairs))) if pairs else set()


@given(edge_sets())
def test_mask_matches_the_pair_position_oracle(case):
    n, edges = case
    nbits = n * (n - 1) // 2
    mask = sum(1 << (nbits - 1 - (j * (j - 1) // 2 + i)) for i, j in edges)
    g = from_edges(n, edges)
    assert to_mask(g) == mask
    assert from_mask(n, mask) == g


# the leaf encoder shifts bits in up to n = 32 and relabels rows above
@given(st.one_of(graphs(max_n=9), graphs(min_n=30, max_n=48)), st.data())
def test_leaf_encoder_is_to_mask_of_the_relabeled_graph(g, data):
    order = data.draw(st.permutations(range(g.n)))
    inverse = [0] * g.n
    for j, v in enumerate(order):
        inverse[v] = j
    relabeled = from_edges(g.n, [(inverse[u], inverse[v]) for u, v in g.edges()])
    assert _encode(g.adj, list(order), g.n) == to_mask(relabeled)


@given(graphs(max_n=9))
def test_canonical_key_is_the_mask_of_its_representative(g):
    cf = canonical_form(g)
    nbits = g.n * (g.n - 1) // 2
    assert int.from_bytes(cf.key, "big") >> (-nbits % 8) == to_mask(cf.to_graph())


def test_graph6_roundtrip_stays_linear():
    # a per-bit big-integer accumulator is quadratic and takes far longer
    g = turan_graph(2048, 3)
    t0 = time.perf_counter()
    assert graph6_decode(graph6_encode(g)) == g
    assert time.perf_counter() - t0 < 10.0
