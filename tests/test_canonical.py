import random

from hypothesis import given, settings
from hypothesis import strategies as st

from booklab.canonical import CanonicalForm, canonical_form
from booklab.graphs import (
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

from conftest import graphs, oracle_canonical_key


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
