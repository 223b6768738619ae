import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from booklab import patterns
from booklab.canonical import canonical_form
from booklab.errors import ResourceLimitError
from booklab.formats import graph6_encode
from booklab.graphs import (
    complete_graph,
    count_cliques,
    cycle_graph,
    empty_graph,
    enumerate_clique_masks,
    from_mask,
    join,
    turan_graph,
)
from booklab.patterns import ForbiddenFamily, is_free, parse_family
from booklab.search import (
    brute_force_labeled,
    canonical_generation,
    cleanup_edges,
    clear_generation_cache,
    clone_move,
    exact_ex,
    random_free_graph,
    symmetrize,
)

from conftest import graphs, graphs_with_vertex_pair

BOWTIE_FREE = parse_family("B(3,1)")
LEMMA_FAMILY = parse_family("B(4,1),H1,K(5)")


def _vertex_clique_count(g, r, v):
    return sum(1 for m in enumerate_clique_masks(g, r) if (m >> v) & 1)


# ---------------------------------------------------------------------------
# exhaustive engines


def test_engines_agree_small():
    for n in range(0, 6):
        for r in (3, 4):
            a = brute_force_labeled(n, r, BOWTIE_FREE)
            b = canonical_generation(n, r, BOWTIE_FREE)
            assert a.maximum == b.maximum
            assert set(a.witnesses) == set(b.witnesses)
            assert a.exhaustive and b.exhaustive


def test_labeled_examines_every_mask():
    rep = brute_force_labeled(4, 3, ForbiddenFamily())
    assert rep.examined == 2 ** 6
    assert rep.maximum == 4
    assert rep.witnesses == (canonical_form(complete_graph(4)),)


def test_sharded_runs_match_serial():
    a = brute_force_labeled(5, 3, BOWTIE_FREE, jobs=1)
    b = brute_force_labeled(5, 3, BOWTIE_FREE, jobs=3)
    assert (a.maximum, a.witnesses, a.examined) == (b.maximum, b.witnesses, b.examined)
    clear_generation_cache()
    c = canonical_generation(7, 3, BOWTIE_FREE, jobs=2)
    clear_generation_cache()
    d = canonical_generation(7, 3, BOWTIE_FREE, jobs=1)
    assert (c.maximum, c.witnesses, c.examined) == (d.maximum, d.witnesses, d.examined)


def test_exact_ex_validates():
    with pytest.raises(ValueError):
        exact_ex(-1, 3, BOWTIE_FREE)
    with pytest.raises(ValueError):
        exact_ex(4, 0, BOWTIE_FREE)
    with pytest.raises(ValueError):
        exact_ex(4, 3, BOWTIE_FREE, engine="magic")


def test_exact_ex_degenerate_cases():
    rep = exact_ex(2, 3, BOWTIE_FREE)
    assert rep.maximum == 0
    assert rep.witnesses == (canonical_form(empty_graph(2)),)
    rep = exact_ex(0, 3, BOWTIE_FREE)
    assert rep.maximum == 0 and rep.exhaustive


def test_exact_ex_caps():
    with pytest.raises(ResourceLimitError):
        exact_ex(11, 3, BOWTIE_FREE, engine="canonical")
    with pytest.raises(ResourceLimitError):
        exact_ex(8, 3, BOWTIE_FREE, engine="labeled")


def test_triangle_book_series_prefix():
    # frozen values; the full series is covered by the acceptance suite
    got = [exact_ex(n, 3, BOWTIE_FREE).maximum for n in range(1, 7)]
    assert got == [0, 0, 1, 4, 4, 4]


def test_deadline_gives_partial_report():
    clear_generation_cache()
    rep = exact_ex(14, 3, BOWTIE_FREE, engine="canonical", cap=16, max_seconds=0.3)
    assert not rep.exhaustive
    clear_generation_cache()


# ---------------------------------------------------------------------------
# moves


def test_cleanup_edges_examples():
    assert cleanup_edges(cycle_graph(5), 3).edge_count() == 0
    assert cleanup_edges(complete_graph(4), 3) == complete_graph(4)
    g = join(complete_graph(2), turan_graph(8, 2))
    assert cleanup_edges(g, 4) == g


@given(graphs(max_n=7), st.integers(min_value=2, max_value=4))
def test_cleanup_preserves_count_and_is_minimal(g, r):
    out = cleanup_edges(g, r)
    assert count_cliques(out, r) == count_cliques(g, r)
    # every surviving edge lies in some r-clique
    for u, v in out.edges():
        assert any(
            (m >> u) & 1 and (m >> v) & 1 for m in enumerate_clique_masks(out, r)
        )


def test_clone_move_rejects():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        clone_move(g, 1, 1)
    with pytest.raises(ValueError):
        clone_move(g, 0, 1)  # adjacent


@given(graphs_with_vertex_pair(min_n=2, max_n=7), st.integers(min_value=2, max_value=4))
@settings(max_examples=200)
def test_clone_move_count_identity(gup, r):
    g, u, v = gup
    if u == v or g.has_edge(u, v):
        return
    out = clone_move(g, u, v)
    # row u becomes a copy of row v; the count moves by exactly k(v) - k(u)
    expected = (
        count_cliques(g, r)
        - _vertex_clique_count(g, r, u)
        + _vertex_clique_count(g, r, v)
    )
    assert count_cliques(out, r) == expected
    assert not out.has_edge(u, v)
    assert out.neighbors(u) == tuple(w for w in g.neighbors(v) if w != u)


# ---------------------------------------------------------------------------
# hill climb


def test_symmetrize_fixed_point():
    g = join(complete_graph(2), turan_graph(8, 2))
    rep = symmetrize(g, 4, LEMMA_FAMILY)
    assert rep.maximum == 16
    assert rep.history == (16,)
    assert rep.witnesses == (canonical_form(g),)
    assert rep.engine == "hill-climb"
    assert not rep.exhaustive


def test_symmetrize_rejects_non_free_start():
    with pytest.raises(ValueError):
        symmetrize(complete_graph(5), 4, LEMMA_FAMILY)


def test_symmetrize_cannot_bootstrap_from_zero():
    # with no K_4 anywhere, cleanup strips the graph bare and no strictly
    # increasing clone move exists; the climb reports the honest 0
    rep = symmetrize(turan_graph(10, 2), 4, LEMMA_FAMILY, seed=1)
    assert rep.maximum == 0
    assert rep.history == (0,)


def test_symmetrize_improves_suboptimal_start():
    from booklab.constructions import book_extremal
    from booklab.graphs import disjoint_union

    g = disjoint_union(book_extremal(8, 4, 1), empty_graph(2))
    rep = symmetrize(g, 4, LEMMA_FAMILY, seed=1)
    assert rep.history[0] == 9
    assert rep.maximum > 9
    assert all(b > a for a, b in zip(rep.history, rep.history[1:]))


@pytest.mark.parametrize("seed", range(8))
def test_symmetrize_random_starts(seed):
    rng = random.Random(seed)
    g = random_free_graph(12, LEMMA_FAMILY, rng)
    rep = symmetrize(g, 4, LEMMA_FAMILY, seed=seed)
    final = rep.witnesses[0].to_graph()
    assert is_free(final, LEMMA_FAMILY)
    assert count_cliques(final, 4) == rep.maximum
    assert rep.maximum >= count_cliques(g, 4)
    assert all(b > a for a, b in zip(rep.history, rep.history[1:]))


def test_random_free_graph_is_free():
    rng = random.Random(7)
    for n in (5, 10, 14):
        g = random_free_graph(n, LEMMA_FAMILY, rng)
        assert g.n == n
        assert is_free(g, LEMMA_FAMILY)


def test_random_free_graph_rejects_unfixable_family():
    fam = parse_family("K(1)")  # a single vertex can never be repaired away
    with pytest.raises(ValueError):
        random_free_graph(3, fam, random.Random(0))


def test_random_free_graph_repairs_complete_patterns_in_family_order():
    # K(5) is listed before K(4), so each repair step deletes an edge of the
    # first K5 while one is left; checking K(4) first yields other graphs
    fam = parse_family("K(5),K(4),H1")
    recorded = {(12, 0): "KMbfo]|LsDjJ", (12, 1): "KhuluCpe^Lir", (14, 2): "MCG_@Vmz`bxDxOtr_"}
    for (n, seed), g6 in recorded.items():
        assert graph6_encode(random_free_graph(n, fam, random.Random(seed), p=0.7)) == g6


def test_clique_budget_bounds_climb_and_generation(monkeypatch):
    # K4 has four triangles and is B(3,1)-free: past a budget of two, both
    # the climb and the extension of a K4 parent must refuse
    monkeypatch.setattr(patterns, "CLIQUE_BUDGET", 2)
    with pytest.raises(ResourceLimitError):
        symmetrize(complete_graph(4), 3, BOWTIE_FREE)
    clear_generation_cache()
    with pytest.raises(ResourceLimitError):
        canonical_generation(6, 3, BOWTIE_FREE)
    clear_generation_cache()
