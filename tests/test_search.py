import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from booklab import search
from booklab.canonical import CanonicalForm, canonical_form
from booklab.errors import ResourceLimitError
from booklab.formats import graph6_encode
from booklab.graphs import (
    Graph,
    _bits,
    clique_mask_list,
    complete_graph,
    count_cliques,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_clique_masks,
    find_subgraph,
    from_edges,
    join,
    turan_graph,
)
from booklab.patterns import (
    BookSpec,
    ForbiddenFamily,
    first_violation,
    h1_graph,
    h2_graph,
    is_free,
    parse_family,
)
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

from conftest import graphs, graphs_with_vertex_pair, orbit_double_count

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


def test_sharded_runs_match_serial(monkeypatch):
    # a real process pool whose map records how many chunks each call deals
    from concurrent.futures import ProcessPoolExecutor

    chunks = []

    class CountingPool(ProcessPoolExecutor):
        def map(self, fn, items):
            chunks.append(len(items))
            return super().map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountingPool)
    a = brute_force_labeled(5, 3, BOWTIE_FREE, jobs=1)
    assert chunks == []
    b = brute_force_labeled(5, 3, BOWTIE_FREE, jobs=3)
    assert chunks == [3]
    assert (a.maximum, a.witnesses, a.examined) == (b.maximum, b.witnesses, b.examined)
    clear_generation_cache()
    c = canonical_generation(7, 3, BOWTIE_FREE, jobs=2)
    # one map per level built, 1..6; levels 0 and 1 hold one parent each
    assert chunks[1:] == [1, 1, 2, 2, 2, 2]
    clear_generation_cache()
    d = canonical_generation(7, 3, BOWTIE_FREE, jobs=1)
    assert (c.maximum, c.witnesses, c.examined) == (d.maximum, d.witnesses, d.examined)


@pytest.mark.parametrize("jobs", [1, 2])
def test_labeled_deadline_cuts_every_chunk(jobs):
    # the sweep of 2^21 graphs takes far longer than the deadline; at jobs 2
    # one chunk holds only odd masks, and it too must look at the clock, so
    # neither chunk of 2^20 finishes
    exact = exact_ex(7, 3, BOWTIE_FREE).maximum
    clear_generation_cache()
    rep = brute_force_labeled(7, 3, BOWTIE_FREE, max_seconds=0.3, jobs=jobs)
    assert not rep.exhaustive
    assert rep.examined < 2**20
    assert rep.maximum <= exact


def test_exact_ex_validates():
    with pytest.raises(ValueError):
        exact_ex(-1, 3, BOWTIE_FREE)
    with pytest.raises(ValueError):
        exact_ex(4, 0, BOWTIE_FREE)
    for engine in ("magic", "auto"):  # "canonical" is the one name of generation
        with pytest.raises(ValueError, match=f"unknown engine '{engine}'"):
            exact_ex(4, 3, BOWTIE_FREE, engine=engine)


@pytest.mark.parametrize("engine", [brute_force_labeled, canonical_generation, exact_ex])
def test_every_engine_rejects_clique_size_zero(engine):
    with pytest.raises(ValueError, match="clique size must be >= 1"):
        engine(3, 0, BOWTIE_FREE)


def test_exact_ex_degenerate_cases():
    rep = exact_ex(2, 3, BOWTIE_FREE)
    assert rep.maximum == 0
    assert rep.witnesses == (canonical_form(empty_graph(2)),)
    rep = exact_ex(0, 3, BOWTIE_FREE)
    assert rep.maximum == 0 and rep.exhaustive


@pytest.mark.parametrize("engine, n, r", [
    ("labeled", 25, 30), ("canonical", 25, 30), ("labeled", 100, 200), ("canonical", 100, 200),
    ("canonical", 4096, 5000),
])
def test_degenerate_runs_answer_zero_up_to_the_vertex_cap(engine, n, r):
    # with n < r there is no r-clique: both engines answer before any work
    # check, however far past the budget a run on n vertices would be
    t0 = time.perf_counter()
    rep = exact_ex(n, r, LEMMA_FAMILY, engine=engine)
    assert time.perf_counter() - t0 < 5.0
    assert (rep.maximum, rep.examined, rep.exhaustive) == (0, 0, True)
    assert rep.witnesses == (canonical_form(empty_graph(n)),)


def test_exact_ex_refuses_past_the_work_budget():
    # the labeled sweep at n = 8 offers 2^28 graphs; generation at n = 13
    # builds level 8 of B(3,1), then refuses: 2,290 classes times 2^11
    # subsets exceed 2^22 before level 9 is built
    with pytest.raises(ResourceLimitError, match=r"labeled sweep at n=8: 1 x 2\^28 "):
        exact_ex(8, 3, BOWTIE_FREE, engine="labeled")
    clear_generation_cache()
    with pytest.raises(ResourceLimitError, match=r"level 8's 2,290 classes: 2,290 x 2\^11 "):
        exact_ex(13, 3, BOWTIE_FREE, engine="canonical")
    assert len(search._GEN_CACHE[BOWTIE_FREE]) == 9  # levels 0..8
    clear_generation_cache()


def test_work_budget_fits_generation_to_n_10_and_the_labeled_sweep_to_n_7():
    # no family's level 8 holds more than the A000088(8) = 12,346 graphs on 8
    # vertices, so the last build of any run at n <= 10 offers at most
    # 12,346 x 2^8 candidates; the labeled sweep offers 2^21 at n = 7, 2^28 at 8
    assert 12_346 << 8 <= search.WORK_BUDGET
    assert 1 << 21 <= search.WORK_BUDGET < 1 << 28


@pytest.mark.parametrize("engine, n", [("labeled", 6), ("canonical", 9)])
def test_a_lowered_work_budget_is_refused_fast_and_small(monkeypatch, engine, n):
    # both runs fit the default budget; at 2^10 the sweep's 2^15 graphs are
    # refused up front, and generation after level 4 of B(3,1) (11 x 2^7)
    monkeypatch.setattr(search, "WORK_BUDGET", 2**10)
    clear_generation_cache()
    tracemalloc.start()
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="exceed the work budget 1,024"):
        exact_ex(n, 3, BOWTIE_FREE, engine=engine)
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    clear_generation_cache()
    assert elapsed < 1.0 and peak < 1 << 20


def test_cold_lemma_generation_at_11_is_refused_after_level_8():
    # 10,939 classes on 8 vertices times 2^9 subsets exceed 2^22, so the run
    # stops before level 9, whose build takes 25 s or more
    clear_generation_cache()
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="level 8's 10,939 classes"):
        exact_ex(11, 4, LEMMA_FAMILY)
    assert time.perf_counter() - t0 < 5.0
    clear_generation_cache()


def test_triangle_free_generation_at_11_gives_mantel():
    # level 9 holds 1,897 triangle-free classes: 1,897 x 2^9 fits the budget
    clear_generation_cache()
    rep = exact_ex(11, 2, parse_family("K(3)"))
    clear_generation_cache()
    assert rep.exhaustive and rep.maximum == 30
    assert rep.witnesses == (canonical_form(turan_graph(11, 2)),)


def test_triangle_book_series_prefix():
    # frozen values; the full series is covered by the acceptance suite
    got = [exact_ex(n, 3, BOWTIE_FREE).maximum for n in range(1, 7)]
    assert got == [0, 0, 1, 4, 4, 4]


def test_deadline_gives_partial_report():
    clear_generation_cache()
    # n = 10 fits the budget, and its levels take far longer than the deadline
    rep = exact_ex(10, 3, BOWTIE_FREE, engine="canonical", max_seconds=0.3)
    assert not rep.exhaustive
    clear_generation_cache()


def _examined_below(levels, k):
    """Candidates offered by the parents on fewer than k vertices."""
    return sum(len(level) << j for j, level in enumerate(levels[:k]))


def test_deadline_keeps_the_partial_level(monkeypatch):
    # n = 8 generates levels up to 7; with levels 0..6 cached, a fake clock
    # that ticks once per parent cuts level 7 after 50 of its 98 parents, each
    # of which offers 2^6 neighbourhoods, and the partial level 7 is padded
    # with one isolated vertex
    clear_generation_cache()
    levels, _, _ = search._generation_levels(BOWTIE_FREE, 6, None, 1)
    ticks = iter(range(10**6))
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    rep = exact_ex(8, 3, BOWTIE_FREE, max_seconds=50)
    monkeypatch.undo()
    assert not rep.exhaustive
    assert rep.examined == _examined_below(levels, 6) + 50 * 2 ** 6
    assert len(search._GEN_CACHE[BOWTIE_FREE]) == 7  # levels 0..6; 7 was cut
    assert 0 < rep.maximum
    for cf in rep.witnesses:
        g = cf.to_graph()
        assert g.n == 8 and min(map(g.degree, range(8))) == 0
        assert is_free(g, BOWTIE_FREE) and count_cliques(g, 3) == rep.maximum
    full = exact_ex(8, 3, BOWTIE_FREE)
    assert full.exhaustive and (full.maximum, full.examined) == (8, 58_587)
    assert rep.maximum <= full.maximum
    clear_generation_cache()


def test_deadline_below_level_n_pads_the_deepest_level(monkeypatch):
    # with levels 0..4 cached the fake clock builds level 5 (11 ticks) and
    # cuts level 6 after 10 of its 28 parents, so n = 8 pads the partial
    # level 6 with two isolated vertices
    clear_generation_cache()
    levels, _, _ = search._generation_levels(BOWTIE_FREE, 4, None, 1)
    ticks = iter(range(10**6))
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    rep = exact_ex(8, 3, BOWTIE_FREE, max_seconds=21)
    monkeypatch.undo()
    assert not rep.exhaustive
    assert rep.examined == _examined_below(levels, 4) + 11 * 2 ** 4 + 10 * 2 ** 5
    assert len(search._GEN_CACHE[BOWTIE_FREE]) == 6  # levels 0..5; 6 was cut
    assert rep.maximum > 0 and rep.witnesses
    for cf in rep.witnesses:
        g = cf.to_graph()
        assert g.n == 8 and sum(g.degree(v) == 0 for v in range(8)) >= 2
        assert is_free(g, BOWTIE_FREE) and count_cliques(g, 3) == rep.maximum
    assert rep.maximum <= exact_ex(8, 3, BOWTIE_FREE).maximum
    clear_generation_cache()


def test_deadline_inside_the_bound_pass_keeps_the_best_child(monkeypatch):
    # with levels 0..6 cached, n = 7 builds no level; the fake clock cuts the
    # bound pass over the 98 parents on 6 vertices after 50 of them (the full
    # pass visits 82), and the report keeps the best free child found so far
    clear_generation_cache()
    levels, _, _ = search._generation_levels(BOWTIE_FREE, 6, None, 1)
    ticks = iter(range(10**6))
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    rep = exact_ex(7, 3, BOWTIE_FREE, max_seconds=50)
    monkeypatch.undo()
    assert not rep.exhaustive
    assert rep.examined == _examined_below(levels, 6) + 50 * 2 ** 6
    assert rep.maximum > 0 and rep.witnesses
    for cf in rep.witnesses:
        g = cf.to_graph()
        assert g.n == 7 and is_free(g, BOWTIE_FREE) and count_cliques(g, 3) == rep.maximum
    full = exact_ex(7, 3, BOWTIE_FREE)
    assert full.exhaustive and (full.maximum, full.examined) == (5, 7387)
    assert rep.maximum <= full.maximum
    clear_generation_cache()


def test_deadline_below_level_n_keeps_the_edgeless_rule_when_padding_is_not_free(monkeypatch):
    # forbidding three independent vertices rejects every graph on 2 vertices
    # padded to 4, and the edgeless graph on 4 too, so no witness is left
    family = ForbiddenFamily((), (empty_graph(3),))
    clear_generation_cache()
    search._generation_levels(family, 2, None, 1)
    ticks = iter(range(10**6))
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    rep = exact_ex(4, 2, family, max_seconds=0)
    monkeypatch.undo()
    assert not rep.exhaustive and len(search._GEN_CACHE[family]) == 3  # levels 0..2
    assert (rep.maximum, rep.witnesses) == (0, ())
    clear_generation_cache()


def test_generation_cache_holds_one_family():
    clear_generation_cache()
    first = exact_ex(6, 3, BOWTIE_FREE)
    exact_ex(6, 4, LEMMA_FAMILY)
    assert list(search._GEN_CACHE) == [LEMMA_FAMILY]
    again = exact_ex(6, 3, BOWTIE_FREE)
    assert (again.maximum, again.witnesses, again.examined) == (
        first.maximum, first.witnesses, first.examined
    )
    assert len(search._GEN_CACHE) == 1
    clear_generation_cache()


# per-level class counts of each family for n <= 7, and the candidates an
# n = 8 run examines (1, 1, 2, 4, 11 are the graphs on n <= 4, all free)
LEVEL_COUNTS = {
    "B(3,1)": ([1, 1, 2, 4, 11, 28, 98, 400], 58_587),
    "B(4,1)": ([1, 1, 2, 4, 11, 34, 156, 1018], 141_595),
    "B(4,1),H1,K(5)": ([1, 1, 2, 4, 11, 33, 150, 973], 135_419),
}


@pytest.mark.parametrize("spec", sorted(LEVEL_COUNTS))
def test_generation_levels_are_sorted_canonical_forms(spec):
    counts, examined_at_8 = LEVEL_COUNTS[spec]
    family = parse_family(spec)
    clear_generation_cache()
    rep = exact_ex(7, 3, family)
    assert len(search._GEN_CACHE[family]) == 7  # levels 0..6: level 7 is never built
    levels, _, _ = search._generation_levels(family, 7, None, 1)
    assert [len(level) for level in levels] == counts
    for k, level in enumerate(levels):
        assert all(type(cf) is CanonicalForm and cf.n == k for cf in level)
        assert [cf.key for cf in level] == sorted({cf.key for cf in level})
        for cf in level:
            g = cf.to_graph()
            assert canonical_form(g) == cf and is_free(g, family)
    # every parent on k vertices offers 2^k candidate children
    assert rep.examined == sum(len(level) << k for k, level in enumerate(levels[:7]))
    assert sum(len(level) << k for k, level in enumerate(levels)) == examined_at_8
    clear_generation_cache()


# independent oracles: with no constraint generation counts all graphs (OEIS
# A000088), with K(3) the triangle-free graphs (OEIS A006785); the K(4)
# counts are this repo's own
KNOWN_LEVEL_COUNTS = {
    "all graphs": ("", [1, 1, 2, 4, 11, 34, 156, 1044]),
    "K(3)-free": ("K(3)", [1, 1, 2, 3, 7, 14, 38, 107, 410, 1897]),
    "K(4)-free": ("K(4)", [1, 1, 2, 4, 10, 29, 120, 685]),
}


def _level_counts(spec, n):
    clear_generation_cache()
    levels, _, completed = search._generation_levels(parse_family(spec), n, None, 1)
    clear_generation_cache()
    assert completed
    return [len(level) for level in levels]


@pytest.mark.parametrize("name", sorted(KNOWN_LEVEL_COUNTS))
def test_level_counts_are_the_counts_of_graphs(name):
    spec, counts = KNOWN_LEVEL_COUNTS[name]
    assert _level_counts(spec, len(counts) - 1) == counts


@pytest.mark.slow
@pytest.mark.parametrize("name, count", [("all graphs", 12_346), ("K(4)-free", 6_431)])
def test_level_8_counts_are_the_counts_of_graphs(name, count):
    spec, counts = KNOWN_LEVEL_COUNTS[name]
    assert _level_counts(spec, 8) == counts + [count]


def test_generation_canonicalizes_only_least_degree_children(monkeypatch):
    # with levels 0..6 cached, building level 7 canonicalizes only the free
    # children whose new vertex has least degree: 1,327 of them, against
    # 4,837 when every free child of every orbit representative was
    clear_generation_cache()
    search._generation_levels(LEMMA_FAMILY, 6, None, 1)
    calls = []

    def counting(g):
        calls.append(g.n)
        return canonical_form(g)

    monkeypatch.setattr(search, "canonical_form", counting)
    levels, _, completed = search._generation_levels(LEMMA_FAMILY, 7, None, 1)
    assert completed and len(levels[7]) == LEVEL_COUNTS["B(4,1),H1,K(5)"][0][7]
    assert len(calls) == 1_327 and set(calls) == {7}
    clear_generation_cache()


def test_bound_pass_checks_only_least_degree_children(monkeypatch):
    # with levels 0..7 cached, the bound pass of n = 8 tests for freeness only
    # the least-degree children that reach the best score so far
    clear_generation_cache()
    search._generation_levels(LEMMA_FAMILY, 7, None, 1)
    free_child = search._free_child
    calls = []

    def counting(parent, lists, smask, family):
        calls.append(parent.n)
        return free_child(parent, lists, smask, family)

    monkeypatch.setattr(search, "_free_child", counting)
    rep = exact_ex(8, 4, LEMMA_FAMILY)
    assert (rep.maximum, rep.examined) == (9, LEVEL_COUNTS["B(4,1),H1,K(5)"][1])
    assert len(calls) == 30 and set(calls) == {7}
    clear_generation_cache()


def test_generation_pins_one_vertex_per_pattern_orbit(monkeypatch):
    # H1 has 3 vertex orbits, so each H1 check of a child pins at most 3 of
    # its 7 vertices on the new vertex; pinning every vertex makes more calls
    pinned = []

    def counting(g, h, *, pin=None):
        if pin is not None:
            pinned.append(pin)
        return find_subgraph(g, h, pin=pin)

    monkeypatch.setattr(search, "find_subgraph", counting)
    clear_generation_cache()
    search._generation_levels(LEMMA_FAMILY, 7, None, 1)
    assert len(pinned) == 4_678
    pinned.clear()
    assert exact_ex(8, 4, LEMMA_FAMILY).maximum == 9
    assert len(pinned) == 66
    clear_generation_cache()


def test_generation_examines_every_candidate_at_n8():
    clear_generation_cache()
    rep = exact_ex(8, 3, BOWTIE_FREE)
    assert rep.exhaustive and rep.examined == LEVEL_COUNTS["B(3,1)"][1]
    clear_generation_cache()


def test_generation_keeps_its_outputs():
    # (family, r) -> (maximum, examined, witness keys) at n = 8, recorded
    # when the child check listed the cliques inside each S afresh
    recorded = {
        ("B(4,1),H1,K(5)", 4): (9, 135_419, ("1fb9fff0",)),
        ("B(3,1)", 3): (8, 58_587, ("2de10c30", "2de32d30", "2e22e470", "2e6b9f80", "319b2cd0")),
        ("B(4,2)", 4): (6, 133_019, ("2e6b9ff0", "325aeff0", "84f07ff0", "e0463ff0")),
        ("B(3,0),K(4)", 3): (12, 74_859, ("03fde7f0",)),
    }
    for (spec, r), want in recorded.items():
        for jobs in (1, 2):
            clear_generation_cache()
            rep = exact_ex(8, r, parse_family(spec), jobs=jobs)
            got = (rep.maximum, rep.examined, tuple(w.key.hex() for w in rep.witnesses))
            assert rep.exhaustive and got == want, (spec, jobs)
    clear_generation_cache()


def test_generation_keeps_its_outputs_at_n9():
    # (family, r) -> (maximum, examined, witnesses, SHA-256 of their
    # space-joined keys) at n = 9, past the all-subsets oracle's n <= 7,
    # recorded when the bound pass tried every orbit representative
    recorded = {
        ("B(3,1)", 3): (8, 644_827, 23,
                        "0f017d8fdfd65c88abe0ecfbad37b014dd6fe027a9156817a82bc24d34ddb727"),
        ("B(4,1),H1,K(5)", 4): (12, 2_935_803, 1,  # the one key is 03fde7fff0
                                "c5f9c6ba771e2bc89f3b93c302386afb7f7fa88fd0443066e669590288f09a26"),
    }
    for (spec, r), want in recorded.items():
        clear_generation_cache()
        rep = exact_ex(9, r, parse_family(spec))
        keys = " ".join(w.key.hex() for w in rep.witnesses).encode()
        got = (rep.maximum, rep.examined, len(rep.witnesses), hashlib.sha256(keys).hexdigest())
        assert rep.exhaustive and got == want, spec
    clear_generation_cache()


# the differential grid: (family, last level checked, the two sides' sum
# between that level and the one below)
ORBIT_COUNT_GRID = [
    ("K(1)", 7, 0), ("K(2)", 7, 1), ("K(3)", 7, 431), ("K(4)", 7, 3_394), ("K(5)", 7, 4_883),
    ("B(2,0)", 7, 19), ("B(2,1)", 7, 7), ("B(3,0)", 7, 3_119), ("B(3,1)", 8, 13_523),
    ("B(3,2)", 7, 1_151), ("B(4,1)", 8, 74_258), ("B(4,2)", 7, 4_722), ("H1", 7, 5_045),
    ("H2", 7, 4_955), ("B(4,1),H1,K(5)", 8, 71_197),
]


def _check_orbit_double_count(spec, top, last):
    # a lost or split class, a key shared by two classes or a wrong orbit
    # table breaks the identity at some level
    family = parse_family(spec)
    clear_generation_cache()
    levels, _, completed = search._generation_levels(family, top, None, 1)
    clear_generation_cache()
    assert completed
    for k in range(top):
        left, right = orbit_double_count(levels[k], levels[k + 1], family)
        assert left == right, (k, left, right)
    assert left == last


@pytest.mark.parametrize("spec, top, last", ORBIT_COUNT_GRID)
def test_levels_pass_the_orbit_double_count(spec, top, last):
    _check_orbit_double_count(spec, top, last)


@pytest.mark.slow
@pytest.mark.parametrize("spec, last", [("B(4,1)", 1_861_164), ("B(4,1),H1,K(5)", 1_774_372)])
def test_level_9_passes_the_orbit_double_count(spec, last):
    _check_orbit_double_count(spec, 9, last)


CHILD_FAMILIES = {
    name: parse_family(name)
    for name in ("K(1)", "K(2)", "K(4)", "B(2,0)", "B(2,1)", "B(3,1)", "B(4,2)", "H1",
                 "B(4,1),H1,K(5)")
}


def _free_parent(g, family):
    """g made free by the full check: each first violation loses its first
    edge, or the last vertex goes when it has none (K(1) forbids every
    vertex)."""
    while (span := first_violation(g, family)) is not None:
        edges = list(g.edges())
        inside = [e for e in edges if span >> e[0] & 1 and span >> e[1] & 1]
        if inside:
            g = from_edges(g.n, [e for e in edges if e != inside[0]])
        else:
            g = from_edges(g.n - 1, [e for e in edges if e[1] < g.n - 1])
    return g


@pytest.mark.parametrize("name", sorted(CHILD_FAMILIES))
@given(graphs(max_n=7))
@settings(max_examples=25)
def test_free_child_matches_is_free(name, g):
    # every neighbourhood S of a free parent, not one per orbit: the child
    # check returns P + S exactly when the full check finds P + S free
    family = CHILD_FAMILIES[name]
    parent = _free_parent(g, family)
    k = parent.n
    edges = list(parent.edges())
    lists = search._clique_lists(parent, family)
    for smask in range(1 << k):
        child = from_edges(k + 1, edges + [(i, k) for i in _bits(smask)])
        got = search._free_child(parent, lists, smask, family)
        assert (got is not None) == is_free(child, family), smask
        assert got is None or got == child


@functools.lru_cache(maxsize=None)
def all_subsets_levels(family, n):
    """Levels 0..n built the way generation worked before orbit reduction:
    every parent on k vertices extended by all 2^k neighbourhoods, each
    child checked by the full `is_free` and deduplicated by canonical form."""
    base = empty_graph(0)
    levels = [[canonical_form(base)] if is_free(base, family) else []]
    for k in range(n):
        found = set()
        for cf in levels[k]:
            edges = list(cf.to_graph().edges())
            for smask in range(1 << k):
                child = from_edges(k + 1, edges + [(i, k) for i in range(k) if smask >> i & 1])
                if is_free(child, family):
                    found.add(canonical_form(child))
        levels.append(sorted(found, key=lambda cf: cf.key))
    return levels


DIFFERENTIAL_FAMILIES = {
    "B(3,1)": BOWTIE_FREE,
    "B(4,1),H1,K(5)": LEMMA_FAMILY,
    "B(3,0)": parse_family("B(3,0)"),
    "B(4,2)": parse_family("B(4,2)"),
    "K(4)": parse_family("K(4)"),
    "H2,K(5)": parse_family("H2,K(5)"),
    "C4": ForbiddenFamily((), (cycle_graph(4),)),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_FAMILIES))
def test_orbit_extension_matches_all_subsets(name):
    # one neighbourhood per orbit of Aut(parent) finds the same classes as
    # all 2^k of them, serially and in two shards
    family = DIFFERENTIAL_FAMILIES[name]
    oracle = all_subsets_levels(family, 7)
    for jobs in (1, 2):
        clear_generation_cache()
        levels, examined, completed = search._generation_levels(family, 7, None, jobs)
        assert completed and levels == oracle
        assert examined == sum(len(level) << k for k, level in enumerate(oracle[:7]))
    clear_generation_cache()


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_FAMILIES))
def test_bound_pass_matches_the_full_last_level(name):
    # exact_ex never builds level n; its answers must be those of the full
    # level n, with the levels below n built serially and in two shards
    family = DIFFERENTIAL_FAMILIES[name]
    oracle = all_subsets_levels(family, 7)
    for jobs in (1, 2):
        clear_generation_cache()
        for n in range(8):
            for r in range(1, 6):
                rep = exact_ex(n, r, family, jobs=jobs)
                if n < r:
                    examined, counts = 0, {}
                else:
                    examined = sum(len(level) << k for k, level in enumerate(oracle[:n]))
                    counts = {cf: count_cliques(cf.to_graph(), r) for cf in oracle[n]}
                best = max(counts.values(), default=0)
                if best > 0:
                    witnesses = tuple(cf for cf in oracle[n] if counts[cf] == best)
                else:
                    edgeless = empty_graph(n)
                    witnesses = (canonical_form(edgeless),) if is_free(edgeless, family) else ()
                assert (rep.maximum, rep.witnesses, rep.examined, rep.exhaustive) == (
                    best, witnesses, examined, True
                ), (n, r, jobs)
    clear_generation_cache()


def _answers(family):
    """exact_ex answers for n = 3..7 and r = 3, 4, from a cold cache."""
    clear_generation_cache()
    reps = [exact_ex(n, r, family) for n in range(3, 8) for r in (3, 4)]
    clear_generation_cache()
    return [(rep.maximum, rep.witnesses, rep.examined, rep.exhaustive) for rep in reps]


METAMORPHIC_FAMILIES = {
    "B(4,1),H1,K(5)": LEMMA_FAMILY,
    "B(3,1),H2": parse_family("B(3,1),H2"),
    "C4": ForbiddenFamily((), (cycle_graph(4),)),
    "K(4),P4": ForbiddenFamily((), (complete_graph(4), from_edges(4, [(0, 1), (1, 2), (2, 3)]))),
}


@pytest.mark.parametrize("name", sorted(METAMORPHIC_FAMILIES))
def test_relabeled_patterns_give_the_same_answers(name):
    family = METAMORPHIC_FAMILIES[name]
    rng = random.Random(name)
    relabeled = ForbiddenFamily(
        family.books,
        tuple(p.permute(rng.sample(range(p.n), p.n)) for p in family.patterns),
    )
    assert relabeled.patterns != family.patterns
    assert _answers(relabeled) == _answers(family)


@pytest.mark.parametrize("extra", ["K(6)", "H2"])
def test_redundant_pattern_gives_the_same_answers(extra):
    # K(6) and H2 each contain K5, which the lemma family already forbids
    assert _answers(parse_family(f"B(4,1),H1,K(5),{extra}")) == _answers(LEMMA_FAMILY)


def test_process_pool_is_capped_at_the_cpu_count(monkeypatch):
    # the stub records the pool size and maps in-process, so no worker starts
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    serial = brute_force_labeled(6, 3, BOWTIE_FREE)
    # _sharder imports the pool at jobs > 1, so the stub replaces it at its source
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    wide = brute_force_labeled(6, 3, BOWTIE_FREE, jobs=64)
    assert sizes == [min(64, os.cpu_count() or 1)]
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    brute_force_labeled(6, 3, BOWTIE_FREE, jobs=64)
    assert sizes[-1] == 1
    assert (wide.maximum, wide.witnesses, wide.examined, wide.exhaustive) == (
        serial.maximum, serial.witnesses, serial.examined, serial.exhaustive
    )


def test_import_loads_no_process_pool():
    # only a run that shards imports the pool and multiprocessing behind it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(search.__file__)))
    code = ("import sys, booklab, booklab.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# moves


def test_cleanup_edges_examples():
    assert cleanup_edges(cycle_graph(5), 3).edge_count() == 0
    assert cleanup_edges(complete_graph(4), 3) == complete_graph(4)
    g = join(complete_graph(2), turan_graph(8, 2))
    assert cleanup_edges(g, 4) == g


def _per_edge_cleanup(g, r):
    """The cleanup rule before edge covers: drop each edge uv with no
    (r-2)-clique in the common neighbourhood of u and v."""
    rows = list(g.adj)
    for u, v in g.edges():
        common = g.adj[u] & g.adj[v]
        if not any(c & common == c for c in enumerate_clique_masks(g, r - 2)):
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


@given(graphs(max_n=8), st.integers(min_value=2, max_value=5))
@settings(max_examples=200)
def test_cleanup_edges_matches_the_per_edge_rule(g, r):
    assert cleanup_edges(g, r) == _per_edge_cleanup(g, r)


def test_cleanup_edges_is_bounded_by_the_clique_budget(monkeypatch):
    g = complete_graph(6)
    monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", 19)
    with pytest.raises(ResourceLimitError):
        cleanup_edges(g, 3)  # K6 has 20 triangles
    monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", 20)
    assert cleanup_edges(g, 3) == g
    with pytest.raises(ValueError):
        cleanup_edges(g, 1)


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


CLONE_PATTERNS = {
    "C4": cycle_graph(4),
    "P4": from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    "C5": cycle_graph(5),
    "K1,3": from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    "2K2": from_edges(4, [(0, 1), (2, 3)]),
    "K2+K1": from_edges(3, [(0, 1)]),
    # labelled so that the smallest non-edge orbit alone misses some moves
    "P3+K1": from_edges(4, [(0, 1), (0, 2)]),
    "P3+K2": from_edges(5, [(0, 3), (0, 4), (1, 2)]),
    "K4-e": from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "H1": h1_graph(),
    "H2": h2_graph(),
}


def _clones(g):
    """Every single and every paired clone of g as (src, targets, graph):
    src over one or two of its non-neighbours, whether or not the climb
    would try the move."""
    for v in range(g.n):
        others = [u for u in range(g.n) if u != v and not g.has_edge(u, v)]
        for u in others:
            yield v, (u,), clone_move(g, u, v)
        for x, z in itertools.combinations(others, 2):
            yield v, (x, z), clone_move(clone_move(g, z, v), x, v)


CLONE_BOOKS = [
    (), (BookSpec(3, 1),), (BookSpec(3, 0),), (BookSpec(3, 2),), (BookSpec(4, 1),),
    (BookSpec(4, 2),), (BookSpec(4, 3),), (BookSpec(5, 2),),
]


@given(
    st.one_of(
        st.tuples(
            st.builds(
                lambda name, books: ForbiddenFamily(books, (CLONE_PATTERNS[name],)),
                st.sampled_from(sorted(CLONE_PATTERNS)),
                st.sampled_from(CLONE_BOOKS),
            ),
            st.integers(min_value=3, max_value=8),
            st.floats(min_value=0.3, max_value=0.9),
        ),
        # a K(m) term makes some twin merges unfree, so `_clone_pins` drops
        # their pins (every pin, for the last two); dense starts reach the
        # pins that stay
        st.tuples(
            st.sampled_from(["B(4,1),H1,K(5)", "H1,K(5)", "H2,K(4)", "B(3,1),H1,H2,K(5)"]).map(
                parse_family
            ),
            st.integers(min_value=7, max_value=10),
            st.floats(min_value=0.8, max_value=0.95),
        ),
    ),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=180)
def test_clone_free_matches_is_free(case, seed):
    family, n, p = case
    g = random_free_graph(n, family, random.Random(seed), p)
    cliques_by_r = {b.r: clique_mask_list(g, b.r) for b in family.books}
    books_ok = {}
    for src, targets, cand in _clones(g):
        got = search._clone_free(g, src, targets, family, cliques_by_r, books_ok)
        assert (got is not None) == is_free(cand, family)
        assert got is None or got == cand


def test_clone_pins_drop_the_pins_whose_merge_is_not_free():
    # merging H1's 0 and 4 closes a K5; merging 0 and 5 does not
    h1 = h1_graph()
    for k in (1, 2):
        assert search._clone_pins(LEMMA_FAMILY, k) == ((h1, 0, 5),)
        assert search._clone_pins(parse_family("H1"), k) == ((h1, 0, 4), (h1, 0, 5))
        assert search._clone_pins(parse_family("H2,K(4)"), k) == ()
    # every two-vertex merge of H1 holds a B(4,2), but merging 0, 4 and 6
    # does not, so (0, 4) stays for paired clones only
    assert search._clone_pins(parse_family("B(4,2),H1"), 1) == ()
    assert search._clone_pins(parse_family("B(4,2),H1"), 2) == ((h1, 0, 4),)


@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda r: st.tuples(st.just(r), st.integers(min_value=0, max_value=r - 1))
    ),
    st.integers(min_value=3, max_value=9),
    st.floats(min_value=0.3, max_value=0.95),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=150)
def test_clones_keep_books_matches_is_free(rs, n, p, seed):
    # the link lemma: on a book-free graph, whether a clone stays free
    # depends on its source only
    family = ForbiddenFamily((BookSpec(*rs),))
    g = random_free_graph(n, family, random.Random(seed), p)
    cliques_by_r = {rs[0]: clique_mask_list(g, rs[0])}
    for src, targets, cand in _clones(g):
        assert search._clones_keep_books(src, family.books, cliques_by_r) == is_free(cand, family)


def test_carried_lists_are_the_lists_of_the_clone():
    # paired moves are rare in climbs, so every move is driven here, from
    # a clean graph as in the climb; the sizes cover lists below, at and
    # above r. A move whose targets hold no r-clique returns the clone
    # itself, uncleaned; the run must reach that branch and the cleanup.
    branches = set()

    @given(graphs(max_n=9), st.integers(min_value=2, max_value=5))
    @example(disjoint_union(complete_graph(3), empty_graph(1)), 3)
    @settings(max_examples=40)
    def carry_every_clone(g, r):
        g = cleanup_edges(g, r)
        kcount = [_vertex_clique_count(g, r, v) for v in range(g.n)]
        sizes = range(1, r + 2)
        lists = {rr: clique_mask_list(g, rr) for rr in sizes}
        for src, targets, cand in _clones(g):
            for rr in sizes:
                carried = search._cloned_cliques(lists[rr], src, targets)
                assert sorted(carried) == sorted(clique_mask_list(cand, rr))
            carried = dict(lists)
            cur, held = search._carry(cand, src, targets, r, carried, kcount)
            branches.add(cur is cand)
            assert cur == cleanup_edges(cand, r)
            assert held == [_vertex_clique_count(cand, r, v) for v in range(cand.n)]
            for rr in sizes:
                assert sorted(carried[rr]) == sorted(clique_mask_list(cur, rr))

    carry_every_clone()
    assert branches == {True, False}


def test_carried_lists_meet_the_budget_after_cleanup(monkeypatch):
    # cloning 4 over 0 kills the K4 {0,1,2,3}, and cleanup then drops the
    # triangle {1,2,3}: the carried triangles go from 8 to 7, so a budget
    # of 7 passes and one of 6 refuses
    g = disjoint_union(complete_graph(4), complete_graph(4))
    kcount = [1] * 8
    cand = clone_move(g, 0, 4)
    passing, refused = ({rr: clique_mask_list(g, rr) for rr in (4, 3)} for _ in range(2))
    monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", 7)
    assert search._carry(cand, 4, (0,), 4, passing, kcount)[0] == cleanup_edges(cand, 4)
    assert len(passing[3]) == 7
    monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", 6)
    with pytest.raises(ResourceLimitError):
        search._carry(cand, 4, (0,), 4, refused, kcount)


def test_carried_lists_meet_the_budget_when_no_clique_is_lost(monkeypatch):
    # cloning 0 over the isolated 5 loses no clique and copies the four K4s
    # through 0: the carried K4s go from 5 to 9, so a budget of 9 passes
    # and one of 8 refuses
    g = disjoint_union(complete_graph(5), empty_graph(1))
    kcount = [4] * 5 + [0]
    cand = clone_move(g, 5, 0)
    passing, refused = ({4: clique_mask_list(g, 4)} for _ in range(2))
    monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", 9)
    assert search._carry(cand, 0, (5,), 4, passing, kcount) == (cand, [4, 7, 7, 7, 7, 4])
    assert len(passing[4]) == 9
    monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", 8)
    with pytest.raises(ResourceLimitError):
        search._carry(cand, 0, (5,), 4, refused, kcount)


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
    with pytest.raises(ValueError, match="cleanup needs r >= 2"):
        symmetrize(complete_graph(3), 1, LEMMA_FAMILY)


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


@pytest.mark.parametrize("spec, r", [("B(4,1),H1,K(5)", 4), ("B(3,1)", 3)])
def test_every_clone_move_of_a_climb_changes_the_count_by_k_v_minus_k_u(monkeypatch, spec, r):
    # the climb's move accounting rests on this identity; checking it on
    # every call covers both halves of a paired move
    family = parse_family(spec)
    calls = []

    def checked(g, u, v):
        out = clone_move(g, u, v)
        gain = _vertex_clique_count(g, r, v) - _vertex_clique_count(g, r, u)
        assert count_cliques(out, r) - count_cliques(g, r) == gain
        calls.append((u, v))
        return out

    monkeypatch.setattr(search, "clone_move", checked)
    for n in range(10, 17):
        for seed in range(6):
            symmetrize(random_free_graph(n, family, random.Random(seed)), r, family, seed=seed)
    assert calls


LEMMA_KEY_40 = (
    "0000000000000000000000000000000000000000001fffffffffbffff9ffffc7ffff0ffffe0ffffe07ffff01"
    "ffffc03ffff803ffff801ffffc007ffff000ffffe000ffffe0007ffff0001ffffc0003ffff80003ffff80001"
    "fffffffffffffffffff0"
)


def test_symmetrize_keeps_its_outputs():
    # (family, r, n, start seed, p, climb seed) -> (maximum, history, examined,
    # witness key), recorded when every move was built and checked, and the
    # clique lists were made afresh at each step; the last climb was recorded
    # later, with every pin tried, and accepts one paired move
    recorded = {
        ("B(4,1),H1,K(5)", 4, 40, 1, 0.5, 1): (361, (
            3, 4, 6, 8, 11, 14, 18, 22, 27, 32, 38, 44, 51, 58, 66, 74, 83, 92, 102, 112, 123,
            134, 146, 158, 171, 184, 198, 212, 227, 242, 258, 273, 290, 306, 324, 342, 361,
        ), 1284, LEMMA_KEY_40),
        ("B(4,1),H1,K(5)", 4, 40, 2, 0.5, 2): (361, (
            3, 5, 7, 10, 13, 17, 21, 26, 31, 37, 43, 50, 57, 65, 73, 82, 91, 101, 111, 122, 133,
            145, 157, 170, 183, 197, 211, 226, 241, 257, 273, 290, 306, 324, 342, 361,
        ), 1225, LEMMA_KEY_40),
        ("B(3,1)", 4, 16, 16001, 0.5, 16001): (1, (1,), 48, "000000000000000000000020018007"),
        ("B(5,2),B(3,1)", 4, 16, 16001, 0.5, 16001): (
            1, (1,), 48, "000000000000000000000020018007"
        ),
        ("B(5,3),B(3,0)", 4, 10, 10002, 0.8, 2): (7, (1, 2, 3, 4, 5, 6, 7), 51, "000007fffff8"),
        ("B(5,2)", 4, 19, 19002, 0.8, 2): (
            500, (69, 95, 120, 152, 182, 217, 250, 291, 316, 344, 400, 475, 500), 40,
            "003ff7cf8f87ffffbff3ff1ff87ffffffefffe7fff00",
        ),
        ("B(4,1),H1,K(5)", 4, 12, 25, 0.8, 25): (
            25, (4, 6, 8, 9, 12, 16, 20, 25), 102, "003ff7cf8f87ffffc0"
        ),
    }
    for (spec, r, n, start, p, seed), want in recorded.items():
        family = parse_family(spec)
        rep = symmetrize(random_free_graph(n, family, random.Random(start), p), r, family, seed=seed)
        assert (rep.maximum, rep.history, rep.examined, rep.witnesses[0].key.hex()) == want, spec


# SHA-256 of (family, n, climb seed, maximum, witness keys, history,
# examined) over the climbs below, recorded before the single and paired
# moves were tried through one loop; paired moves are accepted in
# 6 B(3,1), 3 H1 and 1 B(4,2) of them
PAIRED_CLIMBS_SHA256 = "44d298eda4009bc652c6d2d0f639e44fdf5afdae1db0453d111db04c8fe07700"


def test_climbs_with_paired_moves_keep_their_outputs(monkeypatch):
    accepted = Counter()
    clone_free = search._clone_free

    def spy(cur, src, targets, *args):
        cand = clone_free(cur, src, targets, *args)
        accepted[spec] += cand is not None and len(targets) == 2
        return cand

    monkeypatch.setattr(search, "_clone_free", spy)
    digest = hashlib.sha256()
    fired = Counter()
    for spec, r in (("B(3,1)", 3), ("H1", 4), ("B(4,2)", 4)):
        family = parse_family(spec)
        for n in range(12, 31, 3):
            for seed in (None, 1, 2, 3):
                start = random_free_graph(n, family, random.Random(1000 * n + (seed or 0)), 0.3)
                before = accepted[spec]
                rep = symmetrize(start, r, family, seed=seed)
                fired[spec] += accepted[spec] > before
                digest.update(repr((spec, n, seed, rep.maximum,
                                    tuple(w.key.hex() for w in rep.witnesses),
                                    rep.history, rep.examined)).encode())
    assert fired == {"B(3,1)": 6, "H1": 3, "B(4,2)": 1}
    assert digest.hexdigest() == PAIRED_CLIMBS_SHA256


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_shuffled_positions_are_the_places_random_shuffle_gives(seed):
    for count in [*range(65), 387, 1_560]:
        rng, want_rng = random.Random(seed), random.Random(seed)
        items = list(range(count))
        want_rng.shuffle(items)
        pos = search._shuffled_positions(count, rng)
        assert [items[p] for p in pos] == list(range(count)), count
        assert rng.getstate() == want_rng.getstate(), count
        assert search._shuffled_positions(count, None) == range(count)


def eager_single_moves(cur, kcount, rng):
    """The climb's single moves as the climb once ordered them: every clone
    of a vertex over a non-neighbour in fewer r-cliques listed, target then
    source ascending, shuffled by rng and stable-sorted by gain, best
    first."""
    moves = [(src, (u,)) for u, row in enumerate(cur.adj) for src in range(cur.n)
             if kcount[src] > kcount[u] and not row >> src & 1]
    if rng is not None:
        rng.shuffle(moves)
    moves.sort(key=lambda move: kcount[move[1][0]] - kcount[move[0]])
    return moves


def _copy_rng(state):
    if state is None:
        return None
    rng = random.Random()
    rng.setstate(state)
    return rng


@pytest.mark.parametrize("spec, r", [("B(4,1),H1,K(5)", 4), ("B(3,1)", 3)])
def test_climb_moves_keep_the_order_and_draws_of_a_shuffled_sorted_list(monkeypatch, spec, r):
    # at every step of seeded and unseeded climbs the lazy single moves are
    # the eager list in full and leave the rng where its shuffle did, and
    # the paired moves draw what a shuffle of their list would
    family = parse_family(spec)
    single_moves, paired_moves = search._single_moves, search._paired_moves
    checked = Counter()

    def singles(cur, kcount, rng):
        state = None if rng is None else rng.getstate()
        got_rng, want_rng = _copy_rng(state), _copy_rng(state)
        assert list(single_moves(cur, kcount, got_rng)) == eager_single_moves(cur, kcount, want_rng)
        assert got_rng is None or got_rng.getstate() == want_rng.getstate()
        checked["single", rng is None] += 1
        return single_moves(cur, kcount, rng)

    def paired(cur, kcount, target, rng):
        state = None if rng is None else rng.getstate()
        got_rng, want_rng = _copy_rng(state), _copy_rng(state)
        got = list(paired_moves(cur, kcount, target, got_rng))
        if want_rng is not None:
            want_rng.shuffle(list(got))
            assert got_rng.getstate() == want_rng.getstate()
        checked["paired", rng is None] += 1
        return paired_moves(cur, kcount, target, rng)

    monkeypatch.setattr(search, "_single_moves", singles)
    monkeypatch.setattr(search, "_paired_moves", paired)
    for n in (12, 16, 20, 25, 30, 40):
        for seed in (None, 1, 2, 3):
            start = random_free_graph(n, family, random.Random(100 * n + (seed or 0)))
            symmetrize(start, r, family, seed=seed)
    assert set(checked) == {(kind, unseeded) for kind in ("single", "paired")
                            for unseeded in (False, True)}
    assert checked["single", False] > 100


@pytest.mark.parametrize("spec, n, start, p, seed, refusals", [
    # budget -> shuffles made before the refusal (None: the climb finishes),
    # one per step for the singles and one when the paired moves are listed;
    # each budget holds up to the next one, recorded with the lists made
    # afresh at each step. Triangles bind the first climb, K4s the second.
    ("B(5,3),B(3,0)", 10, 10002, 0.8, 2,
     {0: 0, 6: 1, 7: 2, 10: 3, 13: 4, 16: 5, 19: 6, 22: None}),
    ("B(5,2)", 16, 16004, 0.5, 4,
     {0: 0, 1: 1, 2: 2, 4: 3, 8: 4, 16: 5, 24: 6, 36: 7, 54: 8, 81: 9, 108: 10, 144: 11,
      192: 12, 256: None}),
])
def test_symmetrize_refuses_at_the_step_whose_lists_pass_the_budget(
    monkeypatch, spec, n, start, p, seed, refusals
):
    family = parse_family(spec)
    g = random_free_graph(n, family, random.Random(start), p)
    shuffled_positions = search._shuffled_positions
    shuffles = []

    def counting(count, rng):
        shuffles.append(count)
        return shuffled_positions(count, rng)

    monkeypatch.setattr(search, "_shuffled_positions", counting)
    bounds = sorted(refusals)
    for lo, hi in zip(bounds, bounds[1:] + [bounds[-1] + 1]):
        for budget in {lo, hi - 1}:
            monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", budget)
            shuffles.clear()
            if refusals[lo] is None:
                symmetrize(g, 4, family, seed=seed)
                continue
            with pytest.raises(ResourceLimitError):
                symmetrize(g, 4, family, seed=seed)
            assert len(shuffles) == refusals[lo], budget


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


def _per_step_repair(n, family, rng, p):
    """The repair random_free_graph ran before its stages: delete an edge,
    drawn by rng.choice, inside the first violation until the graph is free."""
    g = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
    while (span := first_violation(g, family)) is not None:
        members = list(_bits(span))
        inside = [(u, v) for u, v in itertools.combinations(members, 2) if g.has_edge(u, v)]
        u, v = rng.choice(inside)
        rows = list(g.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        g = Graph(n, tuple(rows))
    return g


def _delete_from_the_list(rows, span, rng):
    """The list-based draw _delete_inside ran before it counted: every edge
    inside span, lexicographically, then rng.choice."""
    inside = [(u, v) for u, v in itertools.combinations(_bits(span), 2) if rows[u] >> v & 1]
    u, v = rng.choice(inside)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return u, v


@given(graphs(min_n=2, max_n=70), st.data())
@settings(max_examples=200)
def test_counted_edge_draw_matches_the_list_draw(g, data):
    span = data.draw(st.integers(0, (1 << g.n) - 1), label="span")
    if not any(g.adj[u] & span for u in _bits(span)):
        return
    seed = data.draw(st.integers(0, 2**32), label="seed")
    rows, want_rows = list(g.adj), list(g.adj)
    rng, want_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert search._delete_inside(rows, span, rng) == _delete_from_the_list(want_rows, span, want_rng)
        assert rows == want_rows and rng.getstate() == want_rng.getstate()
        if not any(rows[u] & span for u in _bits(span)):
            break


@pytest.mark.parametrize("spec", [
    "B(2,0)", "B(2,1)", "B(3,0)", "B(3,1)", "B(4,1)", "B(4,2)",
    "B(3,1),B(4,2)", "B(4,1),H1,K(5)", "K(5),K(4),H1",
    "K(3)", "K(4)", "K(3),K(5)", "K(6),H2",
])
def test_random_free_graph_matches_the_per_step_repair(spec):
    family = parse_family(spec)
    for n in range(5, 21):
        for k, p in enumerate((0.3, 0.5, 0.7, 0.9, 0.95)):
            for seed in (8 * n + 2 * k, 8 * n + 2 * k + 1):
                got = random_free_graph(n, family, random.Random(seed), p)
                want = _per_step_repair(n, family, random.Random(seed), p)
                assert graph6_encode(got) == graph6_encode(want), (n, p, seed)


def test_random_free_graph_keeps_its_outputs_at_n_38():
    # recorded with the per-step repair
    recorded = {
        ("B(3,1)", 1): "e??????@?_?@???G`?????????H?p?aIo??QGa?Q?A??O_@???@??SG?CU`?N?S??C@PS?Uc"
                       "@ViGH??_C?__?CGgHGM?GOSc`?O@BAHAo?|o??I?Q``?o??",
        ("B(3,1)", 2): "e???????AA???C?@?@?J@?C?g_??GeG?UPBI?OACC?K??IA?Ab@??@GCc@O?CWAB@h?@???G"
                       "?LUG?C@_QCOR??IAO?Go??aP?OIAAIC_GFI@cO@@C?GEGe?",
        ("B(4,1)", 1): "e_?@OoEC?o?B@OIkpAOOE@eOgcH@W?b?sQ?qmGaaGJA_zA@CW@D_?SGOCQ`Ct?s@_i@@OFQE"
                       "@RiKgA_wKWIaH_Ykj_RUOCokb?rLKJg?rO|u?_JC]`hjWA?",
        ("B(4,1)", 2): "e?C@@AG@?{@M`cD@bOB?@A_??h?_grg?]aIY_HAII?{piJ?ay`BGcCEC_`OACIMETJaPA@OA"
                       "?nQaCcSoAoPR_`gkOCOolL_BCaFQ@OkO@f??dGdhDGGMW__",
    }
    for (spec, seed), g6 in recorded.items():
        assert graph6_encode(random_free_graph(38, parse_family(spec), random.Random(seed))) == g6


def test_random_free_graph_keeps_its_lemma_outputs_at_n_40():
    # recorded before the K(m) stage resumed at its last clique's least vertex
    recorded = {
        1: "gg@AW?AGc`_V@GRQa?CEU@YAktG__yWD?OOgbT@ICDgHEA`ER?fGajIS_HJeo@AJcQAJA{GBkCh_"
           "AeDaBKGBh?qGCcp_OUgzKO?AoOq?`oA[IoOHK}?DW`_@W@MwBI?cCKL",
        2: "gDDOPbJB?EKA_Ml`a??YC?x??ppJHKACE@AS_J?D?ScQSccXAAPQO@QmA@_OUP?gZgG[IATGiRAD@`"
           "Ks|G?EK@@]pCeUH??ORQpDAcAXv`aFUfAcCCQm_gEoTcP?QYbXogg",
    }
    for seed, g6 in recorded.items():
        assert graph6_encode(random_free_graph(40, LEMMA_FAMILY, random.Random(seed))) == g6


def test_random_free_graph_refuses_past_the_clique_budget(monkeypatch):
    # the repair lists the triangles of the random start graph once; a
    # budget one below their number refuses, as the per-step repair did
    start = random.Random(0)
    g = from_edges(12, [(i, j) for i in range(12) for j in range(i + 1, 12) if start.random() < 0.5])
    triangles = count_cliques(g, 3)
    monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", triangles - 1)
    with pytest.raises(ResourceLimitError):
        random_free_graph(12, BOWTIE_FREE, random.Random(0))
    monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", triangles)
    assert is_free(random_free_graph(12, BOWTIE_FREE, random.Random(0)), BOWTIE_FREE)


def test_clique_budget_bounds_climb_and_generation(monkeypatch):
    # K4 has four triangles and is B(3,1)-free: past a budget of two, both
    # the climb and the extension of a K4 parent must refuse
    monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", 2)
    with pytest.raises(ResourceLimitError):
        symmetrize(complete_graph(4), 3, BOWTIE_FREE)
    clear_generation_cache()
    with pytest.raises(ResourceLimitError):
        canonical_generation(6, 3, BOWTIE_FREE)
    clear_generation_cache()
