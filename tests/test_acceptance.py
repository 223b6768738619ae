"""End-to-end reproduction gates.

Each test prints one [criterion N] PASS/FAIL line (run with -s to see them
all); stated wall-clock budgets are asserted alongside the math.  Criterion
8's 50% quality bar is a heuristic target and is reported, not asserted.
"""

import random
import time

import pytest

from booklab import search
from booklab.canonical import canonical_form
from booklab.constructions import (
    b42_construction,
    b42_count,
    book_extremal,
    k4_packing,
    partition_construction,
    turan_clique_count,
)
from booklab.graphs import complete_graph, count_cliques, empty_graph, join, turan_graph
from booklab.partitions import Partition, beta
from booklab.patterns import BookSpec, ForbiddenFamily, is_free, parse_family
from booklab.search import (
    brute_force_labeled,
    canonical_generation,
    clear_generation_cache,
    exact_ex,
    random_free_graph,
    symmetrize,
)

from conftest import oracle_beta

B31 = parse_family("B(3,1)")
LEMMA_FAMILY = parse_family("B(4,1),H1,K(5)")


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _triangle_piecewise(n):
    return {0: n, 1: n - 1, 2: n - 2, 3: n - 2}[n % 4]


def test_criterion_1_triangle_book_series():
    clear_generation_cache()
    t0 = time.perf_counter()
    got = [exact_ex(n, 3, B31).maximum for n in range(1, 9)]
    elapsed = time.perf_counter() - t0
    want = [_triangle_piecewise(n) for n in range(1, 9)]
    ok = got == want and elapsed < 60.0
    _report(1, ok, f"n=1..8 maxima {got} vs formula {want}, {elapsed:.1f}s (< 60s)")


@pytest.mark.slow
def test_criterion_1_optional_n9():
    t0 = time.perf_counter()
    got = exact_ex(9, 3, B31).maximum
    elapsed = time.perf_counter() - t0
    ok = got == _triangle_piecewise(9) and elapsed < 600.0
    _report("1 (n=9)", ok, f"maximum {got} vs 8, {elapsed:.1f}s (< 600s)")


@pytest.mark.slow
@pytest.mark.parametrize(
    "n, key, level_below, budget_s",
    [(9, "003ffffff0", 11_487, 30.0), (10, "0001fffffff8", 230_460, 90.0)],
)
def test_pure_book_b41_is_the_clique_join(n, key, level_below, budget_s):
    # ex(n, K4, B(4,1)) = 4n - 15 at n = 9 and 10, attained only by K4 joined
    # to n - 4 independent vertices; it beats floor((n-2)^2/4) = 12 and 16.
    # The run builds and caches level n - 1 in full
    family = parse_family("B(4,1)")
    clear_generation_cache()
    t0 = time.perf_counter()
    rep = exact_ex(n, 4, family)
    elapsed = time.perf_counter() - t0
    levels = search._GEN_CACHE[family]
    clear_generation_cache()
    witness = canonical_form(join(complete_graph(4), empty_graph(n - 4)))
    assert rep.exhaustive and rep.maximum == 4 * n - 15 and rep.witnesses == (witness,)
    assert witness.key.hex() == key and len(levels) == n and len(levels[n - 1]) == level_below
    assert elapsed < budget_s, f"{elapsed:.1f}s (< {budget_s:.0f}s)"


def test_criterion_2_quarter_square_series():
    clear_generation_cache()
    t0 = time.perf_counter()
    values_ok = True
    witness_ok = True
    got = []
    for n in range(4, 9):
        rep = exact_ex(n, 4, LEMMA_FAMILY)
        got.append(rep.maximum)
        values_ok &= rep.maximum == (n - 2) ** 2 // 4
        if n >= 5:
            expected = canonical_form(join(complete_graph(2), turan_graph(n - 2, 2)))
            witness_ok &= rep.witnesses == (expected,)
    elapsed = time.perf_counter() - t0
    # the n = 8 level and the candidates its parents offer, pinned; exact_ex
    # never builds its last level, so level 8 is generated here
    classes = len(search._generation_levels(LEMMA_FAMILY, 8, None, 1)[0][8])
    counts_ok = classes == 10_939 and rep.examined == 135_419
    ok = values_ok and witness_ok and counts_ok and elapsed < 300.0
    _report(
        2,
        ok,
        f"n=4..8 maxima {got}, unique join witness for n=5..8: {witness_ok}, "
        f"{classes} classes and {rep.examined} candidates at n=8, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_3_clique_maximizer_cross_check():
    checked = 0
    ok = True
    for t in range(2, 5):
        fam = parse_family(f"K({t + 1})")
        for s in range(2, t + 1):
            for n in range(0, 9):
                rep = exact_ex(n, s, fam)
                good = rep.maximum == turan_clique_count(n, t, s)
                if n >= s:
                    # uniqueness holds exactly where the maximum is positive
                    good &= rep.witnesses == (canonical_form(turan_graph(n, t)),)
                else:
                    # degenerate cells follow the documented edgeless policy
                    good &= rep.witnesses == (canonical_form(empty_graph(n)),)
                ok &= good
                checked += 1
    _report(
        3, ok, f"{checked} (n,s,t) cells, unique balanced-blowup witness when n >= s"
    )


def test_criterion_4_triangle_blowup_lower_bound():
    t0 = time.perf_counter()
    fam = parse_family("B(4,2)")
    ok = True
    for n in range(6, 121):
        g = b42_construction(n)
        count = count_cliques(g, 4)
        ok &= count == b42_count(n)
        ok &= 12 * count >= n * n - 24  # count >= n^2/12 - 2, integer exact
        ok &= is_free(g, fam)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _report(4, ok, f"n=6..120 free, count=m(3m+t) >= n^2/12-2, {elapsed:.1f}s (< 120s)")


def test_criterion_5_construction_identities():
    ok = True
    for r in (4, 5, 6, 7):
        fam = ForbiddenFamily(books=(BookSpec(r, 1),))
        for n in range(r, 41):
            g = book_extremal(n, r, 1)
            ok &= count_cliques(g, r) == turan_clique_count(n - 2, r - 2, r - 2)
            ok &= is_free(g, fam)
    for n in range(0, 41):
        ok &= is_free(k4_packing(n), B31)
    fam42 = parse_family("B(4,2)")
    fam41 = parse_family("B(4,1)")
    for n in range(4, 41):
        ok &= is_free(partition_construction(n, Partition((3, 1)), 2), fam42)
        ok &= is_free(partition_construction(n, Partition((4,)), 1), fam41)
    _report(5, ok, "join-count identity r=4..7 n<=40; all constructions verify free")


def test_criterion_6_sum_free_partition_lengths():
    t0 = time.perf_counter()
    ok = True
    for r in range(3, 13):
        for s in range(1, r):
            if s < 2:
                continue
            ok &= beta(r, s)[0] == oracle_beta(r, s)
    ok &= beta(4, 2) == (2, Partition((3, 1)))
    ok &= beta(6, 3)[0] == 3
    ok &= beta(3, 1)[0] == 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(6, ok, f"2<=s<r<=12 vs brute force, spot values, {elapsed:.1f}s (< 10s)")


def test_criterion_7_engine_equivalence():
    families = [
        ForbiddenFamily(),
        B31,
        parse_family("B(4,1)"),
        LEMMA_FAMILY,
    ]
    cells = 0
    ok = True
    for fam in families:
        for r in (3, 4):
            for n in range(0, 7):
                a = brute_force_labeled(n, r, fam)
                b = canonical_generation(n, r, fam)
                ok &= a.maximum == b.maximum
                ok &= len(a.witnesses) == len(b.witnesses)
                ok &= set(a.witnesses) == set(b.witnesses)
                cells += 1
    _report(7, ok, f"{cells} cells: labeled sweep == canonical generation")


def test_criterion_8_hill_climb_properties():
    runs = 200
    ok = True
    reached = 0
    for i in range(runs):
        n = 10 + i % 7
        g = random_free_graph(n, LEMMA_FAMILY, random.Random(i))
        start = count_cliques(g, 4)
        rep = symmetrize(g, 4, LEMMA_FAMILY, seed=i)
        final = rep.witnesses[0].to_graph()
        ok &= is_free(final, LEMMA_FAMILY)
        ok &= rep.maximum >= start
        ok &= count_cliques(final, 4) == rep.maximum
        ok &= all(b > a for a, b in zip(rep.history, rep.history[1:]))
        if rep.maximum >= (n - 2) ** 2 // 4:
            reached += 1
    rate = reached / runs
    quality = f"{reached}/{runs} runs reached the quarter-square target"
    if rate < 0.5:
        quality += " (below the 50% heuristic goal; reported, not asserted)"
    _report(8, ok, f"outputs free, counts monotone, strict per-move; {quality}")
