import pytest
from hypothesis import given
from hypothesis import strategies as st

from booklab.constructions import (
    b42_construction,
    b42_count,
    book_extremal,
    k4_packing,
    k4_packing_count,
    partition_construction,
    partition_predicted_count,
    turan_clique_count,
)
from booklab.formats import graph6_encode
from booklab.graphs import VERTEX_CAP, count_cliques, turan_graph
from booklab.partitions import Partition
from booklab.patterns import BookSpec, ForbiddenFamily, is_free, parse_family


@given(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=5),
)
def test_turan_clique_count_matches_direct_count(n, t, s):
    assert turan_clique_count(n, t, s) == count_cliques(turan_graph(n, t), s)


def test_turan_clique_count_edge_cases():
    assert turan_clique_count(10, 3, 0) == 1
    assert turan_clique_count(10, 3, 4) == 0  # more parts needed than exist
    assert turan_clique_count(0, 2, 1) == 0
    assert turan_clique_count(9, 3, 3) == 27
    with pytest.raises(ValueError, match="at least one part"):
        turan_clique_count(10, 0, 1)
    with pytest.raises(ValueError, match="clique size"):
        turan_clique_count(10, 3, -1)
    with pytest.raises(ValueError, match="negative vertex count"):
        turan_clique_count(-1, 3, 1)


def test_book_extremal_shape_and_count():
    g = book_extremal(10, 4, 1)
    assert g.n == 10
    assert count_cliques(g, 4) == turan_clique_count(8, 2, 2) == 16
    assert is_free(g, ForbiddenFamily(books=(BookSpec(4, 1),)))
    # r=3 joins K_2 to a single part, so one triangle per far vertex
    g = book_extremal(9, 3, 1)
    assert count_cliques(g, 3) == turan_clique_count(7, 1, 1) == 7


def test_book_extremal_rejects_bad_regime():
    with pytest.raises(ValueError):
        book_extremal(10, 4, 2)  # needs r >= 2s+1
    with pytest.raises(ValueError):
        book_extremal(3, 4, 1)  # n < r
    with pytest.raises(ValueError, match="overlap s must be >= 0"):
        book_extremal(10, 4, -1)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_book_extremal_free_grid(r):
    fam = ForbiddenFamily(books=(BookSpec(r, 1),))
    for n in range(r, 30):
        g = book_extremal(n, r, 1)
        assert count_cliques(g, r) == turan_clique_count(n - 2, r - 2, r - 2)
        assert is_free(g, fam)


def test_k4_packing():
    for n in range(0, 30):
        g = k4_packing(n)
        assert g.n == n
        assert count_cliques(g, 3) == k4_packing_count(n)
        assert is_free(g, parse_family("B(3,1)"))
    assert k4_packing_count(10) == 8
    assert k4_packing_count(7) == 5
    assert k4_packing_count(8) == 8


def test_partition_construction_counts():
    p = Partition((3, 1))
    for n in range(4, 40):
        g = partition_construction(n, p, 2)
        assert count_cliques(g, 4) == partition_predicted_count(n, p)
        assert is_free(g, parse_family("B(4,2)"))


def test_partition_construction_graph6_pinned():
    # recorded from the edge-list builder this one replaced
    assert graph6_encode(partition_construction(12, Partition((3, 1)), 2)) == "K|}ilTViintT"
    g = partition_construction(17, Partition((4, 1)), 2)
    assert graph6_encode(g) == "P|}n|TTiijtTT^iiin|TTTTS"


def test_partition_construction_rejects_offending_partition():
    with pytest.raises(ValueError):
        partition_construction(12, Partition((2, 2)), 2)
    with pytest.raises(ValueError):
        partition_construction(12, Partition((2, 1)), 1)
    with pytest.raises(ValueError, match="need n >= r"):
        partition_construction(3, Partition((3, 1)), 2)


@pytest.mark.parametrize("build", [k4_packing, b42_construction])
def test_block_constructions_check_the_order_first(build):
    for n in (-1, VERTEX_CAP + 1):
        with pytest.raises(ValueError, match=f"vertex count {n} outside"):
            build(n)


def test_partition_predicted_count():
    assert partition_predicted_count(12, Partition((3, 1))) == 12
    assert partition_predicted_count(8, Partition((3, 1))) == 4


def test_b42_construction():
    fam = parse_family("B(4,2)")
    for n in range(0, 61):
        g = b42_construction(n)
        assert g.n == n
        assert count_cliques(g, 4) == b42_count(n)
        assert is_free(g, fam)
    assert b42_count(12) == 12
    assert b42_count(100) == 832
    assert b42_count(5) == 0
    assert b42_count(11) == 10  # extra triangle beats the floor split's 8


def test_b42_lower_bound_in_range():
    # 12 * m(3m+t) >= n^2 - 24 over the whole supported band, integer exact
    for n in range(6, 121):
        assert 12 * b42_count(n) >= n * n - 24
