import pytest
from hypothesis import given

from booklab.formats import (
    edge_list_decode,
    edge_list_encode,
    graph6_decode,
    graph6_encode,
    parse_graph_text,
)
from booklab.graphs import complete_graph, empty_graph, from_edges

from conftest import graphs


def test_known_encodings():
    assert graph6_encode(complete_graph(3)) == "Bw"
    assert graph6_encode(empty_graph(0)) == "?"
    assert graph6_encode(empty_graph(1)) == "@"
    assert graph6_decode("Bw") == complete_graph(3)


@given(graphs(max_n=9))
def test_graph6_roundtrip(g):
    assert graph6_decode(graph6_encode(g)) == g


def test_graph6_long_header():
    # n > 62 switches to the '~' + 3 byte header
    g = empty_graph(70)
    enc = graph6_encode(g)
    assert enc.startswith("~")
    assert graph6_decode(enc) == g


def test_graph6_rejects_garbage():
    with pytest.raises(ValueError):
        graph6_decode("")
    with pytest.raises(ValueError):
        graph6_decode("B\x19")  # below the printable alphabet
    with pytest.raises(ValueError):
        graph6_decode("Bww")  # body too long for n=3
    with pytest.raises(ValueError):
        graph6_decode("B")  # body too short
    with pytest.raises(ValueError):
        graph6_decode("B~")  # padding bits must be zero
    with pytest.raises(ValueError, match="truncated graph6 header"):
        graph6_decode("~??")  # the long header needs three bytes after '~'


@given(graphs(max_n=9))
def test_edge_list_roundtrip(g):
    assert edge_list_decode(edge_list_encode(g)) == g


def test_edge_list_format():
    g = from_edges(3, [(0, 1), (1, 2)])
    text = edge_list_encode(g)
    assert text.splitlines()[0] == "3"
    assert edge_list_decode("3\n0 1\n1 2\n") == g
    with pytest.raises(ValueError):
        edge_list_decode("")
    with pytest.raises(ValueError):
        edge_list_decode("2\n0 2\n")
    with pytest.raises(ValueError):
        edge_list_decode("x\n0 1\n")
    with pytest.raises(ValueError, match="expected 'u v'"):
        edge_list_decode("3\n0 1 2\n")


def test_parse_graph_text_dispatch():
    g = from_edges(3, [(0, 1), (1, 2)])
    assert parse_graph_text(edge_list_encode(g)) == g
    assert parse_graph_text(graph6_encode(g)) == g
    assert parse_graph_text("Bw\n") == complete_graph(3)
