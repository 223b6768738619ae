import json

import pytest

from booklab.cli import main
from booklab.formats import graph6_encode
from booklab.graphs import complete_graph, turan_graph

K6 = graph6_encode(complete_graph(6))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_count_k6(capsys):
    code, out = run(capsys, "count", "--input", K6, "--r", "4")
    assert code == 0
    assert out.strip() == "15"


def test_count_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("3\n0 1\n1 2\n0 2\n"))
    code, out = run(capsys, "count", "--input", "-", "--r", "3")
    assert code == 0 and out.strip() == "1"


def test_free_reports_violation(capsys):
    data = run_json(capsys, "free", "--input", K6, "--forbid", "B(3,1)")
    assert data["schema"] == "booklab/1"
    assert data["free"] is False
    v = data["violation"]
    assert v["kind"] == "book" and v["r"] == 3 and v["s"] == 1
    assert len(v["first"]) == 3 and len(v["second"]) == 3
    assert len(set(v["first"]) & set(v["second"])) == 1


def test_free_reports_pattern_violation(capsys):
    data = run_json(capsys, "free", "--input", K6, "--forbid", "K(5)")
    assert data["free"] is False
    assert data["violation"]["kind"] == "pattern"
    assert data["violation"]["pattern"] == "K(5)"
    assert len(data["violation"]["vertices"]) == 5


def test_free_reports_books_before_patterns(capsys):
    data = run_json(capsys, "free", "--input", K6, "--forbid", "K(5),B(3,1)")
    assert data["violation"] == {
        "kind": "book", "r": 3, "s": 1, "first": [0, 1, 2], "second": [0, 3, 4], "overlap": 1,
    }


def test_free_accepts(capsys):
    g6 = graph6_encode(turan_graph(8, 2))
    data = run_json(capsys, "free", "--input", g6, "--forbid", "B(3,1)")
    assert data == {"schema": "booklab/1", "free": True, "violation": None}


def test_construct_b42(capsys, tmp_path):
    out_path = tmp_path / "g.g6"
    code, out = run(
        capsys, "construct", "--kind", "b42", "--n", "12", "--out", str(out_path)
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "g.g6.json").read_text())
    assert sidecar["predicted_count"] == 12
    assert sidecar["verified_free"] is True
    assert sidecar["family"] == "B(4,2)"
    from booklab.formats import graph6_decode
    from booklab.graphs import count_cliques

    g = graph6_decode(out_path.read_text().strip())
    assert count_cliques(g, 4) == 12


def test_construct_book_stdout(capsys):
    code, out = run(capsys, "construct", "--kind", "book", "--n", "10", "--r", "4", "--s", "1")
    assert code == 0
    lines = out.strip().splitlines()
    sidecar = json.loads(lines[-1])
    assert sidecar["n"] == 10 and sidecar["verified_free"] is True
    assert sidecar["predicted_count"] == 16


def test_construct_partition_requires_parts(capsys):
    code, _ = run(capsys, "construct", "--kind", "partition", "--n", "12")
    assert code == 2


def test_exact_small(capsys):
    data = run_json(capsys, "exact", "--n", "6", "--r", "3", "--forbid", "B(3,1)")
    assert data["maximum"] == 4
    assert data["exhaustive"] is True
    assert data["engine"].startswith("canonical")
    assert len(data["witnesses_g6"]) == 8
    assert data["examined"] > 0
    assert data["wall_ms"] >= 0
    # reported witnesses round-trip: decode, re-verify, re-count
    from booklab.formats import graph6_decode
    from booklab.graphs import count_cliques
    from booklab.patterns import is_free, parse_family

    fam = parse_family(data["family"])
    for g6 in data["witnesses_g6"]:
        w = graph6_decode(g6)
        assert w.n == 6
        assert is_free(w, fam)
        assert count_cliques(w, 3) == data["maximum"]


def test_exact_engine_choice(capsys):
    a = run_json(capsys, "exact", "--n", "5", "--r", "3", "--forbid", "B(3,1)",
                 "--engine", "labeled")
    b = run_json(capsys, "exact", "--n", "5", "--r", "3", "--forbid", "B(3,1)",
                 "--engine", "canonical")
    assert a["maximum"] == b["maximum"] == 4
    assert sorted(a["witnesses_g6"]) == sorted(b["witnesses_g6"])


def test_climb(capsys):
    from booklab.constructions import book_extremal
    from booklab.graphs import disjoint_union, empty_graph

    g6 = graph6_encode(disjoint_union(book_extremal(10, 4, 1), empty_graph(2)))
    data = run_json(capsys, "climb", "--input", g6, "--r", "4",
                    "--forbid", "B(4,1),H1,K(5)", "--seed", "5")
    assert data["engine"] == "hill-climb"
    assert data["history"][0] <= data["maximum"]
    assert data["maximum"] == data["history"][-1]
    assert len(data["witnesses_g6"]) == 1


def test_beta(capsys):
    data = run_json(capsys, "beta", "4", "2")
    assert data == {
        "schema": "booklab/1",
        "r": 4,
        "s": 2,
        "beta": 2,
        "witness": [3, 1],
    }


def test_beta_all(capsys):
    data = run_json(capsys, "beta", "6", "3", "--all")
    assert [6] in data["sum_free_partitions"]
    assert max(len(p) for p in data["sum_free_partitions"]) == 3


def run_table(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return [json.loads(line) for line in out.strip().splitlines()]


def test_table_json(capsys):
    rows = run_table(capsys, "table", "--theorem", "1.1", "--n-max", "6")
    got = [(r["n"], r["formula"], r["computed"], r["match"]) for r in rows]
    assert got == [
        (1, 0, 0, True),
        (2, 0, 0, True),
        (3, 1, 1, True),
        (4, 4, 4, True),
        (5, 4, 4, True),
        (6, 4, 4, True),
    ]
    assert all(r["schema"] == "booklab/1" and r["table"] == "1.1" for r in rows)


def test_table_csv(capsys):
    code, out = run(capsys, "table", "--theorem", "2.1", "--n-max", "6",
                    "--n-min", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,formula,computed,match"
    assert all(line.endswith("true") for line in out.strip().splitlines()[1:])


def test_table_17_lower(capsys):
    rows = run_table(capsys, "table", "--theorem", "1.7-lower", "--n-max", "120",
                     "--n-min", "6")
    assert len(rows) == 115
    assert all(row["match"] for row in rows)


def test_convert_roundtrip(capsys):
    code, edges = run(capsys, "convert", "--input", K6, "--to", "edges")
    assert code == 0
    code, back = run(capsys, "convert", "--input", edges, "--to", "g6")
    assert code == 0
    assert back.strip() == K6


def test_exit_codes(capsys):
    assert main(["count", "--input", "@@@nope", "--r", "3"]) == 2
    assert main(["free", "--input", K6, "--forbid", "B(9,9)"]) == 2
    assert main(["exact", "--n", "9", "--r", "3", "--forbid", "B(3,1)",
                 "--engine", "labeled"]) == 3
    capsys.readouterr()


def test_missing_input_file_is_exit_2(capsys, tmp_path):
    for spec in (str(tmp_path / "absent.g6"), "absent.g6", "graphs/k6"):
        assert main(["count", "--input", spec, "--r", "3"]) == 2
        assert f"no such input file: {spec}" in capsys.readouterr().err


def test_usage_error_is_exit_2():
    # argparse handles malformed invocations itself
    for argv in (["count", "--r", "3"], ["table", "--theorem", "9.9", "--n-max", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
