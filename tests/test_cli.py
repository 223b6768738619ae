import argparse
import json
import re
import time
from pathlib import Path

import pytest

from booklab.cli import build_parser, main
from booklab.constructions import b42_construction
from booklab.formats import graph6_decode, graph6_encode, parse_graph_text
from booklab.graphs import complete_graph, count_cliques, disjoint_union, turan_graph
from booklab.patterns import h1_graph
from booklab.search import clear_generation_cache

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


def test_free_reports_patterns_in_family_order(capsys):
    # H1 on 0..6 and K5 on 7..11: the pattern listed first is reported
    g6 = graph6_encode(disjoint_union(h1_graph(), complete_graph(5)))
    data = run_json(capsys, "free", "--input", g6, "--forbid", "H1,K(5)")
    assert data["violation"] == {"kind": "pattern", "pattern": "H1", "vertices": list(range(7))}
    data = run_json(capsys, "free", "--input", g6, "--forbid", "K(5),H1")
    assert data["violation"] == {
        "kind": "pattern", "pattern": "K(5)", "vertices": [7, 8, 9, 10, 11],
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


@pytest.mark.parametrize("given", [(), ("--r", "4"), ("--s", "1")])
def test_construct_book_requires_r_and_s(capsys, given):
    assert main(["construct", "--kind", "book", "--n", "10", *given]) == 2
    assert "needs --r and --s" in capsys.readouterr().err


def test_construct_verifies_against_a_given_family(capsys):
    # book_extremal(10, 4, 1) is K2 joined to T2(8): B(4,1)-free, but it holds K4s
    args = ("construct", "--kind", "book", "--n", "10", "--r", "4", "--s", "1")
    sidecar = json.loads(run(capsys, *args, "--family", "B(4,1),H1,K(5)")[1].splitlines()[-1])
    assert sidecar["family"] == "B(4,1),H1,K(5)" and sidecar["verified_free"] is True
    sidecar = json.loads(run(capsys, *args, "--family", "K(4)")[1].splitlines()[-1])
    assert sidecar["family"] == "K(4)" and sidecar["verified_free"] is False
    assert sidecar["predicted_count"] == 16


@pytest.mark.parametrize("fmt", ["g6", "edges"])
def test_commands_read_a_graph_file_written_by_construct(capsys, tmp_path, fmt):
    path = tmp_path / f"g.{fmt}"
    code, _ = run(capsys, "construct", "--kind", "b42", "--n", "12", "--format", fmt,
                  "--out", str(path))
    assert code == 0 and path.exists()
    g6 = graph6_encode(b42_construction(12))
    code, out = run(capsys, "count", "--input", str(path), "--r", "4")
    assert code == 0 and out.strip() == "12"
    assert run_json(capsys, "free", "--input", str(path), "--forbid", "B(4,2)")["free"] is True
    assert run_json(capsys, "free", "--input", str(path), "--forbid", "K(4)")["free"] is False
    code, out = run(capsys, "convert", "--input", str(path), "--to", "g6")
    assert code == 0 and out.strip() == g6
    code, out = run(capsys, "convert", "--input", str(path), "--to", "edges")
    assert code == 0 and graph6_encode(parse_graph_text(out)) == g6


@pytest.mark.parametrize(
    "kind_args", [("book", "--r", "5", "--s", "1"), ("partition", "--parts", "3,1", "--s", "2")]
)
def test_construct_past_the_vertex_cap_fails_fast(capsys, kind_args):
    kind, *rest = kind_args
    t0 = time.perf_counter()
    code = main(["construct", "--kind", kind, "--n", "4097", *rest])
    elapsed = time.perf_counter() - t0
    assert code == 2
    assert "vertex count 4097 outside" in capsys.readouterr().err
    assert elapsed < 1.0


CONSTRUCT_KINDS = [
    (("book", "--r", "5", "--s", "1"), 5),
    (("book", "--r", "4", "--s", "1"), 4),
    (("book", "--r", "7", "--s", "2"), 7),
    (("k4-packing",), 3),
    (("partition", "--parts", "3,1", "--s", "2"), 4),
    (("partition", "--parts", "2,2", "--s", "1"), 4),
    (("b42",), 4),
]


@pytest.mark.parametrize("n", [7, 10, 13, 20])
@pytest.mark.parametrize("kind_args,r", CONSTRUCT_KINDS)
def test_construct_predicted_count_is_the_clique_count(capsys, kind_args, r, n):
    # the budget shortcut in construct relies on this equality
    code, out = run(capsys, "construct", "--kind", kind_args[0], "--n", str(n), *kind_args[1:])
    assert code == 0
    text, sidecar = out.strip().splitlines()
    assert json.loads(sidecar)["predicted_count"] == count_cliques(graph6_decode(text), r)


@pytest.mark.parametrize(
    "kind_args", [("b42",), ("partition", "--parts", "3,1", "--s", "2")]
)
def test_construct_past_the_clique_budget_fails_fast(capsys, kind_args):
    kind, *rest = kind_args
    t0 = time.perf_counter()
    code = main(["construct", "--kind", kind, "--n", "4096", *rest])
    elapsed = time.perf_counter() - t0
    assert code == 3
    assert "cliques of size 4; raise the budget" in capsys.readouterr().err
    assert elapsed < 2.0


def test_exact_small(capsys):
    data = run_json(capsys, "exact", "--n", "6", "--r", "3", "--forbid", "B(3,1)")
    assert data["maximum"] == 4
    assert data["exhaustive"] is True
    assert data["engine"].startswith("canonical")
    assert len(data["witnesses_g6"]) == 8
    assert data["examined"] > 0
    assert data["wall_ms"] >= 0
    # reported witnesses round-trip: decode, re-verify, re-count
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


def test_climb_from_a_start_with_no_clique_stops_at_once(capsys):
    # no clone move can gain when the count is 0; scanning every paired
    # move anyway took 23 s from this start.  Its graph6 literal is longer
    # than a file name may be, which the input probe must survive.
    from booklab.graphs import empty_graph

    t0 = time.perf_counter()
    data = run_json(capsys, "climb", "--input", graph6_encode(empty_graph(800)), "--r", "3",
                    "--forbid", "B(3,1)")
    assert time.perf_counter() - t0 < 5.0
    assert (data["maximum"], data["history"], data["examined"]) == (0, [0], 0)
    assert data["witnesses_g6"] == [graph6_encode(empty_graph(800))]


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


@pytest.mark.parametrize(
    "theorem, last_n, level, classes", [("1.1", 7, 6, 98), ("2.1", 6, 5, 33)],
    ids=["1.1", "2.1"],
)
def test_search_tables_refuse_orders_past_their_bound(
    capsys, monkeypatch, theorem, last_n, level, classes
):
    # at a budget of 2^10, row n builds level n - 1 from level n - 2 at a
    # cost of |level n - 2| x 2^(n-2): 98 x 2^6 refuses 1.1 at n = 8, and
    # 33 x 2^5 refuses 2.1 at n = 7; the rows before stay on stdout
    monkeypatch.setattr("booklab.search.WORK_BUDGET", 2**10)
    clear_generation_cache()
    t0 = time.perf_counter()
    code = main(["table", "--theorem", theorem, "--n-max", "10"])
    captured = capsys.readouterr()
    clear_generation_cache()
    assert code == 3
    assert time.perf_counter() - t0 < 2.0
    rows = [json.loads(line) for line in captured.out.splitlines()]
    assert [row["n"] for row in rows] == list(range(1, last_n + 1))
    assert all(row["match"] for row in rows)
    assert f"level {level}'s {classes} classes" in captured.err


def test_table_11_answers_at_its_bound(capsys):
    rows = run_table(capsys, "table", "--theorem", "1.1", "--n-min", "9", "--n-max", "9")
    assert [(r["n"], r["formula"], r["computed"], r["match"]) for r in rows] == [(9, 8, 8, True)]


@pytest.mark.slow
def test_table_21_answers_at_its_bound(capsys):
    rows = run_table(capsys, "table", "--theorem", "2.1", "--n-min", "9", "--n-max", "9")
    assert [(r["n"], r["formula"], r["computed"], r["match"]) for r in rows] == [(9, 12, 12, True)]


def test_table_13_construction(capsys):
    rows = run_table(capsys, "table", "--theorem", "1.3-construction", "--n-max", "30")
    got = [(r["n"], r["formula"], r["computed"], r["match"]) for r in rows]
    # n starts at 4 whatever --n-min says; the count of K2 v T2(n-2) is floor((n-2)^2/4)
    assert got == [(n, (n - 2) ** 2 // 4, (n - 2) ** 2 // 4, True) for n in range(4, 31)]
    assert all(r["schema"] == "booklab/1" and r["table"] == "1.3-construction" for r in rows)


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
    # n < r answers 0 up to VERTEX_CAP, past which its witness cannot be built
    assert main(["exact", "--n", "4096", "--r", "5000"]) == 0
    assert main(["exact", "--n", "5000", "--r", "6000"]) == 2
    assert "vertex count 5000" in capsys.readouterr().err


def test_free_honors_a_lowered_clique_budget(capsys, monkeypatch):
    monkeypatch.setattr("booklab.graphs.CLIQUE_BUDGET", 2)
    assert main(["free", "--input", K6, "--forbid", "B(3,0)"]) == 3
    capsys.readouterr()


def test_missing_input_file_is_exit_2(capsys, tmp_path):
    for spec in (str(tmp_path / "absent.g6"), "absent.g6", "graphs/k6"):
        assert main(["count", "--input", spec, "--r", "3"]) == 2
        assert f"no such input file: {spec}" in capsys.readouterr().err
    # a path that exists but cannot be read as text
    assert main(["count", "--input", str(tmp_path), "--r", "3"]) == 2
    assert f"cannot read input file {tmp_path}: " in capsys.readouterr().err


def test_huge_exact_orders_exit_3_at_once(capsys):
    for engine in ("labeled", "canonical"):
        t0 = time.perf_counter()
        code = main(["exact", "--n", "1000000000", "--r", "3", "--engine", engine])
        assert code == 3 and time.perf_counter() - t0 < 1.0
        assert "exceed the work budget" in capsys.readouterr().err


def test_usage_error_is_exit_2():
    # argparse handles malformed invocations itself
    for argv in (["count", "--r", "3"], ["table", "--theorem", "9.9", "--n-max", "5"],
                 ["exact", "--n", "8", "--r", "3", "--cap", "12"],
                 ["exact", "--n", "5", "--r", "3", "--engine", "auto"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def _readme_cli_commands():
    """The `booklab` commands of README's CLI block, continuation lines joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("booklab "):
            commands.append(line)
        elif line:
            commands[-1] += " " + line
    return commands


def test_readme_cli_block_shows_only_options_the_parser_accepts():
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    commands = _readme_cli_commands()
    assert len(commands) >= len(subparsers.choices)
    for command in commands:
        sub = command.split()[1]
        accepted = subparsers.choices[sub]._option_string_actions
        for option in re.findall(r"--[a-z][a-z-]*", command):
            assert option in accepted, (command, option)
