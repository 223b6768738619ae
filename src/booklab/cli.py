"""Command-line front end.

Machine-readable output is JSON tagged with "schema": "booklab/1".
Exit codes: 0 success, 2 invalid parameters or unparsable input,
3 an explicit resource budget was hit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .constructions import (
    b42_construction,
    b42_count,
    book_extremal,
    k4_packing,
    k4_packing_count,
    partition_construction,
    partition_predicted_count,
    turan_clique_count,
)
from .errors import ResourceLimitError
from .formats import edge_list_encode, graph6_encode, parse_graph_text
from .graphs import Graph, count_cliques
from .partitions import Partition, beta, enumerate_partitions, is_s_sum_free
from .patterns import (
    BookSpec,
    ForbiddenFamily,
    book_violation,
    family_to_text,
    find_pattern_violation,
    is_free,
    parse_family,
)
from .search import SearchReport, exact_ex, symmetrize

SCHEMA = "booklab/1"


def _read_graph(spec: str) -> Graph:
    if spec == "-":
        return parse_graph_text(sys.stdin.read())
    path = Path(spec)
    if path.exists():
        return parse_graph_text(path.read_text())
    # '.' and '/' lie outside the graph6 alphabet: such a spec names a file
    if "." in spec or "/" in spec:
        raise ValueError(f"no such input file: {spec}")
    # not a file: treat as a literal graph6 string
    return parse_graph_text(spec)


def _emit(obj) -> None:
    print(json.dumps(obj))


def _report_json(report: SearchReport, wall_ms: float) -> dict:
    out = {
        "schema": SCHEMA,
        "n": report.n,
        "r": report.r,
        "family": family_to_text(report.family),
        "maximum": report.maximum,
        "witnesses_g6": [graph6_encode(cf.to_graph()) for cf in report.witnesses],
        "examined": report.examined,
        "engine": report.engine,
        "exhaustive": report.exhaustive,
        "wall_ms": round(wall_ms, 3),
    }
    if report.history:
        out["history"] = list(report.history)
    return out


def _cmd_count(args) -> int:
    g = _read_graph(args.input)
    print(count_cliques(g, args.r))
    return 0


def _cmd_free(args) -> int:
    g = _read_graph(args.input)
    family = parse_family(args.forbid)
    violation = None
    for spec in family.books:
        w = book_violation(g, spec)
        if w is not None:
            violation = {
                "kind": "book",
                "r": spec.r,
                "s": spec.s,
                "first": list(w.first.vertices()),
                "second": list(w.second.vertices()),
                "overlap": w.overlap,
            }
            break
    if violation is None:
        hit = find_pattern_violation(g, family)
        if hit is not None:
            pattern, image = hit
            violation = {
                "kind": "pattern",
                "pattern": pattern,
                "vertices": sorted(image),
            }
    _emit({"schema": SCHEMA, "free": violation is None, "violation": violation})
    return 0


def _cmd_construct(args) -> int:
    kind = args.kind
    n = args.n
    if kind == "book":
        if args.r is None or args.s is None:
            raise ValueError("construct --kind book needs --r and --s")
        g = book_extremal(n, args.r, args.s)
        predicted = turan_clique_count(n - args.s - 1, args.r - args.s - 1, args.r - args.s - 1)
        default_family = ForbiddenFamily(books=(BookSpec(args.r, args.s),))
    elif kind == "k4-packing":
        g = k4_packing(n)
        predicted = k4_packing_count(n)
        default_family = ForbiddenFamily(books=(BookSpec(3, 1),))
    elif kind == "partition":
        if args.parts is None or args.s is None:
            raise ValueError("construct --kind partition needs --parts and --s")
        p = Partition(tuple(int(x) for x in args.parts.split(",")))
        g = partition_construction(n, p, args.s)
        predicted = partition_predicted_count(n, p)
        default_family = ForbiddenFamily(books=(BookSpec(p.r, args.s),))
    elif kind == "b42":
        g = b42_construction(n)
        predicted = b42_count(n)
        default_family = ForbiddenFamily(books=(BookSpec(4, 2),))
    else:
        raise ValueError(f"unknown construction kind {kind!r}")
    family = parse_family(args.family) if args.family else default_family
    sidecar = {
        "schema": SCHEMA,
        "n": g.n,
        "family": family_to_text(family),
        "predicted_count": predicted,
        "verified_free": is_free(g, family),
    }
    text = edge_list_encode(g) if args.format == "edges" else graph6_encode(g)
    if args.out:
        out = Path(args.out)
        out.write_text(text if text.endswith("\n") else text + "\n")
        out.with_suffix(out.suffix + ".json").write_text(json.dumps(sidecar) + "\n")
    else:
        print(text if not text.endswith("\n") else text, end="" if text.endswith("\n") else "\n")
        _emit(sidecar)
    return 0


def _cmd_exact(args) -> int:
    family = parse_family(args.forbid)
    t0 = time.monotonic()
    report = exact_ex(
        args.n,
        args.r,
        family,
        engine=args.engine,
        cap=args.cap,
        max_seconds=args.max_seconds,
        jobs=args.jobs,
    )
    _emit(_report_json(report, (time.monotonic() - t0) * 1000))
    return 0


def _cmd_climb(args) -> int:
    g = _read_graph(args.input)
    family = parse_family(args.forbid)
    t0 = time.monotonic()
    report = symmetrize(g, args.r, family, seed=args.seed)
    _emit(_report_json(report, (time.monotonic() - t0) * 1000))
    return 0


def _cmd_beta(args) -> int:
    if args.all:
        rows = []
        for p in enumerate_partitions(args.r):
            if is_s_sum_free(p, args.s):
                rows.append(list(p.parts))
        _emit({"schema": SCHEMA, "r": args.r, "s": args.s, "sum_free_partitions": rows})
        return 0
    value, witness = beta(args.r, args.s)
    _emit(
        {
            "schema": SCHEMA,
            "r": args.r,
            "s": args.s,
            "beta": value,
            "witness": list(witness.parts),
        }
    )
    return 0


def _piecewise_triangle_max(n: int) -> int:
    rem = n % 4
    if rem == 0:
        return n
    if rem == 1:
        return n - 1
    return n - 2


def _table_rows(theorem: str, n_min: int, n_max: int) -> list[dict]:
    rows = []
    if theorem == "1.1":
        fam = parse_family("B(3,1)")
        for n in range(max(n_min, 1), n_max + 1):
            formula = _piecewise_triangle_max(n)
            computed = exact_ex(n, 3, fam).maximum
            rows.append({"n": n, "formula": formula, "computed": computed,
                         "match": formula == computed})
    elif theorem == "2.1":
        fam = parse_family("B(4,1),H1,K(5)")
        for n in range(max(n_min, 1), n_max + 1):
            formula = (n - 2) ** 2 // 4 if n >= 2 else 0
            computed = exact_ex(n, 4, fam).maximum
            rows.append({"n": n, "formula": formula, "computed": computed,
                         "match": formula == computed})
    elif theorem == "1.3-construction":
        for n in range(max(n_min, 4), n_max + 1):
            formula = (n - 2) ** 2 // 4
            computed = count_cliques(book_extremal(n, 4, 1), 4)
            rows.append({"n": n, "formula": formula, "computed": computed,
                         "match": formula == computed})
    elif theorem == "1.7-lower":
        for n in range(max(n_min, 6), n_max + 1):
            # bound n^2/12 - 2 compared in integers: count >= bound iff
            # 12*count >= n^2 - 24; the displayed bound is its ceiling
            bound_ceiling = -((24 - n * n) // 12)
            computed = b42_count(n)
            rows.append({"n": n, "formula": bound_ceiling, "computed": computed,
                         "match": 12 * computed >= n * n - 24})
    else:
        raise ValueError(f"unknown table {theorem!r}")
    return rows


def _cmd_table(args) -> int:
    rows = _table_rows(args.theorem, args.n_min, args.n_max)
    if args.format == "csv":
        print("n,formula,computed,match")
        for row in rows:
            print(f"{row['n']},{row['formula']},{row['computed']},{str(row['match']).lower()}")
    else:
        for row in rows:
            _emit({"schema": SCHEMA, "table": args.theorem, **row})
    return 0


def _cmd_convert(args) -> int:
    g = _read_graph(args.input)
    if args.to == "g6":
        print(graph6_encode(g))
    else:
        print(edge_list_encode(g), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="booklab",
        description="count, verify, construct, and search graphs avoiding books B(r,s)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count r-cliques of a graph")
    p.add_argument("--input", required=True, help="path, '-' for stdin, or a graph6 literal")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("free", help="check a graph against a forbidden family")
    p.add_argument("--input", required=True)
    p.add_argument("--forbid", required=True, help='family, e.g. "B(4,1),H1,K(5)"')
    p.set_defaults(func=_cmd_free)

    p = sub.add_parser("construct", help="emit a named construction plus a JSON sidecar")
    p.add_argument("--kind", required=True, choices=["book", "k4-packing", "partition", "b42"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--parts", help='partition for --kind partition, e.g. "3,1"')
    p.add_argument("--family", help="family to verify against (defaults per kind)")
    p.add_argument("--format", choices=["g6", "edges"], default="g6")
    p.add_argument("--out", help="write the graph here and the sidecar alongside")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("exact", help="exhaustive maximum r-clique count over free graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--forbid", default="", help="forbidden family; empty for none")
    p.add_argument("--engine", choices=["auto", "labeled", "canonical"], default="auto")
    p.add_argument("--max-seconds", type=float, default=None,
                   help="soft deadline; on expiry a partial report with exhaustive=false")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cap", type=int, default=None, help="override the engine vertex cap")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("climb", help="hill-climb the clique count by clone moves")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--forbid", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_climb)

    p = sub.add_parser("beta", help="max length of an s-sum-free partition of r")
    p.add_argument("r", type=int)
    p.add_argument("s", type=int)
    p.add_argument("--all", action="store_true", help="list every s-sum-free partition")
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("table", help="formula-versus-computed tables")
    p.add_argument("--theorem", required=True,
                   choices=["1.1", "2.1", "1.3-construction", "1.7-lower"])
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("convert", help="convert between graph6 and edge-list")
    p.add_argument("--input", required=True)
    p.add_argument("--to", required=True, choices=["g6", "edges"])
    p.set_defaults(func=_cmd_convert)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
