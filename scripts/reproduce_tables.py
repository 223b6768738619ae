#!/usr/bin/env python3
"""Regenerate the formula-versus-computed tables and write them as CSV.

Each table compares a closed form against either an exhaustive search
(small n) or a construction count, through the same code paths as
`booklab table`.
"""

import argparse
import contextlib
import io
import pathlib
import sys

from booklab.cli import main as booklab_main

TABLES = [
    ("1.1", 1, 8),
    ("2.1", 4, 8),
    ("1.3-construction", 5, 40),
    ("1.7-lower", 6, 120),
]


def run(out_dir: pathlib.Path | None) -> int:
    for name, n_min, n_max in TABLES:
        argv = [
            "table",
            "--theorem",
            name,
            "--n-min",
            str(n_min),
            "--n-max",
            str(n_max),
            "--format",
            "csv",
        ]
        if out_dir is None:
            print(f"# table {name}")
            code = booklab_main(argv)
        else:
            target = out_dir / f"table_{name.replace('.', '_')}.csv"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = booklab_main(argv)
            target.write_text(buf.getvalue())
            print(f"wrote {target}")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=pathlib.Path, default=None,
                    help="write CSV files here instead of stdout")
    args = ap.parse_args()
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
    sys.exit(run(args.out_dir))
