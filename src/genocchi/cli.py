"""Command line front end.

Subcommands: sequence, triangle, verify, seidel, at.  All values are
printed as exact rational strings ("p/q", or bare "p" for integers), never
as decimals, and written a line at a time.  Exit codes: 0 on success, 1 when
an identity check fails or stdout closes early, 2 on usage errors such as
unknown names or labels (one line on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import partial
from itertools import zip_longest
from typing import Callable, Collection, Dict, List, Mapping, Optional, Sequence

from . import akiyama, connect, numbers, seidel
from .reports import IdentityReport
from .stirling import PRESETS, preset
from .trimat import TriMatrix

FORMATS = ("table", "csv", "json")


def positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _lookup(table: Mapping, names: Sequence[str], what: str, valid: str,
            listing: Optional[Sequence[str]] = None, show: Callable = repr) -> list:
    """The entries of `table` for `names`, or a ValueError naming every unknown one."""
    unknown = [show(name) for name in names if name not in table]
    if unknown:
        raise ValueError(
            f"unknown {what} {', '.join(unknown)}; valid {valid}: {', '.join(listing or table)}"
        )
    return [table[name] for name in names]


# ----------------------------------------------------------------------
# sequences

SEQUENCES: Dict[str, Callable[[int], List[Fraction | int]]] = {
    "bernoulli": lambda n: [numbers.bernoulli(i) for i in range(n)],
    "bernoulli-b": lambda n: [numbers.bernoulli_b(i) for i in range(n)],
    "genocchi": lambda n: [numbers.genocchi(i) for i in range(1, n + 1)],
    "genocchi-signed": lambda n: [numbers.genocchi_signed(i) for i in range(1, n + 1)],
    "tangent": lambda n: [numbers.tangent(i) for i in range(n)],
    "median-genocchi": lambda n: [numbers.median_genocchi(i) for i in range(n)],
}


# ----------------------------------------------------------------------
# triangles

TRIANGLE_NAMES = tuple(PRESETS) + tuple(connect.MATRICES)
KINDS = {"second": "stirling2", "first": "stirling1"}


def build_triangle(name: str, rows: int, kind: str) -> TriMatrix:
    (builder,) = _lookup(KINDS, [kind], "kind", "kinds")
    if name in PRESETS:
        return connect.evaluate(connect._Side(builder, (name,)), rows)
    (side,) = _lookup(connect.MATRICES, [name], "triangle", "names", TRIANGLE_NAMES)
    if kind != "second":
        raise ValueError(f"--kind {kind} applies to weight presets only, not to {name!r}")
    return connect.evaluate(side, rows)


# ----------------------------------------------------------------------
# identity catalog

CATALOG: Dict[str, Callable[..., IdentityReport]] = {
    label: partial(connect.verify, label) for label in connect.CATALOG
}


# ----------------------------------------------------------------------
# seeds for the at subcommand

SEEDS: Dict[str, Callable[[int], Fraction | int]] = {
    "harmonic": lambda j: Fraction(1, j + 1),
    "linear": lambda j: j + 1,
    "squares": lambda j: (j + 1) ** 2,
    "ones": lambda j: 1,
}


# ----------------------------------------------------------------------
# rendering

Rows = Sequence[Sequence[Fraction | int]]


def _dump_json(payload) -> None:
    import json  # json and csv load only for the formats that print through them

    json.dump(payload, sys.stdout)
    print()


def render_rows(rows: Rows, fmt: str, name: str, marks: Collection = ()) -> None:
    """Write rows to stdout, one line per row (table, csv) or one JSON object.

    A table right-aligns each column to its widest cell and brackets the
    cells at the (i, j) positions in `marks`; csv and JSON ignore marks.
    """
    if fmt == "json":
        _dump_json({
            "name": name,
            "order": len(rows),
            "rows": [list(map(str, row)) for row in rows],
        })
    elif fmt == "csv":
        for row in rows:
            print(",".join(map(str, row)))
    else:
        cells = [[f"[{x}]" if marks and (i, j) in marks else str(x)
                  for j, x in enumerate(row)] for i, row in enumerate(rows)]
        widths = [max(map(len, column)) for column in zip_longest(*cells, fillvalue="")]
        for row in cells:
            print(" ".join(text.rjust(width) for text, width in zip(row, widths)))


def parse_triangle_csv(text: str) -> TriMatrix:
    return TriMatrix([map(Fraction, line.split(",")) for line in text.splitlines() if line])


def parse_triangle_json(text: str) -> TriMatrix:
    import json

    rows = json.loads(text, parse_float=Fraction)["rows"]
    return TriMatrix([[Fraction(x) if type(x) is str else x for x in row] for row in rows])


# ----------------------------------------------------------------------
# subcommand handlers


def _cmd_sequence(args) -> int:
    (sequence,) = _lookup(SEQUENCES, [args.name], "sequence", "names")
    values = sequence(args.count)
    if args.format == "json":
        _dump_json({"name": args.name, "count": args.count,
                    "values": list(map(str, values))})
    else:
        render_rows([values], args.format, args.name)
    return 0


def _cmd_triangle(args) -> int:
    render_rows(build_triangle(args.name, args.rows, args.kind).cells(), args.format, args.name)
    return 0


def _cmd_verify(args) -> int:
    idents = list(CATALOG) if args.ids == ["all"] else args.ids
    checks = _lookup(CATALOG, idents, "identity", "labels", show=str)
    table = connect.shared_builds(idents, args.depth)
    reports = [check(args.depth, table) for check in checks]
    if args.format == "json":
        _dump_json({"depth": args.depth, "results": [
            {"id": r.ident, "pass": r.passed, "counterexample":
             None if r.passed else dict(zip(("where", "lhs", "rhs"), r.counterexample))}
            for r in reports
        ]})
    elif args.format == "csv":
        import csv

        csv.writer(sys.stdout, lineterminator="\n").writerows(
            [r.ident, r.depth, "pass" if r.passed else "fail", *(r.counterexample or ("",) * 3)]
            for r in reports)
    else:
        print("\n".join(r.describe() for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_seidel(args) -> int:
    arr = seidel.seidel_array(args.variant, k=args.k, rows=args.rows)
    marks = {(2 * n, n) for n in range((args.rows + 1) // 2)}
    name = args.variant if arr.k is None else f"{args.variant}(k={arr.k})"
    render_rows(arr.rows, args.format, name, marks)
    return 0


def _cmd_at(args) -> int:
    weights = preset(args.weights)
    (seed,) = _lookup(SEEDS, [args.seed], "seed", "seeds")
    matrix = akiyama.at_matrix(akiyama.ATSpec(weights, seed, rows=args.rows, cols=args.cols))
    render_rows(matrix, args.format, f"at({weights.name},{args.seed})")
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genocchi",
        description="Exact integer-sequence, triangle and identity-catalog toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sequence", help="print the first terms of a sequence")
    p.add_argument("name", help=f"one of: {', '.join(SEQUENCES)}")
    p.add_argument("-n", "--count", type=positive_int, default=10)
    p.set_defaults(handler=_cmd_sequence)

    p = sub.add_parser("triangle", help="print a triangle or named matrix")
    p.add_argument("name", help=f"one of: {', '.join(TRIANGLE_NAMES)}")
    p.add_argument("-n", "--rows", type=positive_int, default=8)
    p.add_argument("--kind", choices=tuple(KINDS), default="second",
                   help="triangle kind for weight presets; named matrices take second only")
    p.set_defaults(handler=_cmd_triangle)

    p = sub.add_parser("verify", help="run identity checks from the catalog")
    p.add_argument("ids", nargs="+", help='catalog labels, or "all"')
    p.add_argument("--depth", type=positive_int, default=12)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("seidel", help="print a boustrophedon difference array")
    p.add_argument("variant", help=f"one of: {', '.join(seidel.VARIANTS)}")
    p.add_argument("-k", type=non_negative_int, default=0,
                   help="seed column of ls-from-T and v-from-U; genocchi takes 0 only")
    p.add_argument("-n", "--rows", type=positive_int, default=10)
    p.set_defaults(handler=_cmd_seidel)

    p = sub.add_parser("at", help="run the row-difference-and-scale engine")
    p.add_argument("--weights", default="stirling-shift",
                   help="weight preset name, with optional -shifted suffixes")
    p.add_argument("--seed", default="harmonic", help=f"one of: {', '.join(SEEDS)}")
    p.add_argument("--rows", type=positive_int, default=6)
    p.add_argument("--cols", type=positive_int, default=6)
    p.set_defaults(handler=_cmd_at)

    for p in sub.choices.values():
        p.add_argument("--format", choices=FORMATS, default="table")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.handler(args)
        sys.stdout.flush()
    except ValueError as exc:  # any usage error past argparse, raised before output
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Per the signal module docs: the flush at exit then goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code
