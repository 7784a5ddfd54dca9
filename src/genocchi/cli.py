"""Command line front end.

Subcommands: sequence, triangle, verify, seidel, at.  All values are
printed as exact rational strings ("p/q", or bare "p" for integers), never
as decimals, and written a line at a time.  Exit codes: 0 on success, 1 when
an identity check fails or stdout closes early, 2 on usage errors such as
unknown names or labels (one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial
from itertools import zip_longest
from typing import Callable, Collection, Dict, List, Mapping, Optional, Sequence

from . import akiyama, connect, numbers, seidel
from .polyalg import basis_matrix
from .reports import IdentityReport
from .stirling import PRESETS, preset, shift_weight, stirling1, stirling2
from .trimat import TriMatrix

FORMATS = ("table", "csv", "json")


def render_rational(x: Fraction | int) -> str:
    return str(Fraction(x))


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


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

SEQUENCES: Dict[str, Callable[[int], List[Fraction]]] = {
    "bernoulli": lambda n: [numbers.bernoulli(i) for i in range(n)],
    "bernoulli-b": lambda n: [numbers.bernoulli_b(i) for i in range(n)],
    "genocchi": lambda n: [Fraction(numbers.genocchi(i)) for i in range(1, n + 1)],
    "genocchi-signed": lambda n: [numbers.genocchi_signed(i) for i in range(1, n + 1)],
    "tangent": lambda n: [Fraction(numbers.tangent(i)) for i in range(n)],
    "median-genocchi": lambda n: [Fraction(numbers.median_genocchi(i)) for i in range(n)],
}


# ----------------------------------------------------------------------
# triangles

_MATRIX_BUILDERS: Dict[str, Callable[[int], TriMatrix]] = {
    "genocchi-matrix": connect.genocchi_matrix,
    "genocchi-matrix-squared": connect.genocchi_matrix_squared,
    "genocchi-matrix-inverse": connect.genocchi_matrix_inverse,
    "tangent-matrix": connect.tangent_matrix,
    "tangent-matrix-inverse": connect.tangent_matrix_inverse,
    "a1": connect.a1_matrix,
    "a2": connect.a2_matrix,
    "z": connect.z_matrix,
    "c-matrix": connect.c_matrix,
    "c-matrix-inverse": connect.c_matrix_inverse,
    "pascal": connect.pascal_matrix,
    "pascal-plus": connect.pascal_plus_matrix,
    "choose-even": connect.choose_even_matrix,
    "choose-odd": connect.choose_odd_matrix,
    "f-odd": lambda n: basis_matrix("F_odd", n),
    "f-even": lambda n: basis_matrix("F_even", n),
    "l-even": lambda n: basis_matrix("L_even", n),
    "l-odd": lambda n: basis_matrix("L_odd", n),
}

TRIANGLE_NAMES = tuple(PRESETS) + tuple(_MATRIX_BUILDERS)


def build_triangle(name: str, rows: int, kind: str) -> TriMatrix:
    if name in PRESETS:
        builder = stirling2 if kind == "second" else stirling1
        return builder(PRESETS[name], rows)
    (build,) = _lookup(_MATRIX_BUILDERS, [name], "triangle", "names", TRIANGLE_NAMES)
    return build(rows)


# ----------------------------------------------------------------------
# identity catalog

CATALOG: Dict[str, Callable[[int], IdentityReport]] = {
    label: partial(connect.verify, label) for label in connect.CATALOG
}
CATALOG_ORDER: tuple = tuple(CATALOG)


# ----------------------------------------------------------------------
# seeds for the at subcommand

SEEDS: Dict[str, Callable[[int], Fraction]] = {
    "harmonic": lambda j: Fraction(1, j + 1),
    "linear": lambda j: Fraction(j + 1),
    "squares": lambda j: Fraction((j + 1) ** 2),
    "ones": lambda j: Fraction(1),
}


def parse_weight_name(name: str):
    """Resolve a preset name with optional -shifted suffixes."""
    base = name
    shifts = 0
    while base.endswith("-shifted"):
        base = base[: -len("-shifted")]
        shifts += 1
    spec = preset(base)
    for _ in range(shifts):
        spec = shift_weight(spec)
    return spec


# ----------------------------------------------------------------------
# rendering

Rows = Sequence[Sequence[Fraction | int]]


def _dump_json(payload) -> None:
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
            "rows": [[render_rational(x) for x in row] for row in rows],
        })
    elif fmt == "csv":
        for row in rows:
            print(",".join(map(render_rational, row)))
    else:
        cells = [[f"[{render_rational(x)}]" if marks and (i, j) in marks else render_rational(x)
                  for j, x in enumerate(row)] for i, row in enumerate(rows)]
        widths = [max(map(len, column)) for column in zip_longest(*cells, fillvalue="")]
        for row in cells:
            print(" ".join(text.rjust(width) for text, width in zip(row, widths)))


def parse_triangle_csv(text: str) -> TriMatrix:
    rows = [[parse_rational(cell) for cell in line.split(",")] for line in text.splitlines() if line]
    return TriMatrix(rows)


def parse_triangle_json(text: str) -> TriMatrix:
    payload = json.loads(text)
    return TriMatrix([[parse_rational(cell) for cell in row] for row in payload["rows"]])


# ----------------------------------------------------------------------
# subcommand handlers


def _cmd_sequence(args) -> int:
    (sequence,) = _lookup(SEQUENCES, [args.name], "sequence", "names")
    values = sequence(args.count)
    if args.format == "json":
        _dump_json({"name": args.name, "count": args.count,
                    "values": [render_rational(v) for v in values]})
    else:
        render_rows([values], args.format, args.name)
    return 0


def _cmd_triangle(args) -> int:
    render_rows(build_triangle(args.name, args.rows, args.kind).rows, args.format, args.name)
    return 0


def _cmd_verify(args) -> int:
    idents = CATALOG_ORDER if args.ids == ["all"] else args.ids
    checks = _lookup(CATALOG, idents, "identity", "labels", show=str)
    reports = [check(args.depth) for check in checks]
    if args.format == "json":
        _dump_json({"depth": args.depth, "results": [
            {"id": r.ident, "pass": r.passed, "counterexample":
             None if r.passed else dict(zip(("where", "lhs", "rhs"), r.counterexample))}
            for r in reports
        ]})
    else:
        for r in reports:
            tail = ("", "", "") if r.passed else r.counterexample
            print(r.describe() if args.format == "table"
                  else ",".join([r.ident, str(r.depth), "pass" if r.passed else "fail", *tail]))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_seidel(args) -> int:
    arr = seidel.seidel_array(args.variant, k=args.k, rows=args.rows)
    marks = {(2 * n, n) for n in range((args.rows + 1) // 2)}
    name = args.variant if arr.k is None else f"{args.variant}(k={arr.k})"
    render_rows(arr.rows, args.format, name, marks)
    return 0


def _cmd_at(args) -> int:
    weights = parse_weight_name(args.weights)
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
    p.add_argument("--kind", choices=("second", "first"), default="second",
                   help="triangle kind for weight presets; ignored for named matrices")
    p.set_defaults(handler=_cmd_triangle)

    p = sub.add_parser("verify", help="run identity checks from the catalog")
    p.add_argument("ids", nargs="+", help='catalog labels, or "all"')
    p.add_argument("--depth", type=positive_int, default=12)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("seidel", help="print a boustrophedon difference array")
    p.add_argument("variant", help=f"one of: {', '.join(seidel.VARIANTS)}")
    p.add_argument("-k", type=non_negative_int, default=0,
                   help="column parameter (ignored by genocchi)")
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


if __name__ == "__main__":
    sys.exit(main())
