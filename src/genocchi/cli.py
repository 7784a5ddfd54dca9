"""Command line front end.

Subcommands: sequence, triangle, verify, seidel, at.  All values are
printed as exact rational strings ("p/q", or bare "p" for integers), never
as decimals.  Exit codes: 0 on success, 1 when an identity check fails,
2 on usage errors such as unknown names or labels.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from . import akiyama, connect, numbers, seidel
from .polyalg import basis_matrix
from .reports import IdentityReport, UnknownIdentityError
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
    if name in _MATRIX_BUILDERS:
        return _MATRIX_BUILDERS[name](rows)
    raise ValueError(f"unknown triangle {name!r}; valid names: {', '.join(TRIANGLE_NAMES)}")


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

Rows = Sequence[Sequence[Fraction]]


def _render_table(rows: Rows, marks: Optional[set] = None) -> str:
    cells = [
        [
            f"[{render_rational(x)}]" if marks and (i, j) in marks else render_rational(x)
            for j, x in enumerate(row)
        ]
        for i, row in enumerate(rows)
    ]
    widths: Dict[int, int] = {}
    for row in cells:
        for j, text in enumerate(row):
            widths[j] = max(widths.get(j, 0), len(text))
    return "\n".join(" ".join(text.rjust(widths[j]) for j, text in enumerate(row)) for row in cells)


def _render_csv(rows: Rows) -> str:
    return "\n".join(",".join(render_rational(x) for x in row) for row in rows)


def render_rows(rows: Rows, fmt: str, name: str, marks: Optional[set] = None) -> str:
    if fmt == "table":
        return _render_table(rows, marks)
    if fmt == "csv":
        return _render_csv(rows)
    return json.dumps(
        {
            "name": name,
            "order": len(rows),
            "rows": [[render_rational(x) for x in row] for row in rows],
        }
    )


def parse_triangle_csv(text: str) -> TriMatrix:
    rows = [[parse_rational(cell) for cell in line.split(",")] for line in text.splitlines() if line]
    return TriMatrix(rows)


def parse_triangle_json(text: str) -> TriMatrix:
    payload = json.loads(text)
    return TriMatrix([[parse_rational(cell) for cell in row] for row in payload["rows"]])


# ----------------------------------------------------------------------
# subcommand handlers


def _cmd_sequence(args) -> int:
    if args.name not in SEQUENCES:
        print(
            f"unknown sequence {args.name!r}; valid names: {', '.join(SEQUENCES)}",
            file=sys.stderr,
        )
        return 2
    values = SEQUENCES[args.name](args.count)
    rendered = [render_rational(v) for v in values]
    if args.format == "table":
        print(" ".join(rendered))
    elif args.format == "csv":
        print(",".join(rendered))
    else:
        print(json.dumps({"name": args.name, "count": args.count, "values": rendered}))
    return 0


def _cmd_triangle(args) -> int:
    try:
        tri = build_triangle(args.name, args.rows, args.kind)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_rows(tri.rows, args.format, args.name))
    return 0


def _cmd_verify(args) -> int:
    idents = list(CATALOG_ORDER) if args.ids == ["all"] else args.ids
    unknown = [i for i in idents if i not in CATALOG]
    if unknown:
        print(
            f"unknown identity {', '.join(unknown)}; valid labels: {', '.join(CATALOG_ORDER)}",
            file=sys.stderr,
        )
        return 2
    reports = [CATALOG[i](args.depth) for i in idents]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "depth": args.depth,
                    "results": [
                        {
                            "id": r.ident,
                            "pass": r.passed,
                            "counterexample": None
                            if r.passed
                            else {
                                "where": r.counterexample[0],
                                "lhs": r.counterexample[1],
                                "rhs": r.counterexample[2],
                            },
                        }
                        for r in reports
                    ],
                }
            )
        )
    elif args.format == "csv":
        for r in reports:
            tail = ("", "", "") if r.passed else r.counterexample
            print(",".join([r.ident, str(r.depth), "pass" if r.passed else "fail", *tail]))
    else:
        for r in reports:
            print(r.describe())
    return 0 if all(r.passed for r in reports) else 1


def _cmd_seidel(args) -> int:
    try:
        arr = seidel.seidel_array(args.variant, k=args.k, rows=args.rows)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    marks = {(2 * n, n) for n in range((args.rows + 1) // 2)}
    name = args.variant if arr.k is None else f"{args.variant}(k={arr.k})"
    print(render_rows(arr.rows, args.format, name, marks if args.format == "table" else None))
    return 0


def _cmd_at(args) -> int:
    try:
        weights = parse_weight_name(args.weights)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.seed not in SEEDS:
        print(f"unknown seed {args.seed!r}; valid seeds: {', '.join(SEEDS)}", file=sys.stderr)
        return 2
    try:
        matrix = akiyama.at_matrix(
            akiyama.ATSpec(weights, SEEDS[args.seed], rows=args.rows, cols=args.cols)
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(render_rows(matrix, args.format, f"at({weights.name},{args.seed})"))
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
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(handler=_cmd_sequence)

    p = sub.add_parser("triangle", help="print a triangle or named matrix")
    p.add_argument("name", help=f"one of: {', '.join(TRIANGLE_NAMES)}")
    p.add_argument("-n", "--rows", type=positive_int, default=8)
    p.add_argument("--kind", choices=("second", "first"), default="second",
                   help="triangle kind for weight presets; ignored for named matrices")
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(handler=_cmd_triangle)

    p = sub.add_parser("verify", help="run identity checks from the catalog")
    p.add_argument("ids", nargs="+", help='catalog labels, or "all"')
    p.add_argument("--depth", type=positive_int, default=12)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("seidel", help="print a boustrophedon difference array")
    p.add_argument("variant", help=f"one of: {', '.join(seidel.VARIANTS)}")
    p.add_argument("-k", type=non_negative_int, default=0,
                   help="column parameter (ignored by genocchi)")
    p.add_argument("-n", "--rows", type=positive_int, default=10)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(handler=_cmd_seidel)

    p = sub.add_parser("at", help="run the row-difference-and-scale engine")
    p.add_argument("--weights", default="stirling-shift",
                   help="weight preset name, with optional -shifted suffixes")
    p.add_argument("--seed", default="harmonic", help=f"one of: {', '.join(SEEDS)}")
    p.add_argument("--rows", type=positive_int, default=6)
    p.add_argument("--cols", type=positive_int, default=6)
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(handler=_cmd_at)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except UnknownIdentityError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
