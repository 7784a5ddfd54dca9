"""Operation lists for the benchmark workloads, and the output gate for each.

Every list is a sequence of *decks*, and a run executes whole decks.  A
deck has the same composition under every seed: each family appears with
a fixed multiset of names and sizes.  The seed picks output formats, the
``at`` seeds and extents, and the order of the operations; the parameters
that change an operation's cost most (triangle sizes and the Seidel column)
rotate with the deck index instead.  That keeps the work in a run, and so
the metrics, comparable across seeds while the seed still changes the
inputs.  Sizes come from fixed grids so that every operation a seed can
produce has an output digest recorded in ``digests.json``.

This module does not import the program: the expected labels, weights and
seeds below are written out independently, so the gate does not trust the
code it checks.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

FORMATS = ("table", "csv", "json")

# ----------------------------------------------------------------------
# catalog: the north-star command.  It has no free inputs, so the seed is
# only recorded.

CATALOG_DEPTH = 48
CATALOG_ARGV = ("verify", "all", "--depth", str(CATALOG_DEPTH), "--format", "json")
CATALOG_LABELS = (
    "2.1", "2.2", "2.3", "2.4", "2.15/2.16-inverse",
    "3.9", "3.10", "3.11", "3.12", "3.13", "3.14", "3.15", "3.16", "3.17",
    "3.18", "3.19", "3.20", "3.21", "3.22", "3.23", "3.24", "3.25", "3.26", "3.27",
    "4.6", "4.11", "4.12", "4.13", "4.14", "4.15", "4.16", "4.17", "4.21",
    "4.40", "4.42", "4.43", "4.46", "4.48", "4.49", "4.50",
    "5.7", "5.8", "5.9", "5.10",
    "6.6", "6.7", "6.8", "6.9", "6.10", "6.11", "6.12", "6.13", "6.14", "6.15",
    "6.16", "6.17",
)

# ----------------------------------------------------------------------
# the tables workload's operation space

WEIGHTS = {
    "stirling": lambda n: n,
    "stirling-shift": lambda n: n + 1,
    "central-factorial": lambda n: n * n,
    "legendre-stirling": lambda n: n * (n + 1),
    "u-half-odd": lambda n: Fraction((2 * n + 1) ** 2, 4),
    "v-product-quarter": lambda n: Fraction((2 * n - 1) * (2 * n + 1), 4),
}
MATRICES = (
    "genocchi-matrix", "genocchi-matrix-squared", "genocchi-matrix-inverse",
    "tangent-matrix", "tangent-matrix-inverse", "a1", "a2", "z", "c-matrix",
    "c-matrix-inverse", "pascal", "pascal-plus", "choose-even", "choose-odd",
    "f-odd", "f-even", "l-even", "l-odd",
)
KINDS = ("second", "first")
SEQUENCES = (
    "bernoulli", "bernoulli-b", "genocchi", "genocchi-signed", "tangent", "median-genocchi",
)
SEIDEL_VARIANTS = ("ls-from-T", "v-from-U", "genocchi")
SEIDEL_KS = tuple(range(6))
AT_SEEDS = {
    "harmonic": lambda j: Fraction(1, j + 1),
    "linear": lambda j: j + 1,
    "squares": lambda j: (j + 1) ** 2,
    "ones": lambda j: 1,
}
# Up to two -shifted suffixes; a weight that is zero at 0 stops the engine,
# so those presets only appear shifted.
AT_WEIGHTS = tuple(
    name + "-shifted" * shifts
    for name, w in WEIGHTS.items()
    for shifts in range(3)
    if shifts or w(0) != 0
)

TRIANGLE_ROWS = (40, 60, 80, 100, 120)
SEQUENCE_COUNTS = (20, 35, 50, 65, 80)
SEIDEL_ROWS = (100, 150, 200, 250, 300)
AT_EXTENTS = (40, 60, 80)

# ----------------------------------------------------------------------
# the session workload's operation space (library calls in one process)

SESSION_DEPTHS = (8, 18, 28, 38, 48)
SESSION_ORDERS = (8, 32, 56, 80)
SESSION_COUNTS = (1, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80)

# Enough decks that a run of 60 s does not reach the end of its list even
# when the program gets several times faster.
DECKS = {"catalog": 1000, "tables": 50, "session": 60}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def op_key(op: dict) -> str:
    """Digest key of an operation: its argv, or its library call."""
    return " ".join(op["argv"]) if "argv" in op else " ".join(str(x) for x in op["call"])


def _balanced(rng: random.Random, values, count: int) -> list:
    """`count` values cycling through `values`, in shuffled order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _weight_for(name: str):
    base, shifts = name, 0
    while base.endswith("-shifted"):
        base, shifts = base[: -len("-shifted")], shifts + 1
    w = WEIGHTS[base]
    return lambda n: w(n + shifts)


def _tables_deck(rng: random.Random, index: int) -> list[dict]:
    deck = []
    combos = [(name, kind) for name in WEIGHTS for kind in KINDS] + [(m, None) for m in MATRICES]
    # Triangle sizes rotate with the deck index, not the seed: the costs of
    # the named builders differ by an order of magnitude, and a seeded pairing
    # would move the tail from seed to seed.
    levels = [TRIANGLE_ROWS[(i + index) % len(TRIANGLE_ROWS)] for i in range(len(combos))]
    for (name, kind), rows, fmt in zip(combos, levels, _balanced(rng, FORMATS, len(combos))):
        argv = ["triangle", name, "-n", str(rows)] + (["--kind", kind] if kind else [])
        deck.append({"family": "triangle", "name": name, "kind": kind, "argv": argv + ["--format", fmt]})
    seqs = [(name, count) for name in SEQUENCES for count in SEQUENCE_COUNTS]
    for (name, count), fmt in zip(seqs, _balanced(rng, FORMATS, len(seqs))):
        deck.append({"family": "sequence", "argv": ["sequence", name, "-n", str(count), "--format", fmt]})
    # Every array size in every format: the largest outputs set the peak
    # memory of a run, so each deck holds all of them.  The column parameter
    # changes the cost of the large arrays, so it rotates like the triangle
    # sizes instead of being drawn.
    arrays = [(v, r, f) for v in SEIDEL_VARIANTS for r in SEIDEL_ROWS for f in FORMATS]
    for i, (variant, rows, fmt) in enumerate(arrays):
        k = None if variant == "genocchi" else SEIDEL_KS[(i + index) % len(SEIDEL_KS)]
        argv = ["seidel", variant] + ([] if k is None else ["-k", str(k)])
        deck.append({"family": "seidel", "argv": argv + ["-n", str(rows), "--format", fmt]})
    n = len(AT_WEIGHTS)
    for weights, seed, rows, cols, fmt in zip(
        AT_WEIGHTS,
        _balanced(rng, tuple(AT_SEEDS), n),
        _balanced(rng, AT_EXTENTS, n),
        _balanced(rng, AT_EXTENTS, n),
        _balanced(rng, FORMATS, n),
    ):
        argv = ["at", "--weights", weights, "--seed", seed, "--rows", str(rows), "--cols", str(cols)]
        deck.append({"family": "at", "weights": weights, "seed": seed, "argv": argv + ["--format", fmt]})
    rng.shuffle(deck)
    return deck


def _session_deck(rng: random.Random, index: int) -> list[dict]:
    deck = [{"call": ["verify", label, depth]} for label in CATALOG_LABELS for depth in SESSION_DEPTHS]
    combos = [(name, kind) for name in WEIGHTS for kind in KINDS] + [(m, "second") for m in MATRICES]
    deck += [{"call": ["triangle", name, order, kind]} for name, kind in combos for order in SESSION_ORDERS]
    deck += [{"call": ["sequence", name, count]} for name in SEQUENCES for count in SESSION_COUNTS]
    rng.shuffle(deck)
    return deck


def decks(workload: str, seed: int):
    """Yield the decks of a workload in order; the same seed gives the same decks."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog":
        deck = lambda rng, index: [{"family": "catalog", "argv": list(CATALOG_ARGV)}]  # noqa: E731
    else:
        deck = _tables_deck if workload == "tables" else _session_deck
    for index in range(DECKS[workload]):
        yield deck(rng, index)


def ops_digest(decks: list[list[dict]]) -> str:
    return digest(json.dumps(decks, sort_keys=True).encode())


def tables_space() -> list[dict]:
    """Every operation a tables deck can hold, for recording digests."""
    ops = []
    for fmt in FORMATS:
        for name in WEIGHTS:
            for kind in KINDS:
                for rows in TRIANGLE_ROWS:
                    ops.append({"argv": ["triangle", name, "-n", str(rows), "--kind", kind, "--format", fmt]})
        for name in MATRICES:
            for rows in TRIANGLE_ROWS:
                ops.append({"argv": ["triangle", name, "-n", str(rows), "--format", fmt]})
        for name in SEQUENCES:
            for count in SEQUENCE_COUNTS:
                ops.append({"argv": ["sequence", name, "-n", str(count), "--format", fmt]})
        for variant in SEIDEL_VARIANTS:
            for k in [None] if variant == "genocchi" else SEIDEL_KS:
                for rows in SEIDEL_ROWS:
                    kargs = [] if k is None else ["-k", str(k)]
                    ops.append({"argv": ["seidel", variant, *kargs, "-n", str(rows), "--format", fmt]})
        for weights in AT_WEIGHTS:
            for seed in AT_SEEDS:
                for rows in AT_EXTENTS:
                    for cols in AT_EXTENTS:
                        ops.append({"argv": ["at", "--weights", weights, "--seed", seed,
                                             "--rows", str(rows), "--cols", str(cols), "--format", fmt]})
    return ops


def session_bytes(call, result) -> bytes:
    """The bytes digested for the result of a session triangle or sequence call."""
    rows = result.rows if call[0] == "triangle" else [result]
    return "\n".join(",".join(str(x) for x in row) for row in rows).encode()


def session_space() -> list[dict]:
    """Every triangle and sequence call a session deck can hold."""
    deck = _session_deck(random.Random(0), 0)
    return sorted((op for op in deck if op["call"][0] != "verify"), key=op_key)


# ----------------------------------------------------------------------
# the output gate.  Each check returns None when the output is right, or a
# one-line reason; it never raises, so a wrong output counts as a failed
# operation instead of stopping the run.


def check_catalog(code: int, out: bytes, labels=CATALOG_LABELS) -> str | None:
    if code != 0:
        return f"exit {code}"
    try:
        payload = json.loads(out)
        results = payload["results"]
        got = [r["id"] for r in results]
        if payload["depth"] != CATALOG_DEPTH:
            return f"depth {payload['depth']}"
        if got != list(labels):
            return f"labels differ: {got[:3]}..."
        bad = [r["id"] for r in results if r["pass"] is not True or r["counterexample"] is not None]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable output: {exc!r}"
    return f"failing labels {bad}" if bad else None


def _number(text: str):
    return Fraction(text) if "/" in text else int(text)


def _cells(text: str, fmt: str) -> list[list[str]]:
    if fmt == "json":
        return json.loads(text)["rows"]
    sep = "," if fmt == "csv" else None
    return [line.split(sep) for line in text.splitlines()]


def _row(cells, i: int) -> list:
    return [_number(c.strip("[]")) for c in cells[i]]


def _checked_rows(count: int) -> list[int]:
    """Rows whose rule is recomputed, each against the row above it.

    Six rows spread over the output, every cell of each; the digest already
    pins every byte, so this is an independent check of the values, not a
    second copy of it.
    """
    return sorted({i for i in (1, 2, count // 3, count // 2, 2 * count // 3, count - 1) if i >= 1})


def _check_weight_recurrence(cells, name: str, kind: str) -> str | None:
    if [len(r) for r in cells] != list(range(1, len(cells) + 1)):
        return "rows are not triangular"
    if _row(cells, 0) != [1]:
        return "row 0 is not [1]"
    w = WEIGHTS[name]
    for n in _checked_rows(len(cells)):
        prev, row = _row(cells, n - 1), _row(cells, n)
        for k in range(n + 1):
            above = prev[k] if k < n else 0
            left = prev[k - 1] if k else 0
            want = left + w(k) * above if kind == "second" else left - w(n - 1) * above
            if row[k] != want:
                return f"recurrence fails at ({n},{k})"
    return None


def _check_seidel_rule(cells) -> str | None:
    if [len(r) for r in cells] != [i // 2 + 1 for i in range(len(cells))]:
        return "row widths are not floor(i/2)+1"
    for i in _checked_rows(len(cells)):
        prev, row = _row(cells, i - 1), _row(cells, i)
        for j in range(1, len(row)):
            if row[j] != row[j - 1] - prev[j - 1]:
                return f"cell rule fails at ({i},{j})"
    return None


def _check_engine_rule(cells, weights: str, seed: str) -> str | None:
    w, s = _weight_for(weights), AT_SEEDS[seed]
    if _row(cells, 0) != [s(j) for j in range(len(cells[0]))]:
        return "top row is not the seed"
    for i in _checked_rows(len(cells)):
        prev, row = _row(cells, i - 1), _row(cells, i)
        for j in range(len(row) - 1):
            if row[j] != w(j) * (prev[j] - prev[j + 1]):
                return f"engine rule fails at ({i},{j})"
    return None


def check_table(op: dict, code: int, out: bytes, digests: dict) -> str | None:
    if code != 0:
        return f"exit {code}"
    want = digests.get(op_key(op))
    if want is None:
        return "no recorded digest"
    if digest(out) != want:
        return "output bytes differ from the recorded digest"
    family = op["family"]
    if family == "sequence" or (family == "triangle" and op["kind"] is None):
        return None
    try:
        cells = _cells(out.decode(), op["argv"][-1])
        if family == "triangle":
            return _check_weight_recurrence(cells, op["name"], op["kind"])
        if family == "seidel":
            return _check_seidel_rule(cells)
        return _check_engine_rule(cells, op["weights"], op["seed"])
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unparsable output: {exc!r}"
