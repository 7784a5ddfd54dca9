"""Mutation sweep: make one small change to the package at a time and run tier-1 on it.

    python tests/mutation_sweep.py MODULE [MODULE ...] [--function REGEX] [--jobs N]

MODULE is a module of the package, such as ``genocchi.connect``.  Each
mutant changes one operator or literal of one function whose qualified name
(``_kept``, ``_Table.get``) matches REGEX in full: ``+``/``-``, ``*``/``//``,
``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``is``/``is not``,
``in``/``not in``, ``and``/``or``, a dropped ``not``, and 1 added to an
integer literal of size at most 4.  The change is made in the source text,
so every other line stays as written.

Each of N workers copies ``src``, ``tests`` and ``pyproject.toml`` into a
temporary directory and runs ``pytest -x -q`` there on one mutant at a
time, with the mutated package first on ``PYTHONPATH`` and bytecode caching
off.  A mutant is killed when the run fails or takes longer than
TIMEOUT_S.  The survivors are written to standard output, one a line as
``path:line: function: change: mutated line``; a count goes to standard
error.

The file is not a test module, so tier-1 does not collect it.  It uses the
standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterator, List, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300.0  # a tier-1 run takes about 8 s; a mutant that hangs is killed

# ast operator class -> (its token, the token of its replacement)
SWAPS = {
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
    ast.Mult: ("*", "//"), ast.FloorDiv: ("//", "*"),
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
    ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
    ast.And: ("and", "or"), ast.Or: ("or", "and"),
}


class Mutant(NamedTuple):
    path: Path
    line: int
    function: str
    change: str
    start: int  # offsets into the module's source text
    end: int
    text: str  # what replaces source[start:end]


def _offsets(source: str) -> List[int]:
    """The offset of the start of each line, by 1-based line number."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _functions(tree: ast.Module) -> Iterator[tuple]:
    """(qualified name, node) of each top-level function and method; nested ones count as theirs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def mutants(path: Path, pattern: str) -> Iterator[Mutant]:
    """Every mutant of the functions of the file whose qualified name matches pattern."""
    source = path.read_text()
    starts = _offsets(source)

    def at(node, end=False):
        return starts[node.end_lineno if end else node.lineno] + (
            node.end_col_offset if end else node.col_offset)

    def swap(name, op, left, right):
        # the operator's token lies between its two operands, among spaces and parentheses
        token, other = SWAPS[type(op)]
        begin, stop = at(left, end=True), at(right)
        found = re.search(r"(?<![\w<>=!*/])" + re.escape(token).replace(r"\ ", r"\s+")
                          + r"(?![\w<>=*/])", source[begin:stop])
        if found:
            yield Mutant(path, left.end_lineno, name, f"{token} -> {other}",
                         begin + found.start(), begin + found.end(), other)

    for name, function in _functions(ast.parse(source)):
        if not re.fullmatch(pattern, name):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
                yield from swap(name, node.op, node.left, node.right)
            elif isinstance(node, ast.Compare):
                for op, left, right in zip(node.ops, [node.left, *node.comparators], node.comparators):
                    if type(op) in SWAPS:
                        yield from swap(name, op, left, right)
            elif isinstance(node, ast.BoolOp):
                yield from swap(name, node.op, node.values[0], node.values[1])
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                yield Mutant(path, node.lineno, name, "drop not", at(node), at(node.operand), "")
            elif (isinstance(node, ast.Constant) and type(node.value) is int
                  and abs(node.value) <= 4):
                yield Mutant(path, node.lineno, name, f"{node.value} -> {node.value + 1}",
                             at(node), at(node, end=True), str(node.value + 1))


def _module_path(module: str) -> Path:
    path = ROOT / "src" / Path(*module.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def _mutated_line(mutant: Mutant) -> str:
    source = mutant.path.read_text()
    text = source[:mutant.start] + mutant.text + source[mutant.end:]
    return text.splitlines()[mutant.line - 1].strip()


def _copy(work: Path) -> Path:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, work / part,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
    return work


def _run(mutant: Mutant, work: Path) -> bool:
    """Whether tier-1 passes on the mutant: True means it survived."""
    target = work / mutant.path.relative_to(ROOT)
    original = target.read_text()
    target.write_text(original[:mutant.start] + mutant.text + original[mutant.end:])
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                              cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        return done.returncode == 0
    except subprocess.TimeoutExpired:
        return False
    finally:
        target.write_text(original)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="package modules, such as genocchi.connect")
    parser.add_argument("--function", default=".*",
                        help="regex over qualified function names, matched in full")
    parser.add_argument("--jobs", type=int, default=1, choices=(1, 2, 3, 4))
    args = parser.parse_args(argv)

    found = [m for module in args.modules for m in mutants(_module_path(module), args.function)]
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as base:
        works = [_copy(Path(base, f"worker{i}")) for i in range(args.jobs)]
        with ThreadPoolExecutor(args.jobs) as pool:
            # worker i takes mutants i, i + jobs, ..., so no two runs share a copy
            lanes = [pool.submit(lambda i: [_run(m, works[i]) for m in found[i::args.jobs]], i)
                     for i in range(args.jobs)]
            lived = [None] * len(found)
            for i, lane in enumerate(lanes):
                lived[i::args.jobs] = lane.result()
    survivors = [f"{m.path.relative_to(ROOT)}:{m.line}: {m.function}: {m.change}: {_mutated_line(m)}"
                 for m, alive in zip(found, lived) if alive]
    print(f"{len(found)} mutants, {len(found) - len(survivors)} killed, "
          f"{len(survivors)} survived", file=sys.stderr)
    sys.stdout.write("".join(line + "\n" for line in survivors))
    return 0


if __name__ == "__main__":
    sys.exit(main())
