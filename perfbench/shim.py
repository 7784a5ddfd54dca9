"""Span recorder wrapped around the program's public callables.

``install`` replaces each public function and the layer-relevant methods
of ``TriMatrix`` and ``Poly`` with a wrapper that records one span per
call: name, start, end, parent span, operation id and a size (a matrix
order, a sequence index or a cell count, whichever the layer metrics need).
Every binding site is replaced, not only the defining module: names
imported into other modules (``connect.stirling2``, ``cli.stirling2``, ...),
the re-exports in ``genocchi/__init__``, values of module-level dicts such
as ``cli._MATRIX_BUILDERS``, and class aliases such as
``TriMatrix.__matmul__``.  Each ``cli.CATALOG`` entry gets one more span
per label, named ``cli.verify.<kind>:<label>``.

Spans are kept in flat arrays and written out by ``dump``; nothing is
written while the program runs.  Only the benchmark imports this module.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import time

MODULES = ("numbers", "polyalg", "trimat", "stirling", "connect", "seidel", "akiyama", "cli")

# Methods that carry layer work.  Accessors such as __getitem__ are left
# alone: a span would cost more than the lookup it measures.
METHODS = {
    "trimat.TriMatrix": ("__init__", "mul", "inverse", "__eq__"),
    "polyalg.Poly": ("__add__", "__mul__", "__rmul__"),
}
# Formatting helpers run once per printed cell; their time stays in the
# self time of render_rows.
SKIP = {"cli.render_rational", "cli.parse_rational"}


def _order_of_self(args, result):
    return args[0].order


def _order_of_result(args, result):
    return result.order


def _first_arg(args, result):
    return args[0]


def _seidel_cells(args, result):
    return sum(len(row) for row in result.rows)


def _engine_cells(args, result):
    spec = args[0]
    return sum(spec.rows + spec.cols - i for i in range(spec.rows))


SIZES = {
    "trimat.TriMatrix.__init__": _order_of_self,
    "trimat.TriMatrix.mul": _order_of_self,
    "trimat.TriMatrix.inverse": _order_of_self,
    "stirling.stirling2": _order_of_result,
    "stirling.stirling1": _order_of_result,
    "numbers.bernoulli": _first_arg,
    "numbers.median_genocchi": _first_arg,
    "seidel.seidel_array": _seidel_cells,
    "akiyama.at_matrix": _engine_cells,
}


class Recorder:
    """In-memory span store."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.size = array.array("q")
        self.stack = [-1]
        self.op_id = 0

    def wrap(self, fn, span: str, size=None):
        nid = len(self.names)
        self.names.append(span)
        name_id, parent, op, start, end, sizes = (
            self.name_id, self.parent, self.op, self.start, self.end, self.size
        )
        stack, clock, rec = self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(rec.op_id)
            sizes.append(0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if size is not None:
                sizes[idx] = size(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        header = {"names": self.names, "count": len(self.name_id)}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.op, self.start, self.end, self.size):
                arr.tofile(f)


def load(path) -> dict:
    """Read a span file written by ``Recorder.dump``."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["count"]
        cols = {}
        for key, code in (("name_id", "i"), ("parent", "i"), ("op", "i"),
                          ("start", "d"), ("end", "d"), ("size", "q")):
            cols[key] = array.array(code)
            cols[key].fromfile(f, n)
    cols["names"] = header["names"]
    return cols


def install(rec: Recorder):
    """Wrap the program's callables in place; returns the ``genocchi.cli`` module."""
    package = importlib.import_module("genocchi")
    mods = {name: importlib.import_module(f"genocchi.{name}") for name in MODULES}
    wrappers = {}  # id(original) -> wrapper

    def add(fn, span):
        if id(fn) not in wrappers:
            wrappers[id(fn)] = rec.wrap(fn, span, SIZES.get(span))
        return wrappers[id(fn)]

    for short, mod in mods.items():
        for name, obj in vars(mod).items():
            span = f"{short}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and span not in SKIP):
                add(obj, span)
    for qual, methods in METHODS.items():
        short, cls_name = qual.split(".")
        cls = getattr(mods[short], cls_name)
        originals = {m: vars(cls)[m] for m in methods}
        for name, fn in list(vars(cls).items()):
            for m, orig in originals.items():
                if fn is orig:
                    setattr(cls, name, add(orig, f"{qual}.{m}"))

    for mod in [package, *mods.values()]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, name, wrappers[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if id(value) in wrappers:
                        obj[key] = wrappers[id(value)]

    cli, connect = mods["cli"], mods["connect"]
    for label, check in list(cli.CATALOG.items()):
        if label in connect.FACTORIZATION_IDS:
            kind = "factorization"
        elif label in connect.CONNECTION_IDS:
            kind = "connection"
        else:
            kind = "summation"
        cli.CATALOG[label] = rec.wrap(check, f"cli.verify.{kind}:{label}")
    return cli
