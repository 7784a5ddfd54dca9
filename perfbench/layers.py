"""Per-layer metrics from the span files of a traced run.

A layer metric groups spans by name.  ``calls`` counts the spans of the
named callables; ``self_s`` is span time minus the time of direct child
spans; ``cells``, ``entries`` and ``madds`` are computed from the recorded
sizes (matrix orders or cell counts), not measured.  Every value is given
per traced operation, so runs of different length compare.
"""

from __future__ import annotations

import shim

BUILDERS = (
    "genocchi_matrix", "genocchi_matrix_squared", "genocchi_matrix_inverse",
    "tangent_matrix", "tangent_matrix_inverse", "tangent_matrix_inverse_printed",
    "a1_matrix", "a2_matrix", "z_matrix", "c_matrix", "c_matrix_inverse",
    "pascal_matrix", "pascal_plus_matrix", "choose_even_matrix", "choose_odd_matrix",
)
# metric prefix -> (spans counted as calls, spans whose self time counts,
#                   name of the computed work metric or None)
GROUPS = {
    "trimat.mul": (["trimat.TriMatrix.mul"], None, "madds"),
    "trimat.inverse": (["trimat.TriMatrix.inverse"], None, "madds"),
    "trimat.build": (["trimat.TriMatrix.__init__"], None, "entries"),
    "trimat.eq": (["trimat.TriMatrix.__eq__"], None, None),
    "stirling.stirling2": (["stirling.stirling2"], None, "cells"),
    "stirling.stirling1": (["stirling.stirling1"], None, "cells"),
    # __rmul__ only turns scalar*Poly around into Poly*scalar, which is a
    # __mul__ span of its own; it adds self time but no call.
    "polyalg.poly_mul": (["polyalg.Poly.__mul__"], ["polyalg.Poly.__mul__", "polyalg.Poly.__rmul__"], None),
    "polyalg.poly_add": (["polyalg.Poly.__add__"], None, None),
    "polyalg.fib_lucas": (["polyalg.fib_poly", "polyalg.lucas_poly"], None, None),
    "polyalg.basis_matrix": (["polyalg.basis_matrix"], None, None),
    "numbers.bernoulli": (["numbers.bernoulli"], None, None),
    "numbers.genocchi": (["numbers.genocchi"], None, None),
    "numbers.tangent": (["numbers.tangent"], None, None),
    "numbers.median_genocchi": (["numbers.median_genocchi"], None, None),
    "connect.verify_factorization": (["connect.verify_factorization"], None, None),
    "connect.verify_connection": (["connect.verify_connection"], None, None),
    "connect.builders": ([f"connect.{b}" for b in BUILDERS], None, None),
    "akiyama.verify_sum_identity": (["akiyama.verify_sum_identity"], None, None),
    "akiyama.at_matrix": (["akiyama.at_matrix"], None, "cells"),
    "seidel.seidel_array": (["seidel.seidel_array"], None, "cells"),
    "seidel.checks": (["seidel.seidel_identity_check", "seidel.kaneko_check"], None, None),
    "cli.render_rows": (["cli.render_rows"], None, None),
    "cli.main": (["cli.main"], None, None),
}


def _triangle(n: int) -> int:
    return n * (n + 1) // 2


# span -> work of one call, from the size the span recorded
WORK = {
    "trimat.TriMatrix.mul": lambda n: n * (n + 1) * (n + 2) // 6,
    "trimat.TriMatrix.inverse": lambda n: (n - 1) * n * (n + 1) // 6,
    "trimat.TriMatrix.__init__": _triangle,
    "stirling.stirling2": _triangle,
    "stirling.stirling1": _triangle,
    "akiyama.at_matrix": int,
    "seidel.seidel_array": int,
}
WORK_UNITS = {"madds": "madds/op", "entries": "entries/op", "cells": "cells/op"}
# Groups that report only their self time.
SELF_ONLY = ("seidel.checks", "cli.main")
HIT_RATIO = ("numbers.bernoulli", "numbers.median_genocchi")
VERIFY_KINDS = ("factorization", "connection", "summation")


def metric_units() -> dict:
    """Every per-layer metric name, with its unit."""
    units = {}
    for prefix, (_, _, work) in GROUPS.items():
        if prefix not in SELF_ONLY:
            units[f"{prefix}.calls"] = "calls/op"
        units[f"{prefix}.self_s"] = "s/op"
        if work:
            units[f"{prefix}.{work}"] = WORK_UNITS[work]
        if prefix in HIT_RATIO:
            units[f"{prefix}.hit_ratio"] = "ratio"
    units["numbers.median_genocchi.inverse_calls"] = "calls/op"
    units["cli.output_bytes"] = "bytes/op"
    for kind in VERIFY_KINDS:
        units[f"cli.verify.{kind}_s"] = "s/op"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Totals:
    """Sums over the span files of one run."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.inclusive: dict[str, float] = {}
        self.work: dict[str, int] = {}
        self.hits: dict[str, int] = {}
        self.inverse_under_median = 0

    def add_file(self, path) -> None:
        """Add one process's spans; hit ratios restart with each process."""
        cols = shim.load(path)
        names, nid, parent = cols["names"], cols["name_id"], cols["parent"]
        start, end, size = cols["start"], cols["end"], cols["size"]
        n = len(nid)
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        per_name_calls = [0] * len(names)
        per_name_self = [0.0] * len(names)
        per_name_incl = [0.0] * len(names)
        for i in range(n):
            k = nid[i]
            per_name_calls[k] += 1
            per_name_self[k] += dur[i] - child[i]
            per_name_incl[k] += dur[i]
        for k, name in enumerate(names):
            self.calls[name] = self.calls.get(name, 0) + per_name_calls[k]
            self.self_s[name] = self.self_s.get(name, 0.0) + per_name_self[k]
            self.inclusive[name] = self.inclusive.get(name, 0.0) + per_name_incl[k]
        reached = {name: -1 for name in HIT_RATIO}
        median_ids = {k for k, name in enumerate(names) if name == "numbers.median_genocchi"}
        for i in range(n):
            name = names[nid[i]]
            if name in WORK:
                self.work[name] = self.work.get(name, 0) + WORK[name](size[i])
            if name in reached:
                if size[i] <= reached[name]:
                    self.hits[name] = self.hits.get(name, 0) + 1
                else:
                    reached[name] = size[i]
            elif name == "trimat.TriMatrix.inverse" and parent[i] >= 0 and nid[parent[i]] in median_ids:
                self.inverse_under_median += 1

    def metrics(self, ops: int, output_bytes: int, overhead_ratio: float) -> dict:
        units = metric_units()
        values = {}
        for prefix, (call_spans, self_spans, work) in GROUPS.items():
            calls = sum(self.calls.get(s, 0) for s in call_spans)
            if prefix not in SELF_ONLY:
                values[f"{prefix}.calls"] = calls / ops
            values[f"{prefix}.self_s"] = sum(self.self_s.get(s, 0.0) for s in self_spans or call_spans) / ops
            if work:
                values[f"{prefix}.{work}"] = sum(self.work.get(s, 0) for s in call_spans) / ops
            if prefix in HIT_RATIO:
                values[f"{prefix}.hit_ratio"] = self.hits.get(prefix, 0) / calls if calls else 0.0
        values["numbers.median_genocchi.inverse_calls"] = self.inverse_under_median / ops
        values["cli.output_bytes"] = output_bytes / ops
        for kind in VERIFY_KINDS:
            total = sum(t for name, t in self.inclusive.items() if name.startswith(f"cli.verify.{kind}:"))
            values[f"cli.verify.{kind}_s"] = total / ops
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
