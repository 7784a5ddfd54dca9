import contextlib
import csv
import hashlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
import genocchi
from genocchi import cli, connect, numbers, polyalg, seidel
from genocchi.akiyama import ATSpec
from genocchi.reports import IdentityReport
from genocchi.seidel import SeidelArray
from genocchi.stirling import WeightSpec
from genocchi.trimat import TriMatrix


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")


# ----------------------------------------------------------------------
# rational encoding


def rendered(rows, fmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.render_rows(rows, fmt, "t")
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_render_rows_int_or_integral_fraction(fmt):
    as_int = [[1, Fraction(-691, 2730), Fraction(35, 2)]]
    as_fraction = [[Fraction(1), Fraction(-691, 2730), Fraction(35, 2)]]
    assert rendered(as_int, fmt) == rendered(as_fraction, fmt)
    assert rendered([[Fraction(6, 3), 2]], fmt) == rendered([[2, 2]], fmt)
    expected = {
        "table": "1 -691/2730 35/2\n",
        "csv": "1,-691/2730,35/2\n",
        "json": '{"name": "t", "order": 1, "rows": [["1", "-691/2730", "35/2"]]}\n',
    }
    assert rendered(as_int, fmt) == expected[fmt]


@settings(max_examples=100, deadline=None)
@given(st.fractions(max_denominator=10**6))
def test_triangle_text_round_trip(x):
    assert cli.parse_triangle_csv(rendered([[x]], "csv")).rows == ((x,),)
    assert cli.parse_triangle_json(rendered([[x]], "json")).rows == ((x,),)


# ----------------------------------------------------------------------
# sequence subcommand


def test_sequence_genocchi_table(capsys):
    code, out, _ = run(capsys, "sequence", "genocchi", "-n", "8")
    assert code == 0
    assert out == "1 1 3 17 155 2073 38227 929569"


def test_sequence_bernoulli_csv(capsys):
    code, out, _ = run(capsys, "sequence", "bernoulli", "-n", "1", "--format", "csv")
    assert code == 0
    assert out == "1"


def test_sequence_median_genocchi(capsys):
    code, out, _ = run(capsys, "sequence", "median-genocchi", "-n", "6")
    assert code == 0
    assert out == "1 1 2 8 56 608"


def test_sequences_yield_exact_values():
    integral = {"genocchi", "genocchi-signed", "tangent", "median-genocchi"}
    for name, values in cli.SEQUENCES.items():
        got = values(12)
        assert len(got) == 12, name
        assert all(type(x) in (int, Fraction) for x in got), name
        assert name not in integral or all(type(x) is int for x in got), name


def test_sequence_json(capsys):
    code, out, _ = run(capsys, "sequence", "bernoulli", "-n", "13", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "bernoulli"
    assert payload["count"] == 13
    assert payload["values"][12] == "-691/2730"


def test_sequence_unknown_name(capsys):
    code, _, err = run(capsys, "sequence", "nope")
    assert code == 2
    assert "unknown sequence" in err


# ----------------------------------------------------------------------
# triangle subcommand


def test_triangle_central_factorial_csv(capsys):
    code, out, _ = run(
        capsys, "triangle", "central-factorial", "-n", "7", "--format", "csv"
    )
    assert code == 0
    assert cli.parse_triangle_csv(out).rows == golden.CENTRAL_T_7


def test_triangle_first_kind(capsys):
    code, out, _ = run(
        capsys,
        "triangle",
        "legendre-stirling",
        "-n",
        "7",
        "--kind",
        "first",
        "--format",
        "csv",
    )
    assert code == 0
    assert cli.parse_triangle_csv(out).rows == golden.LEGENDRE_ls_7


def test_named_matrix_takes_the_second_kind_only(capsys):
    # --kind second, as the default, is accepted; --kind first is a usage error.
    second = run(capsys, "triangle", "z", "-n", "4", "--kind", "second")
    assert second == run(capsys, "triangle", "z", "-n", "4") and second[0] == 0
    assert run(capsys, "triangle", "z", "-n", "4", "--kind", "first")[:2] == (2, "")


@pytest.mark.parametrize("name", ["stirling", "pascal"])
def test_build_triangle_rejects_an_unknown_kind(name):
    # argparse limits --kind to these two; a library caller is held to them too
    with pytest.raises(ValueError, match=r"^unknown kind 'third'; valid kinds: second, first$"):
        cli.build_triangle(name, 4, "third")


def test_triangle_genocchi_matrix_table(capsys):
    code, out, _ = run(capsys, "triangle", "genocchi-matrix", "-n", "5")
    assert code == 0
    lines = [line.split() for line in out.splitlines()]
    assert [[Fraction(x) for x in row] for row in lines] == [list(r) for r in golden.A_5]


def test_triangle_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "triangle", "tangent-matrix", "-n", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "tangent-matrix"
    assert payload["order"] == 5
    assert cli.parse_triangle_json(out).rows == golden.B_5


def test_triangle_json_numbers_are_read_exactly():
    # a JSON number is read as the decimal it spells, not as the nearest float
    m = cli.parse_triangle_json('{"rows": [[1], [0.1, 2.5e-1], [3, -1.75, 2.0]]}')
    assert m.rows == ((1,), (Fraction(1, 10), Fraction(1, 4)), (3, Fraction(-7, 4), 2))


def test_triangle_json_booleans_are_rejected():
    # true and false are not numbers, so they are not read as 1 and 0
    with pytest.raises(TypeError):
        cli.parse_triangle_json('{"rows": [[true], [false, 1]]}')


def test_triangle_unknown_name(capsys):
    code, _, err = run(capsys, "triangle", "nope")
    assert code == 2
    assert "unknown triangle" in err


def test_triangle_names_cover_contract():
    for name in (
        "stirling",
        "stirling-shift",
        "central-factorial",
        "legendre-stirling",
        "u-half-odd",
        "v-product-quarter",
        "genocchi-matrix",
        "genocchi-matrix-squared",
        "genocchi-matrix-inverse",
        "tangent-matrix",
        "tangent-matrix-inverse",
        "a1",
        "a2",
        "z",
        "c-matrix",
        "c-matrix-inverse",
        "f-odd",
        "f-even",
        "l-even",
        "l-odd",
    ):
        assert name in cli.TRIANGLE_NAMES


# ----------------------------------------------------------------------
# verify subcommand


def test_verify_single_identity(capsys):
    code, out, _ = run(capsys, "verify", "4.16", "--depth", "10")
    assert code == 0
    assert out == "4.16: pass (depth 10)"


def test_verify_several(capsys):
    code, out, _ = run(capsys, "verify", "3.9", "5.10", "6.11", "--depth", "8")
    assert code == 0
    assert out.splitlines() == [
        "3.9: pass (depth 8)",
        "5.10: pass (depth 8)",
        "6.11: pass (depth 8)",
    ]


def test_verify_all_small_depth(capsys):
    code, out, _ = run(capsys, "verify", "all", "--depth", "6")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(tuple(cli.CATALOG))
    assert all(": pass" in line for line in lines)


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "9.99")
    assert code == 2
    assert "9.99" in err
    assert "3.9" in err  # lists the valid labels


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "2.1", "4.48", "--format", "json", "--depth", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["depth"] == 9
    assert [r["id"] for r in payload["results"]] == ["2.1", "4.48"]
    assert all(r["pass"] for r in payload["results"])


def test_verify_failure_exit_code(monkeypatch, capsys):
    failing = IdentityReport("0.0", 3, False, ("n=2", "5", "7"))
    monkeypatch.setitem(cli.CATALOG, "0.0", lambda depth, table=None: failing)
    code, out, _ = run(capsys, "verify", "0.0")
    assert code == 1
    assert "FAIL at n=2" in out


def test_verify_csv_quotes_where(monkeypatch, capsys):
    wheres = {"0.1": "entry (4,0)", "0.2": "n=3,k=1"}
    for label, where in wheres.items():
        failing = IdentityReport(label, 6, False, (where, "87/10", "-3/10"))
        monkeypatch.setitem(cli.CATALOG, label, lambda depth, table=None, r=failing: r)
    code, out, _ = run(capsys, "verify", "2.1", "0.1", "0.2", "6.11", "--depth", "6",
                       "--format", "csv")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "2.1,6,pass,,," and lines[3] == "6.11,6,pass,,,"
    assert lines[1] == '0.1,6,fail,"entry (4,0)",87/10,-3/10'
    parsed = list(csv.reader(lines))
    assert all(len(fields) == 6 for fields in parsed)
    assert [fields[3] for fields in parsed] == ["", "entry (4,0)", "n=3,k=1", ""]
    assert parsed[2] == ["0.2", "6", "fail", "n=3,k=1", "87/10", "-3/10"]


# sha256 of the complete `verify all` output.  These were recorded before
# the catalog sides became expressions, and any change to how the catalog
# is built or shared must leave the output byte for byte as it was.
VERIFY_ALL_SHA256 = {
    (1, "table"): "f411e8667eea43d56c4c42ee7b91d4d4c1f89554d5eb14340796152e8a5f2211",
    (1, "csv"): "7d138d901be8338e4c2a6147c7224e37b3be7b8467b05be22a1e3bfe7c84a3a5",
    (1, "json"): "f6e5ebff02d063a1c517a9d3cae57520aa29a1819ce2f0284c36962386157de1",
    (12, "table"): "dd7a3ca2e565599f1b6712e97c1ccab5b0053a780c8c7a8591e32b111621388e",
    (12, "csv"): "d49f33cc50afa1515ec6a8178f05372e7915b7b5beccee7c6a1a8667aab8ce9a",
    (12, "json"): "2d020e61433bcdaf231323df0934d4ecde3cb012f204e7d8fe640b2576ec7649",
}


@pytest.mark.parametrize("depth, fmt", list(VERIFY_ALL_SHA256))
def test_verify_all_output_is_pinned(capsys, depth, fmt):
    assert cli.main(["verify", "all", "--depth", str(depth), "--format", fmt]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == VERIFY_ALL_SHA256[depth, fmt]


def _label_key(ident):
    major, minor = ident.split("/")[0].split(".")
    return (int(major), int(minor), ident)


def test_catalog_order_is_stable():
    assert tuple(cli.CATALOG) == tuple(sorted(tuple(cli.CATALOG), key=_label_key))
    assert tuple(cli.CATALOG)[0] == "2.1"
    assert tuple(cli.CATALOG)[-1] == "6.17"
    assert "2.15/2.16-inverse" in tuple(cli.CATALOG)


# ----------------------------------------------------------------------
# seidel subcommand


def test_seidel_genocchi_csv(capsys):
    code, out, _ = run(capsys, "seidel", "genocchi", "-n", "10", "--format", "csv")
    assert code == 0
    rows = tuple(
        tuple(Fraction(cell) for cell in line.split(",")) for line in out.splitlines()
    )
    assert rows == golden.SEIDEL_GENOCCHI_10


def test_seidel_table_marks_diagonal(capsys):
    # The settled value h(2n, n) of every even row is bracketed, the last at row 8.
    code, out, _ = run(capsys, "seidel", "ls-from-T", "-k", "2", "-n", "9")
    assert code == 0
    assert out == (
        "[0]\n"
        "  0\n"
        "  0 [0]\n"
        "  0   0\n"
        "  1   1 [1]\n"
        "  3   2   1\n"
        " 14  11   9 [8]\n"
        " 42  28  17   8\n"
        "147 105  77  60 [52]"
    )


def test_seidel_bad_variant(capsys):
    code, _, err = run(capsys, "seidel", "nope")
    assert code == 2
    assert "unknown variant" in err


# ----------------------------------------------------------------------
# at subcommand


def test_at_matches_golden(capsys):
    code, out, _ = run(
        capsys,
        "at",
        "--weights",
        "central-factorial-shifted",
        "--seed",
        "linear",
        "--rows",
        "6",
        "--cols",
        "6",
        "--format",
        "csv",
    )
    assert code == 0
    rows = tuple(
        tuple(Fraction(cell) for cell in line.split(",")) for line in out.splitlines()
    )
    assert rows == golden.AT_SQUARES_LINEAR_6


def test_at_seeds_are_pinned():
    assert {name: [seed(j) for j in range(5)] for name, seed in cli.SEEDS.items()} == {
        "harmonic": [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)],
        "linear": [1, 2, 3, 4, 5],
        "squares": [1, 4, 9, 16, 25],
        "ones": [1, 1, 1, 1, 1],
    }


def test_at_bad_weights(capsys):
    code, _, err = run(capsys, "at", "--weights", "nope")
    assert code == 2
    assert "unknown weight preset" in err


def test_at_bad_seed(capsys):
    code, _, err = run(capsys, "at", "--seed", "nope")
    assert code == 2
    assert "unknown seed" in err


def test_at_zero_weight_rejected(capsys):
    code, _, err = run(capsys, "at", "--weights", "central-factorial")
    assert code == 2
    assert "zero weight" in err


# ----------------------------------------------------------------------
# argparse-level usage errors


def test_usage_error_exit_code(capsys):
    assert cli.main(["triangle", "central-factorial", "--format", "nope"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["verify", "all", "--depth", "0"], "--depth"),
        (["verify", "2.1", "--depth", "-5"], "--depth"),
        (["verify", "6.8", "--depth", "0"], "--depth"),
        (["sequence", "genocchi", "-n", "-3"], "-n/--count"),
        (["triangle", "central-factorial", "-n", "0"], "-n/--rows"),
        (["seidel", "genocchi", "-n", "0"], "-n/--rows"),
        (["seidel", "ls-from-T", "-k", "-1"], "-k"),
        (["at", "--rows", "0"], "--rows"),
        (["at", "--cols", "-2"], "--cols"),
        (["verify", "all", "--depth", "two"], "--depth"),
    ],
)
def test_bad_extent_is_a_usage_error(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {name}:" in err
    assert "Traceback" not in err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


# ----------------------------------------------------------------------
# one usage-error path, one output path


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sequence", "nope"],
         f"unknown sequence 'nope'; valid names: {', '.join(cli.SEQUENCES)}"),
        (["triangle", "nope", "--format", "json"],
         f"unknown triangle 'nope'; valid names: {', '.join(cli.TRIANGLE_NAMES)}"),
        (["verify", "9.99", "2.1", "8.8"],
         f"unknown identity 9.99, 8.8; valid labels: {', '.join(tuple(cli.CATALOG))}"),
        (["seidel", "nope", "--format", "csv"],
         "unknown variant 'nope'; valid variants: ls-from-T, v-from-U, genocchi"),
        (["at", "--weights", "nope-shifted", "--seed", "nope"],
         "unknown weight preset 'nope'; valid presets: stirling, stirling-shift, "
         "central-factorial, legendre-stirling, u-half-odd, v-product-quarter"),
        (["at", "--seed", "nope"],
         "unknown seed 'nope'; valid seeds: harmonic, linear, squares, ones"),
        (["at", "--weights", "central-factorial"], "zero weight w(0) encountered"),
        (["triangle", "a1", "--kind", "first"],
         "--kind first applies to weight presets only, not to 'a1'"),
        (["seidel", "genocchi", "-k", "5", "--format", "json"],
         "the genocchi variant takes no column parameter, got k=5"),
    ],
)
def test_usage_error_is_one_stderr_line(capsys, argv, message):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", message + "\n")


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_large_output_is_written_in_pieces(monkeypatch, fmt):
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["seidel", "genocchi", "-n", "300", "--format", fmt]) == 0
    assert out.writes >= 300
    text = out.getvalue()
    if fmt == "json":
        assert len(json.loads(text)["rows"]) == 300
    else:
        assert len(text.splitlines()) == 300


def test_closed_stdout_exits_one_without_traceback():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen(
        [sys.executable, "-m", "genocchi", "seidel", "genocchi", "-n", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        # The table is 10 MB, far more than a pipe holds, so the writer is
        # still writing when the reader goes away.
        assert len(proc.stdout.read(50)) == 50
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # -S keeps site from importing modules on the package's behalf
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, genocchi.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")



def _bumped(build):
    """build with the first entry of its last row raised by one."""

    def bumped(*args):
        rows = [list(row) for row in build(*args).rows]
        rows[-1][0] += 1
        return TriMatrix(rows)

    return bumped


def _method_code(attr):
    """The code behind a method, class or static method or property, if any."""
    f = getattr(attr, "__func__", None) or getattr(attr, "fget", None) or attr
    return getattr(f, "__code__", None)


def test_every_public_function_is_run_by_the_cli_or_exported(monkeypatch):
    # A public module-level function that no subcommand runs and genocchi
    # does not export serves only the tests, which keep such oracles
    # themselves.  The two triangle readers stay: they are documented as
    # readers of the CLI's own csv and json output.
    argvs = [["verify", "all", "--depth", "2"], ["at"]]
    argvs += [["triangle", name, "-n", "3", "--kind", "second"] for name in cli.TRIANGLE_NAMES]
    argvs += [["triangle", name, "-n", "3", "--kind", "first"] for name in genocchi.PRESETS]
    argvs += [["sequence", name, "-n", "3"] for name in cli.SEQUENCES]
    argvs += [["seidel", variant, "-n", "3"] + ([] if variant == "genocchi" else ["-k", "1"])
              for variant in seidel.VARIANTS]
    # Start from the caches of a fresh process, so that the code that fills
    # them is seen to run whichever tests ran before this one.
    for module, cache, fresh in ((polyalg, "_fib", 2), (polyalg, "_lucas", 2),
                                 (numbers, "_bernoulli", 1), (numbers, "_genocchi", 0),
                                 (numbers, "_medians", 0)):
        monkeypatch.setattr(module, cache, getattr(module, cache)[:fresh])
    monkeypatch.setattr(connect, "_KEPT", {})
    run_codes = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and run_codes.add(frame.f_code))
    try:
        assert [cli.main(argv) for argv in argvs] == [0] * len(argvs)
        # A failing run: a bumped stirling2 fails the matrix label 3.9 and a
        # bumped basis_matrix the polynomial label 2.1, so the FAIL path runs.
        for name in ("stirling2", "basis_matrix"):
            monkeypatch.setattr(connect, name, _bumped(getattr(connect, name)))
        assert cli.main(["verify", "2.1", "3.9", "--depth", "2"]) == 1
    finally:
        sys.setprofile(None)
    modules = [importlib.import_module(f"genocchi.{info.name}")
               for info in pkgutil.iter_modules(genocchi.__path__) if info.name != "__main__"]
    unreached = {
        f"{module.__name__.removeprefix('genocchi.')}.{name}"
        for module in modules for name, f in vars(module).items()
        if inspect.isfunction(f) and f.__module__ == module.__name__ and not name.startswith("_")
        and name not in genocchi.__all__ and f.__code__ not in run_codes
    }
    assert unreached == {"cli.parse_triangle_csv", "cli.parse_triangle_json"}

    # Methods too, on the classes genocchi exports.  The methods NamedTuple
    # generates are left out: their code is not in the package.
    package = os.path.dirname(genocchi.__file__)
    classes = [cls for cls in map(vars(genocchi).get, genocchi.__all__) if inspect.isclass(cls)]
    unreached = {
        f"{cls.__name__}.{name}"
        for cls in classes for name, attr in vars(cls).items()
        if (code := _method_code(attr)) is not None and code.co_filename.startswith(package)
        and code not in run_codes
    }
    # Kept though no subcommand runs them.  The tests use Poly arithmetic,
    # truncate, monomial and eval as reference routes (the Stirling row and
    # generating-function expansions, the Binet oracle), and perfbench/shim.py
    # looks up Poly.__mul__/__rmul__ and TriMatrix.inverse by name.  __hash__
    # goes with __eq__ and __repr__ with debugging.  The two errors reach
    # library callers only: no matrix the CLI solves has a zero pivot, and the
    # CLI rejects an unknown label itself, before connect.verify would.
    assert unreached == {
        *(f"Poly.{name}" for name in (
            "zero", "one", "monomial", "degree", "eval", "__call__", "truncate", "__sub__",
            "__neg__", "__mul__", "__rmul__", "__repr__", "__hash__")),
        *(f"TriMatrix.{name}" for name in ("column", "inverse", "__repr__", "__hash__")),
        "SingularMatrixError.__init__",
        "UnknownIdentityError.__init__",
    }

_RECORDS = [
    (IdentityReport("2.1", 3, True), "passed"),
    (WeightSpec("w", abs), "w"),
    (ATSpec(WeightSpec("w", abs), abs, rows=1, cols=1), "rows"),
    (SeidelArray("genocchi", None, ((1,),)), "rows"),
]


@pytest.mark.parametrize("record, field", _RECORDS, ids=lambda x: type(x).__name__)
def test_records_reject_field_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_identity_report_repr():
    assert repr(IdentityReport("4.43", 9, False, ("n=2", "5", "7"))) == (
        "IdentityReport(ident='4.43', depth=9, passed=False, counterexample=('n=2', '5', '7'))"
    )
    assert repr(IdentityReport("2.1", 3, True)) == (
        "IdentityReport(ident='2.1', depth=3, passed=True, counterexample=None)"
    )


_NAMES = st.sampled_from(["nope", "", "all", "Genocchi", "stirling-shifted"])
_FORMATS = st.sampled_from(cli.FORMATS)
_EXTENT = st.integers(1, 12).map(str)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["sequence", "triangle", "verify", "seidel", "at"]))
    if command == "sequence":
        argv = [command, draw(st.sampled_from(list(cli.SEQUENCES)) | _NAMES), "-n", draw(_EXTENT)]
    elif command == "triangle":
        argv = [command, draw(st.sampled_from(cli.TRIANGLE_NAMES) | _NAMES), "-n", draw(_EXTENT),
                "--kind", draw(st.sampled_from(["second", "first"]))]
    elif command == "verify":
        labels = st.sampled_from(tuple(cli.CATALOG)) | _NAMES
        argv = [command, *draw(st.lists(labels, min_size=1, max_size=3)),
                "--depth", draw(st.integers(1, 6).map(str))]
    elif command == "seidel":
        argv = [command, draw(st.sampled_from(["ls-from-T", "v-from-U", "genocchi"]) | _NAMES),
                "-k", draw(st.integers(0, 12).map(str)), "-n", draw(_EXTENT)]
    else:
        weights = st.sampled_from(["stirling", "central-factorial", "u-half-odd", "v-product-quarter"])
        # "--weights=..." keeps a name like "-shifted" from reading as an option
        argv = [command, "--weights=" + draw(weights | _NAMES) + "-shifted" * draw(st.integers(0, 2)),
                "--seed", draw(st.sampled_from(list(cli.SEEDS)) | _NAMES),
                "--rows", draw(_EXTENT), "--cols", draw(_EXTENT)]
    return argv + ["--format", draw(_FORMATS)]


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
    else:
        assert err.getvalue() == ""
