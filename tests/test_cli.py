import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from genocchi import cli
from genocchi.reports import IdentityReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")


# ----------------------------------------------------------------------
# rational encoding


def test_render_rational():
    assert cli.render_rational(Fraction(1)) == "1"
    assert cli.render_rational(Fraction(-691, 2730)) == "-691/2730"
    assert cli.render_rational(Fraction(35, 2)) == "35/2"


@settings(max_examples=100, deadline=None)
@given(st.fractions(max_denominator=10**6))
def test_rational_round_trip(x):
    assert cli.parse_rational(cli.render_rational(x)) == x


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


def test_sequences_yield_fractions():
    for name, values in cli.SEQUENCES.items():
        got = values(5)
        assert len(got) == 5 and all(type(x) is Fraction for x in got), name


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
    assert len(lines) == len(cli.CATALOG_ORDER)
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
    monkeypatch.setitem(cli.CATALOG, "0.0", lambda depth: failing)
    code, out, _ = run(capsys, "verify", "0.0")
    assert code == 1
    assert "FAIL at n=2" in out


def _label_key(ident):
    major, minor = ident.split("/")[0].split(".")
    return (int(major), int(minor), ident)


def test_catalog_order_is_stable():
    assert cli.CATALOG_ORDER == tuple(sorted(cli.CATALOG_ORDER, key=_label_key))
    assert cli.CATALOG_ORDER[0] == "2.1"
    assert cli.CATALOG_ORDER[-1] == "6.17"
    assert "2.15/2.16-inverse" in cli.CATALOG_ORDER


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
    code, out, _ = run(capsys, "seidel", "ls-from-T", "-k", "2", "-n", "9")
    assert code == 0
    assert "[52]" in out


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
