"""Tests for the expression language and the command line front end."""

import contextlib
import io
import json
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from motzkin.cli import run_command
from motzkin.expression import (
    Add,
    Adj,
    Expect,
    Gen,
    Mul,
    Num,
    Sub,
    evaluate,
    evaluate_operator,
    parse_expression,
    pretty,
)
from motzkin import cli, expression, fock, representation
from motzkin.diagram_core import adjoint, embed, generator, identity
from motzkin.errors import ParameterError, ParseError, StructureError
from motzkin.jones_wenzl import jones_wenzl
from motzkin.representation import MotzkinPair, build_example_pair, evaluate_element

QUARTER = Fraction(1, 4)


def _refuse_to_build(*args):
    raise AssertionError("built past a refusal")

# Expressions already in canonical form: parsing and printing must give
# them back verbatim.
CORPUS = [
    "t1",
    "l1",
    "r1",
    "p1",
    "p2",
    "id",
    "g",
    "g1",
    "g2",
    "2",
    "1/3",
    "3/4",
    "t1'",
    "l2'",
    "t1''",
    "(t1*l1)'",
    "(t1 + t2)'",
    "t1^2",
    "t1^0",
    "l1^3",
    "t1'^2",
    "t1^2'",
    "E(p2)^2",
    "t1*t1",
    "t1*l1*r1",
    "t1*(l1*r1)",
    "2*t1",
    "1/2*t1",
    "t1 + t2",
    "t1 - t2",
    "t1*t1 - t1",
    "t1 - t2 + t3",
    "1 - p1 - p2",
    "id - p1",
    "id - g2",
    "(t1 + t2)*l1",
    "l1*(t1 + t2)",
    "(t1 + t2)*(t1 - t2)",
    "(2 - 1/2)*t1",
    "1/2*t1 + 1/3*t2",
    "p1*p2 - p2*p1",
    "l1*l1' - p2",
    "r1*l1 - p1",
    "-t1",
    "-1/2",
    "-t1 + t2",
    "-(t1 + t2)",
    "-t1*t2",
    "E(t1)",
    "E(E(t1))",
    "E(t1*l1)",
    "E(t1) + p1",
    "E(t1)'",
    "E(g3)",
    "g2*p1",
    "t1*(t2 - t1)'",
    "(E(t1) + E(l1))*p1",
]


class TestParser:
    def test_round_trip_corpus(self):
        assert len(CORPUS) >= 50
        for text in CORPUS:
            node = parse_expression(text)
            assert pretty(node) == text, text

    def test_reparse_is_stable(self):
        for text in CORPUS:
            node = parse_expression(text)
            assert parse_expression(pretty(node)) == node, text

    def test_tree_shapes(self):
        assert parse_expression("t1*t1 - t1") == Sub(
            Mul(Gen("t", 1), Gen("t", 1)), Gen("t", 1)
        )
        assert parse_expression("E(t1)'") == Adj(Expect(Gen("t", 1)))
        assert parse_expression("1/3 + id") == Add(
            Num(Fraction(1, 3)), Gen("id", None)
        )
        # postfix binds tighter than *, which binds tighter than +
        assert parse_expression("t1 + l1*r1'") == Add(
            Gen("t", 1), Mul(Gen("l", 1), Adj(Gen("r", 1)))
        )

    def test_parse_errors_with_offsets(self):
        cases = [
            ("", 0),
            ("t1 +", 4),
            ("(t1", 3),
            ("t1)", 2),
            ("x1", 0),
            ("t1 @ t2", 3),
            ("E t1", 2),
            ("t1^", 3),
            ("t1^1/2", 3),
            ("t1 + 1/0*t1", 5),
            ("9" * 5000, 0),
            ("t1^" + "9" * 5000, 3),
            ("(" * 101 + "t1" + ")" * 101, 100),
            ("E(" * 101 + "p1" + ")" * 101, 201),
            ("*".join(["t1"] * 101), 302),
            ("t1" + "'" * 100, 102),
        ]
        for text, offset in cases:
            with pytest.raises(ParseError) as info:
                parse_expression(text)
            assert info.value.offset == offset, text
            assert "offset" in str(info.value)

    def test_parse_with_width(self):
        # Elaboration range-checks every index; E raises the width by one.
        parse_expression("t1*p2 - E(p3)", 2)
        parse_expression("E(E(p3))", 1)
        for text, width in [("p3", 2), ("t2", 2), ("E(p4)", 2), ("t1", 0)]:
            with pytest.raises(ParameterError):
                parse_expression(text, width)


class TestEvaluate:
    def test_projection_difference_vanishes(self):
        assert evaluate("t1*t1 - t1", 2, QUARTER).is_zero()

    def test_generator_identities(self):
        assert evaluate("r1*l1 - p1", 2, QUARTER).is_zero()
        assert evaluate("l1*l1' - p2", 2, QUARTER).is_zero()
        assert evaluate("l1'", 2, QUARTER) == generator(2, "r", 1, lam=QUARTER)

    def test_scalars_and_powers(self):
        two_t = evaluate("2*t1 - t1 - t1", 2, QUARTER)
        assert two_t.is_zero()
        assert evaluate("t1^0", 2, QUARTER) == identity(2, lam=QUARTER)
        assert evaluate("t1^3", 2, QUARTER) == generator(2, "t", 1, lam=QUARTER)

    def test_expectation_lowers_width(self):
        lam = QUARTER
        elem = evaluate("E(p3)", 2, lam)
        assert elem.width == 2
        assert elem == identity(2, lam=lam).scale(lam)
        assert evaluate("E(t1)", 1, lam).width == 1
        nested = evaluate("E(E(id))", 1, lam)
        assert nested == identity(1, lam=lam)

    def test_tower_idempotents(self):
        lam = QUARTER
        assert evaluate("g", 3, lam) == jones_wenzl(3, lam)
        assert evaluate("g2", 3, lam) == embed(jones_wenzl(2, lam))
        assert evaluate("g2*g3 - g3", 3, lam).is_zero()

    def test_adjoint_distributes(self):
        lam = QUARTER
        lhs = evaluate("(t1*l1)'", 3, lam)
        rhs = evaluate("l1'*t1'", 3, lam)
        assert lhs == rhs

    def test_width_errors(self):
        with pytest.raises(ParameterError):
            evaluate("t1", 0, QUARTER)
        with pytest.raises(ParameterError):
            evaluate("p3", 2, QUARTER)
        with pytest.raises(ParameterError):
            evaluate("id3", 2, QUARTER)
        with pytest.raises(ParameterError):
            evaluate("t", 2, QUARTER)
        with pytest.raises(ParameterError):
            evaluate("g4", 3, QUARTER)


class TestEvaluateOperator:
    def test_abstract_zeros_vanish(self):
        pair = build_example_pair("iii", 4, 1, QUARTER)
        zeros = ("t1*t1 - t1", "r1*l1 - p1", "g2*p1", "t1*l1*t1 - 1/4*t1")
        for expr in zeros:
            mat = evaluate_operator(expr, 2, pair)
            assert np.linalg.norm(mat) < 1e-12, expr

    def test_matches_diagram_evaluation(self):
        pair = build_example_pair("iii", 4, 1, QUARTER)
        expr = "g2 - p1 + 1/2*t1 + l1'"
        element = evaluate(expr, 2, QUARTER)
        direct = evaluate_operator(expr, 2, pair)
        assert np.linalg.norm(evaluate_element(pair, element) - direct) < 1e-12

    def test_expectation_and_power(self):
        pair = build_example_pair("iii", 4, 1, QUARTER)
        mat = evaluate_operator("E(p3)", 2, pair)
        assert np.linalg.norm(mat - 0.25 * np.eye(16)) < 1e-12
        assert np.linalg.norm(evaluate_operator("t1^2 - t1", 2, pair)) < 1e-12


class TestRunCommand:
    def test_dims_csv(self, capsys):
        assert run_command(["dims", "--n", "4", "--kmax", "5"]) == 0
        assert capsys.readouterr().out == "1,3,8,21,55,144\n"
        assert run_command(["dims", "--n", "3", "--kmax", "6"]) == 0
        assert capsys.readouterr().out == "1,2,3,4,5,6,7\n"

    def test_dims_json(self, capsys):
        assert run_command(["dims", "--n", "4", "--kmax", "3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"dims": [1, 3, 8, 21], "n": 4}

    def test_dims_without_digit_limit(self, monkeypatch, capsys):
        # Python before 3.10.7 has no sys.get_int_max_str_digits and no
        # limit on int-to-text conversion: the output is the same.
        argv = ["dims", "--n", "4", "--kmax", "6"]
        want = run_command(argv), capsys.readouterr()
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert (run_command(argv), capsys.readouterr()) == want
        assert want[1].out == "1,3,8,21,55,144,377\n"

    def test_basis_csv(self, capsys):
        assert run_command(["basis", "--k", "1", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "-1,-1\n1,0\n"

    def test_basis_json_counts(self, capsys):
        assert run_command(["basis", "--k", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 51 and len(data["pairings"]) == 51

    def test_eval_exit_codes(self, capsys):
        assert run_command(["eval", "t1*t1 - t1", "--k", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["is_zero"] is True and data["terms"] == []
        assert run_command(["eval", "t1*(", "--k", "2"]) == 2
        assert "parse error" in capsys.readouterr().err
        assert run_command(["eval", "t5", "--k", "2"]) == 2
        assert "width" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_eval_input_bounds(self, capsys):
        # Deep nesting, long chains and huge exponents end in a typed error
        # with exit code 2, not a RecursionError traceback or an endless loop.
        deep = "(" * 3000 + "t1" + ")" * 3000
        chain = "*".join(["t1"] * 3000)
        for argv, message in [
            (["eval", deep, "--k", "2"], "parse error: parentheses nest deeper"),
            (["eval", chain, "--k", "2"], "parse error: expression nests deeper"),
            (["eval", "t1^100000000", "--k", "2", "--lambda", "1/4"],
             "error: exponent 100000000 exceeds"),
            (["eval", "t1^100000000", "--k", "2", "--rep"],
             "error: exponent 100000000 exceeds"),
            # Finite exponents whose operator powers leave the float range.
            (["eval", "(t1+l1)^4096", "--k", "2", "--rep"],
             "error: operator entries leave the floating-point range"),
            (["eval", "(t1+l1)^1000", "--k", "2", "--rep"],
             "error: the norm of the result overflows"),
        ]:
            assert run_command(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(message) and "Traceback" not in err
        # A zero factor beside numbers past int64 gives the zero element.
        for argv in (["eval", "t1*0", "--k", "2", "--lambda", "1/" + "1" + "0" * 20],
                     ["eval", "1" + "0" * 20 + "*t1*0", "--k", "2"]):
            assert run_command(argv) == 0
            assert json.loads(capsys.readouterr().out)["terms"] == []
        # At the bounds themselves the expressions still evaluate.
        nested = "(" * 100 + "2*t1" + ")" * 100
        assert run_command(["eval", nested + "^4096 - 2^4096*t1", "--k", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["is_zero"] is True
        assert run_command(["eval", "p1^4096 - p1", "--k", "2", "--rep"]) == 0
        assert json.loads(capsys.readouterr().out)["is_zero"] is True

    def test_eval_terms_are_exact(self, capsys):
        assert run_command(["eval", "E(p3)", "--k", "2", "--lambda", "1/3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["terms"] == [{"coeff": "1/3", "pairing": [2, 3, 0, 1]}]

    def test_eval_rep_mode(self, capsys):
        # Abstract zeros at the pair's lam stay zero through the operators.
        code = run_command(["eval", "t1*l1*t1 - 1/4*t1", "--k", "2", "--rep"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["is_zero"] is True and data["shape"] == [16, 16]
        assert data["norm"] < 1e-12
        # the same word against the wrong scalar stays visibly nonzero
        code = run_command(["eval", "t1*l1*t1 - 1/3*t1", "--k", "2", "--rep"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["is_zero"] is False

    def test_eval_rep_dimension_bound(self, monkeypatch, capsys):
        # Scalars, generators and g<i> all pass the size guard before any
        # n**k x n**k array is formed.
        monkeypatch.setenv("MOTZKIN_MAX_DIM", "64")
        for expression in ("l1", "2", "g2", "2*p1 + g"):
            assert run_command(["eval", expression, "--k", "4", "--rep"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: dimension n**k = 256 exceeds"), expression
        assert run_command(["eval", "g2 - p1", "--k", "3", "--rep"]) == 0

    def test_dense_guards_check_what_is_formed(self, monkeypatch, capsys):
        # E(t1) at k = 5 forms its operator on n**6 = 4096 slots, within the
        # bound; nothing on n**7 slots is formed.
        assert run_command(["eval", "E(t1)", "--k", "5", "--rep"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["shape"] == [1024, 1024] and abs(data["norm"] - 8.0) < 1e-9
        # The level projection of `fock ideal` (n**2 = 16) has the same bound.
        monkeypatch.setenv("MOTZKIN_MAX_DIM", "15")
        assert run_command(["fock", "ideal"]) == 2
        assert capsys.readouterr().err == (
            "error: dimension n**k = 16 exceeds the configured bound 15 "
            "(raise MOTZKIN_MAX_DIM to override)\n"
        )

    def test_width_limit_error(self, capsys):
        # Every width past MAX_WIDTH is refused with one LimitError text.
        for argv in (["presentation", "--k", "7"], ["eval", "t1", "--k", "7"], ["jw", "--k", "7"]):
            assert run_command(argv) == 2
            assert capsys.readouterr().err == "error: width 7 exceeds the configured bound 6\n"

    def test_presentation_and_jw(self, capsys):
        assert run_command(["presentation", "--k", "2", "--lambda", "1/3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True and data["checked"] == 6
        assert run_command(["jw", "--k", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True and data["identity_coefficient"] == "1"

    def test_report_payload_keys(self, capsys):
        # Each report command writes its report's fields (lam as "lambda"),
        # ok, and its extras.
        checks = {
            ("presentation", "--k", "2"):
                {"width", "lambda", "checked", "failures", "ok"},
            ("jw", "--k", "2"):
                {"width", "lambda", "idempotent", "self_adjoint",
                 "reflect_invariant", "annihilation", "kills_top_p",
                 "expectation_coefficient", "expectation_ok",
                 "symmetric_recursion", "absorption", "identity_coefficient",
                 "terms", "ok"},
            ("pair", "validate"):
                {"n", "lambda", "norm_a", "norm_b", "pairing", "compatibility",
                 "modulus_symmetry", "a_symmetry_on_support", "weighted_sum",
                 "extended", "tol", "ok"},
            ("fock", "toeplitz", "--levels", "2"):
                {"n", "lambda", "levels", "residuals", "skipped",
                 "max_residual", "tol", "ok"},
            ("fock", "reverse", "--k", "2"):
                {"n", "lambda", "k", "constant", "closed_form",
                 "closed_form_error", "residual", "tol", "ok"},
            ("fock", "ideal"):
                {"n", "lambda", "vector", "norm", "alignment", "annihilation",
                 "complement", "tol", "ok"},
        }
        for argv, keys in checks.items():
            assert run_command(list(argv)) == 0, argv
            data = json.loads(capsys.readouterr().out)
            assert set(data) == keys, argv
            assert data["lambda"] == "1/4" and data["ok"] is True, argv

    def test_pair_round_trip(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        assert (
            run_command(
                [
                    "pair", "make", "--family", "i", "--n", "3",
                    "--lambda", "1/3", "--out", str(path),
                ]
            )
            == 0
        )
        assert run_command(["rep", "check", "--in", str(path), "--k", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True and data["n"] == 3

    def test_pair_validate(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        assert run_command(["pair", "make", "--out", str(path)]) == 0
        for extra in ([], ["--in", str(path)]):
            assert run_command(["pair", "validate", *extra]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["ok"] is True and data["n"] == 4

    def test_pair_make_reads_its_input(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        argv = ["pair", "make", "--family", "i", "--n", "3", "--lambda", "1/3"]
        assert run_command([*argv, "--out", str(path)]) == 0
        assert run_command(["pair", "make", "--in", str(path)]) == 0
        assert capsys.readouterr().out == path.read_text()

    def test_pair_make_missing_input(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run_command(["pair", "make", "--in", str(missing)]) == 2
        captured = capsys.readouterr()
        assert "cannot read" in captured.err and captured.out == ""

    def test_pair_json_is_validated(self, tmp_path, capsys):
        good = build_example_pair("iii", 4, 1, QUARTER).to_json_dict()
        payloads = [
            {"n": 3},
            [good],
            dict(good, n="4"),
            dict(good, n=True),
            dict(good, **{"lambda": "1/0"}),
            dict(good, **{"lambda": None}),
            dict(good, a=good["a"][:3]),
            dict(good, b=good["b"] + [[0.0, 0.0]]),
            dict(good, a=[[0.5, 0.0]] * 3 + [[0.5]]),
            dict(good, a=[[0.5, 0.0]] * 3 + [["0.5", 0.0]]),
            dict(good, a=[[0.5, 0.0]] * 3 + [[True, 0.0]]),
            dict(good, b=[[0.5, 0.0]] * 3 + [[10**400, 0.0]]),
            dict(good, b=[[0.5, 0.0]] * 3 + [[float("nan"), 0.0]]),
        ]
        path = tmp_path / "pair.json"
        texts = [json.dumps(p) for p in payloads] + ["{", "[" * 100000]
        for text in texts:
            path.write_text(text)
            assert run_command(["rep", "check", "--in", str(path)]) == 2, text[:60]
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
        missing = tmp_path / "missing.json"
        assert run_command(["pair", "validate", "--in", str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_rep_faithful(self, capsys):
        assert run_command(["rep", "faithful", "--k", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["span_dimension"] == 9 and data["rounds"] <= 8

    def test_rep_faithful_byte_budget(self, capsys, monkeypatch):
        # n=4, k=5 passes the dimension bound (1024), but its first span
        # round alone counts 2*18 + 3 = 39 operators of 1024**2 real
        # entries (the images, the basis rows they may become, and the SVD
        # work).  The estimate refuses it before any image is built.
        def refuse(*args):
            raise AssertionError("a generator image was built past the byte budget")

        monkeypatch.setattr(representation, "_apply_local", refuse)
        assert run_command(["rep", "faithful", "--k", "5"]) == 2
        assert "would hold 39 operators, about 312 MiB" in capsys.readouterr().err

    @pytest.mark.slow
    def test_rep_faithful_width_four(self, capsys):
        # The operators live on 12870 of the 65536 entries of (C^4)^(x)4, and
        # the closure counts those: M_8 = 323 inside the default bound.
        assert run_command(["rep", "faithful", "--k", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["span_dimension"] == data["expected"] == 323 and data["ok"] is True

    def test_fock_build(self, capsys):
        assert (
            run_command(
                ["fock", "build", "--levels", "4", "--family", "i", "--n", "3",
                 "--lambda", "1/3"]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["dims"] == [1, 2, 3, 4, 5]
        assert data["ok"] is True
        # One free orbit {1, 3}: the rows of C^3 (x) H_{k-1} carry the
        # charges -k .. k.
        assert data["charge_block_sizes"] == [
            [], [1, 1, 1], [1, 1, 2, 1, 1], [1, 1, 2, 1, 2, 1, 1],
            [1, 1, 2, 1, 2, 1, 2, 1, 1],
        ]

    def test_fock_build_size_guard(self, capsys, monkeypatch):
        # A level count whose count from chi passes the bound is refused
        # before level 1 is built, with exit code 2: the default pair
        # reaches level 9 and stops at level 10, for any larger count.
        def refuse(*args):
            raise AssertionError("a level was built past the size check")

        monkeypatch.setattr(fock.SubproductSystem, "_add_level", refuse)
        for levels in ("12", "1000000"):
            assert run_command(["fock", "build", "--levels", levels]) == 2
            assert capsys.readouterr().err == (
                "error: level 10 would hold about 801 MiB (hat frame 27060 x 17711, "
                "21 charge blocks of up to 3624 rows), above the bound 512 MiB\n"
            )

    def test_fock_build_names_failing_pair_conditions(self, tmp_path, capsys):
        # A pair that loads but breaks the Motzkin conditions fails in the
        # level build; the error names the conditions it breaks.
        data = build_example_pair("iii", 4, 1, QUARTER).to_json_dict()
        data["a"][0][0] += 0.1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = run_command(["fock", "build", "--in", str(path), "--levels", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "structure check failed: level 2: compressed projection has "
            "spectrum away from {0, 1} (drift 1.051e-01); the pair violates "
            "norm_a 1.100e-01, pairing 5.000e-02, "
        )
        assert "norm_b" not in err and err.endswith(" (tol 1e-12)\n")

    def test_fock_refuses_zero_b(self, tmp_path, capsys):
        # With b zero no coordinate has charge 0, so chi_1(0) would be -1 and
        # the level plan would hold negative widths.
        path = tmp_path / "zero_b.json"
        pair = {"n": 4, "lambda": "1/4", "a": [[0.5, 0]] * 4, "b": [[0, 0]] * 4}
        path.write_text(json.dumps(pair))
        assert run_command(["fock", "toeplitz", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "structure check failed: b is zero, so level 1 has no line of b to remove; "
            "the pair violates norm_b 1.000e+00"
        )
        assert "Traceback" not in err

    def test_fock_refuses_n2_past_level_1(self, tmp_path, capsys, monkeypatch):
        # d_2 = (n - 1) d_1 - d_0 = 0 for n = 2: the pair is refused as
        # `dims --n 2` is, before any level is built.
        path = tmp_path / "n2.json"
        pair = {"n": 2, "lambda": "1/4", "a": [[1, 0], [0, 0]], "b": [[1, 0], [0, 0]]}
        path.write_text(json.dumps(pair))
        monkeypatch.setattr(fock.SubproductSystem, "_add_level", _refuse_to_build)
        for command in ("build", "toeplitz", "matrix-units", "cp-asymptotics"):
            for levels in ("2", "3"):
                argv = ["fock", command, "--in", str(path), "--levels", levels]
                assert run_command(argv) == 2, argv
                assert capsys.readouterr().err == (
                    "error: dimension sequence for n=2 hits 0 at k=2\n"
                ), argv

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rep_refuses_entries_past_the_float_range(self, tmp_path, capsys, monkeypatch):
        # t holds |a_i|**2 = inf, and 0 * inf would not be 0.  With a_0 = 1e100
        # the generators are finite but their products are not.
        for a0 in (1e308, 1e100):
            pair = build_example_pair("iii", 4, 1, QUARTER).to_json_dict()
            pair["a"][0] = [a0, 0.0]
            path = tmp_path / "huge.json"
            path.write_text(json.dumps(pair))
            with monkeypatch.context() as m:
                if a0 == 1e308:
                    m.setattr(representation, "_apply_local", _refuse_to_build)
                    m.setattr(expression, "_apply_local", _refuse_to_build)
                for command in ("faithful", "check"):
                    assert run_command(["rep", command, "--in", str(path), "--k", "2"]) == 2
                    assert capsys.readouterr().err == (
                        "error: operator entries leave the floating-point range\n"
                    )

    def test_fock_toeplitz_odd_support(self, tmp_path, capsys):
        # b uniform on the bar-closed support {0, 2, 4} of n = 5, lam = 1/6:
        # a has sqrt(lam) there and y, lam / sqrt(y) on the free orbit {1, 3}.
        lam = 1 / 6
        y = (0.5 + np.sqrt(0.25 - 4 * lam * lam)) / 2
        a = [np.sqrt(lam), np.sqrt(y), np.sqrt(lam), lam / np.sqrt(y), np.sqrt(lam)]
        b = np.array([1, 0, 1, 0, 1]) / np.sqrt(3)
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(MotzkinPair(5, Fraction(1, 6), a, b).to_json_dict()))
        assert run_command(["fock", "toeplitz", "--in", str(path), "--levels", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True and "eq6[s=2,s'=1,m=3]" in data["residuals"]

    def test_fock_toeplitz_tolerance_failure(self, capsys):
        # an absurd tolerance flips the check into a reported failure
        code = run_command(
            ["fock", "toeplitz", "--levels", "2", "--tol", "1e-20"]
        )
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False

    def test_matrix_units_csv(self, capsys):
        assert run_command(["fock", "matrix-units", "--kmax", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "k,space_dim,rank,expected,measured"
        assert out[1:] == ["0,1,1,1,1", "1,3,3,9,9", "2,8,8,64,64"]

    def test_matrix_units_report_the_measured_rank(self, capsys, monkeypatch):
        # The rank column is the rank of the word matrix Psi that the check
        # measures, not d_k: with every word a multiple of one, Psi has
        # rank 1 and every row above k = 0 fails.
        words = fock.word_vectors

        def rank_one(system, k):
            psi = words(system, k)
            top = psi[:, np.argmax(np.linalg.norm(psi, axis=0))]
            return np.outer(top, np.arange(1, psi.shape[1] + 1))

        monkeypatch.setattr(fock, "word_vectors", rank_one)
        assert run_command(["fock", "matrix-units", "--kmax", "2"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "k,space_dim,rank,expected,measured", "0,1,1,1,1", "1,3,1,9,1", "2,8,1,64,1",
        ]

    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as info:
            run_command(["no-such-command"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            run_command(["dims"])  # missing required --n
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["presentation", "--k", "1"],
            ["presentation", "--k", "0"],
            ["presentation", "--k", "-1"],
            ["rep", "check", "--k", "1"],
            ["rep", "check", "--k", "0"],
            ["rep", "check", "--k", "-1"],
            ["rep", "faithful", "--k", "0"],
            ["rep", "faithful", "--k", "-1"],
            ["dims", "--n", "3", "--kmax", "-1"],
            ["fock", "matrix-units", "--kmax", "-1"],
            ["fock", "cp-asymptotics", "--mmax", "0"],
            ["fock", "cp-asymptotics", "--mmax", "1"],
            ["fock", "toeplitz", "--levels", "0"],
        ],
    )
    def test_empty_ranges_exit_two(self, argv, capsys):
        # Width 1 has no relation to check and width 0 no operator to span;
        # an empty level range has nothing to report, the limiting
        # relations need two levels to compare, and level 0 alone has no
        # creation operator for the Toeplitz relations.
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_huge_widths_refused_at_once(self, capsys):
        # No power n**k is formed past the dimension bound and no relation
        # is listed past MAX_WIDTH, so each refusal is a limit error within
        # a second; a power too long to print is shown as n**k.
        huge = "99999999999999999999"
        bound = "exceeds the configured bound 4096 (raise MOTZKIN_MAX_DIM to override)\n"
        battery = "has more than 100000 instances\n"
        cases = {
            ("presentation", "--k", huge): f"error: width {huge} exceeds the configured bound 6\n",
            ("rep", "faithful", "--k", huge): f"error: dimension n**k = 4**{huge} {bound}",
            ("rep", "faithful", "--k", "7200"): f"error: dimension n**k = 4**7200 {bound}",
            ("eval", "t1", "--rep", "--k", huge): f"error: dimension n**k = 4**{huge} {bound}",
            ("rep", "check", "--k", huge): f"error: relation battery at width {huge} {battery}",
            ("rep", "check", "--k", "150"): f"error: relation battery at width 150 {battery}",
        }
        for argv, err in cases.items():
            start = time.process_time()
            assert run_command(list(argv)) == 2, argv
            assert capsys.readouterr().err == err
            assert time.process_time() - start < 1.0, argv
        # A power short enough to print is printed, as it always was.
        assert run_command(["rep", "faithful", "--k", "20"]) == 2
        assert capsys.readouterr().err == f"error: dimension n**k = 1099511627776 {bound}"

    def test_rep_check_width_eight(self, capsys):
        # The battery works on the touched slots, so n**k = 65536 is no bar.
        assert run_command(["rep", "check", "--k", "8"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True and data["checked"] == 231

    def test_rep_check_reads_the_local_relations(self, capsys, monkeypatch):
        # Widths 19..26 pass: each local norm is held to --tol, while
        # checked, max_residual and worst are those of the whole battery.
        # Only the relations of width min(k, 4) are listed, at any k.
        # The local relations all occur at width 4, with the norms they have
        # at every width.
        pair = build_example_pair("iii", 4, 1, QUARTER)
        top_local = max(norm for norm, _ in expression.local_residuals(pair, 4, 4).values())
        for k in range(19, 27):
            assert run_command(["rep", "check", "--k", str(k)]) == 0
            data = json.loads(capsys.readouterr().out)
            res = expression.relation_residuals(pair, k)
            worst = max(res, key=res.get)
            assert (data["checked"], data["worst"]) == (len(res), worst) == (
                expression.relation_count(k), "(3)[i=1]")
            assert data["max_residual"] == cli._round_float(res[worst]) > 1e-10
            local = expression.local_residuals(pair, k, k).values()
            assert max(norm for norm, _ in local) == top_local
            assert data["max_local_residual"] == cli._round_float(top_local) < 1e-10
        listed = []
        relations = expression.presentation_relations
        monkeypatch.setattr(expression, "presentation_relations",
                            lambda k: listed.append(k) or relations(k))
        for k in ("2", "3", "26", "100", "149"):
            assert run_command(["rep", "check", "--k", k]) == 0
        assert listed == [2, 3, 4, 4, 4]

    def test_rep_check_verdict_is_local(self, capsys):
        # max_local_residual is 2**-50 on the default pair: a --tol just
        # above it passes at width 26, where max_residual is 2**-26, and a
        # --tol just below it fails at width 2.
        assert run_command(["rep", "check", "--k", "26", "--tol", "1e-15"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["max_local_residual"] < 1e-15 < data["max_residual"]
        assert run_command(["rep", "check", "--k", "2", "--tol", "8e-16"]) == 1
        assert json.loads(capsys.readouterr().out)["ok"] is False

    @pytest.mark.parametrize(
        "command",
        [["pair", "validate"], ["rep", "check"], ["fock", "toeplitz"], ["fock", "reverse"], ["fock", "ideal"]],
    )
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1", "1e999", "x"])
    def test_tol_must_be_finite_and_positive(self, capsys, command, tol):
        with pytest.raises(SystemExit) as info:
            run_command([*command, f"--tol={tol}"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument --tol: not a finite positive number: {tol!r}" in captured.err

    def test_dims_too_long_to_print(self, capsys):
        # d_1434 of n = 1000 has 4302 digits, past Python's int-to-text limit.
        assert run_command(["dims", "--n", "1000", "--kmax", "3000"]) == 2
        assert capsys.readouterr().err == (
            "error: d_1434 has more than 4300 digits, too long to print\n"
        )

    def test_dims_in_one_pass(self, capsys):
        # Re-running the recursion for every d_k took seconds here.
        start = time.process_time()
        assert run_command(["dims", "--n", "3", "--kmax", "10000"]) == 0
        assert time.process_time() - start < 1.0
        out = capsys.readouterr().out
        assert out == ",".join(str(k + 1) for k in range(10001)) + "\n"

    def test_csv_not_available(self, capsys):
        code = run_command(["jw", "--k", "2", "--format", "csv"])
        assert code == 2
        assert "csv" in capsys.readouterr().err

    def test_check_all_goes_on_past_a_raising_check(self, monkeypatch, capsys):
        # A check that raises fails with its error text; the other checks
        # still run and report.
        def refuse(*args, **kwargs):
            raise StructureError("toeplitz battery refused")

        monkeypatch.setattr(cli, "toeplitz_residuals", refuse)
        assert run_command(["check-all"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert captured.err == ""
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL toeplitz n=4: toeplitz battery refused",
            "FAIL toeplitz n=3: toeplitz battery refused",
        ]
        assert sum(line.startswith("PASS ") for line in lines) == 34
        assert lines[-1] == "34/36 checks passed"


# ---------------------------------------------------------------------------
# Fuzzing the command line


def _option(flag, values):
    """The flag with one drawn value, or nothing (the default)."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _command(prefix, *options):
    return st.tuples(*options).map(lambda parts: prefix + sum(parts, []))


_WIDTH = st.integers(-1, 4)
_LEVELS = st.integers(-1, 6)
_LAMBDA = _option("--lambda", st.sampled_from(["1/4", "1/3", "1/5", "1/8", "1/2", "0", "x"]))
_FORMAT = _option("--format", st.sampled_from(["json", "csv"]))
_PAIR = (
    _option("--family", st.sampled_from(["i", "ii", "iii"])),
    _option("--n", st.integers(2, 5)),
    _option("--r", st.integers(0, 3)),
    _LAMBDA,
)
_TOL = _option("--tol", st.sampled_from(["1e-9", "0", "-1", "nan"]))
_ATOMS = ["t1", "l1", "r1", "p1", "p2", "g", "g1", "g2", "id", "1/2", "t3", "l2'", "E(p2)"]
_EXPRESSIONS = st.one_of(
    st.lists(st.sampled_from(_ATOMS), min_size=1, max_size=3).flatmap(
        lambda atoms: st.lists(
            st.sampled_from(["*", " + ", " - "]), min_size=len(atoms) - 1, max_size=len(atoms) - 1
        ).map(lambda ops: "".join(a + o for a, o in zip(atoms, ops + [""])))
    ).flatmap(lambda e: st.sampled_from([e, f"({e})'", f"({e})^2", f"E({e})"])),
    st.text(alphabet="tlrpgE12()'*+-^/ ", max_size=8),
)
_ARGV = st.one_of(
    _command(["dims"], _option("--n", st.integers(-1, 5)), _option("--kmax", st.integers(-2, 8)), _FORMAT),
    _command(["basis"], _option("--k", _WIDTH), _FORMAT),
    _command(["presentation"], _option("--k", _WIDTH), _LAMBDA, _FORMAT),
    _command(["jw"], _option("--k", _WIDTH), _LAMBDA, _FORMAT),
    _command(["pair", "validate"], *_PAIR, _TOL, _FORMAT),
    _command(["pair", "make"], *_PAIR, _FORMAT),
    _command(["rep", "check"], *_PAIR, _option("--k", _WIDTH), _TOL, _FORMAT),
    _command(["rep", "faithful"], *_PAIR, _option("--k", _WIDTH), _FORMAT),
    _command(["fock", "build"], *_PAIR, _option("--levels", _LEVELS), _FORMAT),
    _command(["fock", "toeplitz"], *_PAIR, _option("--levels", _LEVELS), _TOL, _FORMAT),
    _command(
        ["fock", "matrix-units"], *_PAIR, _option("--levels", _LEVELS),
        _option("--kmax", _WIDTH), _FORMAT,
    ),
    _command(["fock", "reverse"], *_PAIR, _option("--k", _WIDTH), _TOL, _FORMAT),
    _command(["fock", "ideal"], *_PAIR, _TOL, _FORMAT),
    _command(
        ["fock", "cp-asymptotics"], *_PAIR, _option("--levels", _LEVELS),
        _option("--mmax", _WIDTH), _FORMAT,
    ),
    _command(
        ["eval"], _EXPRESSIONS.map(lambda e: [e]), _option("--k", _WIDTH),
        st.sampled_from([[], ["--rep"]]), *_PAIR, _FORMAT,
    ),
    st.just(["check-all"]),
)


@given(argv=_ARGV)
def test_cli_fuzz(argv):
    """Every subcommand, with small and out-of-range arguments, ends in an
    exit code: 0 or 1 for a result, 2 for a refused input (argparse exits
    with 2 itself).  Nothing raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run_command(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
