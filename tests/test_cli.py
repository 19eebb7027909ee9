"""Session language: lexing, parsing, printing, evaluation, and the CLI."""

import json
import os
import subprocess
import sys

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nambu.groupoids
import nambu.structures
from nambu.cli import main
from nambu.parser import (
    BinOp,
    Binding,
    ChartDecl,
    CheckCommand,
    CoinduceCommand,
    EvalCommand,
    FieldAtom,
    FormAtom,
    GroupDecl,
    MapDecl,
    Name,
    Neg,
    Num,
    PairDecl,
    ParseError,
    Power,
    SubDecl,
    parse,
    parse_expression,
    render_expr,
    tokenize,
)
from nambu.ratpoly import Chart, Poly
from nambu.session import (
    Environment,
    SemanticError,
    eval_expr,
    run_session,
)


def run_text(src, seed=0, degree=2):
    return run_session(parse(src), seed=seed, degree=degree)


VOL_PRELUDE = "chart M (x1, x2, x3)\npi := @x1 ^ @x2 ^ @x3\n"
XVOL_PRELUDE = "chart M (x1, x2, x3)\npi := x1 * (@x1 ^ @x2 ^ @x3)\n"


class TestTokenize:
    def test_primed_identifiers(self):
        kinds = [(t.kind, t.text) for t in tokenize("x1' + x1''")[:-1]]
        assert kinds == [("ID", "x1'"), ("SYM", "+"), ("ID", "x1''")]

    def test_comments_vanish(self):
        toks = tokenize("a # everything after is gone\nb")
        assert [t.text for t in toks if t.kind == "ID"] == ["a", "b"]

    def test_option_marker(self):
        t = [t for t in tokenize("--degree 3") if t.kind == "OPT"]
        assert len(t) == 1 and t[0].text == "degree"

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            tokenize("x\n  ?")
        assert exc.value.line == 2 and exc.value.col == 3

    def test_arrow_and_walrus_are_single_tokens(self):
        texts = [t.text for t in tokenize("a := b -> c") if t.kind == "SYM"]
        assert texts == [":=", "->"]


class TestParseStatements:
    def test_chart(self):
        (s,) = parse("chart R3 (x, y, z)").statements
        assert s == ChartDecl("R3", ("x", "y", "z"))

    def test_binding(self):
        (s,) = parse("pi := @x ^ @y").statements
        assert isinstance(s, Binding) and s.name == "pi"
        assert s.expr == BinOp("^", FieldAtom("x"), FieldAtom("y"))

    def test_sub(self):
        (s,) = parse("sub N := { x3 = 0, x2 = x1 }").statements
        assert isinstance(s, SubDecl)
        assert [c for c, _ in s.items] == ["x3", "x2"]

    def test_map(self):
        (s,) = parse("map p : Q -> N := (y1, y2 + y1, y3)").statements
        assert s.source == "Q" and s.target == "N" and len(s.comps) == 3

    def test_group_forms(self):
        a, b, c = parse(
            "group G := translation M\n"
            "group H := heisenberg\n"
            "group K := law M mult (x + x') unit (0) inv (-x)"
        ).statements
        assert a.kind == "translation" and a.chart == "M"
        assert b.kind == "heisenberg"
        assert c.kind == "law" and c.unit == (Fraction(0),)

    def test_law_unit_accepts_negatives_and_fractions(self):
        (s,) = parse(
            "group K := law M mult (x + x') unit (-1/2) inv (-1 - x)"
        ).statements
        assert s.unit == (Fraction(-1, 2),)

    def test_pair(self):
        (s,) = parse("pair P := pi").statements
        assert s == PairDecl("P", "pi")

    def test_check_kinds_and_arity(self):
        kinds = [
            ("check fi pi", "fi", 1),
            ("check coisotropic pi N", "coisotropic", 2),
            ("check multiplicative G pi", "multiplicative", 2),
            ("check wlfb pi", "wlfb", 1),
            ("check graph p pi rho", "graph", 3),
            ("check subgroupoid P N", "subgroupoid", 2),
        ]
        for src, kind, arity in kinds:
            (s,) = parse(src).statements
            assert s.kind == kind and len(s.args) == arity

    def test_check_degree_option(self):
        (s,) = parse("check fi pi --degree 3").statements
        assert s.degree == 3

    @pytest.mark.parametrize("degree", ["0", "00"])
    def test_check_degree_below_one_rejected(self, degree):
        with pytest.raises(ParseError, match="at least 1"):
            parse(f"check fi pi --degree {degree}")

    def test_degree_option_only_after_check_fi(self):
        for src in ("check wlfb pi --degree 5", "check coisotropic pi N --degree 3"):
            with pytest.raises(ParseError, match="only to check fi"):
                parse(src)

    def test_unknown_check_rejected(self):
        with pytest.raises(ParseError, match="unknown check"):
            parse("check flatness pi")

    def test_bracket_args_split_on_semicolon_inside_parens(self):
        # top-level ; separates statements, but not inside an argument list
        (s,) = parse("bracket pi (x1; x2 + x3; x3)").statements
        assert isinstance(s, EvalCommand) and len(s.args) == 3

    def test_coinduce(self):
        (s,) = parse("coinduce p pi").statements
        assert s == CoinduceCommand("p", "pi")

    def test_semicolons_and_comments_separate(self):
        sess = parse("# header\nchart M (x); pi := 2 * x ; pi + 1\n")
        assert len(sess.statements) == 3

    def test_keyword_cannot_name_a_binding(self):
        with pytest.raises(ParseError, match="reserved"):
            parse("mult := 3")

    def test_keyword_cannot_be_a_coordinate(self):
        with pytest.raises(ParseError, match="reserved"):
            parse("chart M (x, d)")

    def test_expression_statement_fallback(self):
        (s,) = parse("x1 + 2").statements
        assert s.canonical_text() == "x1 + 2"


class TestExprGrammar:
    def test_star_binds_tighter_than_caret(self):
        e = parse_expression("@x ^ y*z")
        assert e == BinOp("^", FieldAtom("x"), BinOp("*", Name("y"), Name("z")))
        # a digit right after ^ always starts an exponent, never a product
        with pytest.raises(ParseError):
            parse_expression("@x ^ 2*y")

    def test_caret_integer_is_a_power(self):
        assert parse_expression("x^2") == Power(Name("x"), 2)

    def test_power_then_star_is_a_parse_error(self):
        # x^2*y would be ambiguous between x^2 * y and x ^ (2*y); refuse it
        with pytest.raises(ParseError):
            parse_expression("x^2*y")

    def test_parenthesized_power_times(self):
        e = parse_expression("(x^2)*y")
        assert e == BinOp("*", Power(Name("x"), 2), Name("y"))

    def test_unary_minus(self):
        assert parse_expression("-x + y") == BinOp("+", Neg(Name("x")), Name("y"))

    def test_rational_literal(self):
        assert parse_expression("3/2") == Num(Fraction(3, 2))

    def test_zero_denominator_is_a_parse_error(self):
        with pytest.raises(ParseError, match="zero denominator") as exc:
            parse_expression("1/0")
        assert (exc.value.line, exc.value.col) == (1, 3)

    def test_form_atom_needs_identifier(self):
        assert parse_expression("d x1") == FormAtom("x1")
        with pytest.raises(ParseError):
            parse_expression("d 3")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_expression("x y")


def leaf_exprs():
    coords = st.sampled_from(["x1", "x2", "x3"])
    nums = st.builds(
        lambda n, d: Num(Fraction(n, d)),
        st.integers(-5, 9),
        st.sampled_from([1, 2, 3]),
    )
    return st.one_of(
        nums, coords.map(Name), coords.map(FieldAtom), coords.map(FormAtom)
    )


def exprs():
    return st.recursive(
        leaf_exprs(),
        lambda inner: st.one_of(
            st.builds(BinOp, st.sampled_from(["+", "-", "*", "^"]), inner, inner),
            inner.map(Neg),
            st.builds(Power, inner, st.integers(0, 3)),
        ),
        max_leaves=8,
    )


class TestPrinterRoundTrip:
    @given(exprs())
    @settings(max_examples=120, deadline=None)
    def test_rendered_text_is_a_fixed_point(self, e):
        text = render_expr(e)
        again = render_expr(parse_expression(text))
        assert again == text

    @given(exprs())
    @settings(max_examples=120, deadline=None)
    def test_reparse_never_changes_the_value(self, e):
        env = Environment()
        env.declare_chart("M", Chart(("x1", "x2", "x3"), "M"))
        reparsed = parse_expression(render_expr(e))
        try:
            before = eval_expr(env, e)
        except SemanticError:
            with pytest.raises(SemanticError):
                eval_expr(env, reparsed)
            return
        assert eval_expr(env, reparsed) == before

    def test_session_canonical_text_is_a_fixed_point(self):
        src = (
            "# comment\n"
            "chart M (x1, x2, x3); pi := x1*(@x1^@x2^@x3)\n"
            "sub N := { x3 = 1/2 }\n"
            "map p : M -> M := (x1, x2, x3)\n"
            "group G := translation M\n"
            "pair P := pi\n"
            "check fi pi --degree 2\n"
            "bracket pi (x1; x2; -x3 + 1)\n"
            "coinduce p pi\n"
        )
        canon = parse(src).canonical_text()
        assert parse(canon).canonical_text() == canon

    def test_wedge_with_leading_digit_right_operand_stays_a_wedge(self):
        e = BinOp("^", Name("x1"), BinOp("*", Num(Fraction(2)), Name("x2")))
        assert render_expr(e) == "x1^(2*x2)"
        assert parse_expression(render_expr(e)) == e


class TestEvalExpr:
    def setup_method(self):
        self.env = Environment()
        self.env.declare_chart("M", Chart(("x1", "x2", "x3"), "M"))

    def test_coordinate_resolves_to_its_chart(self):
        v = eval_expr(self.env, Name("x2"))
        assert v.canonical_str() == "x2"

    def test_scalar_arithmetic_stays_exact(self):
        assert eval_expr(self.env, parse_expression("1/2 + 1/3")) == Fraction(5, 6)

    def test_wedge_of_scalars_is_rejected_with_hint(self):
        with pytest.raises(SemanticError, match="integer literal exponent"):
            eval_expr(self.env, parse_expression("x1 ^ x2"))

    def test_power_of_tensor_rejected(self):
        with pytest.raises(SemanticError, match="power"):
            eval_expr(self.env, parse_expression("(@x1)^2"))

    def test_star_on_tensors_demands_wedge(self):
        with pytest.raises(SemanticError, match="wedge"):
            eval_expr(self.env, parse_expression("@x1 * @x2"))

    def test_mixed_grade_sum_rejected(self):
        with pytest.raises(SemanticError, match="one kind and grade"):
            eval_expr(self.env, parse_expression("@x1 + @x1^@x2"))

    def test_form_field_wedge_rejected(self):
        with pytest.raises(SemanticError, match="field with a form"):
            eval_expr(self.env, parse_expression("@x1 ^ d x2"))

    def test_scalar_scales_tensor_but_integer_caret_does_not(self):
        a = eval_expr(self.env, parse_expression("3 * @x1"))
        assert a.canonical_str() == "@x1 * (3)"
        # ^ with an integer literal is always a power, and tensors reject it
        with pytest.raises(SemanticError, match="power"):
            eval_expr(self.env, parse_expression("@x1 ^ 3"))

    def test_unknown_name(self):
        with pytest.raises(SemanticError, match="unknown name"):
            eval_expr(self.env, Name("ghost"))


class TestSessionRuns:
    def test_fi_session_emits_one_report(self):
        res = run_text(VOL_PRELUDE + "check fi pi --degree 2\n")
        assert len(res.reports) == 1
        assert res.reports[0].verdict == "VERIFIED_ON_FAMILY"
        assert res.reports[0].degree == 2
        assert res.ok

    def test_declarations_are_silent(self):
        res = run_text(VOL_PRELUDE)
        assert res.reports == [] and res.ok

    def test_bracket_value(self):
        res = run_text(VOL_PRELUDE + "bracket pi (x1*x2; x2; x3)")
        assert res.reports[0].value == "x2"

    def test_bracket_wrong_arity_errors(self):
        res = run_text(VOL_PRELUDE + "bracket pi (x1; x2)")
        assert res.reports[0].verdict == "ERROR"
        assert "3 functions" in res.reports[0].witness

    def test_formbracket_value(self):
        res = run_text(XVOL_PRELUDE + "formbracket pi (d x1; d x2; d x3)")
        (r,) = res.reports
        assert r.verdict == "PASS" and r.value is not None

    def test_formbracket_rejects_non_forms(self):
        res = run_text(VOL_PRELUDE + "formbracket pi (@x1; d x2; d x3)")
        assert res.reports[0].verdict == "ERROR"

    def test_zero_binding_warns(self):
        res = run_text(VOL_PRELUDE + "zero := 0 * pi\n")
        assert res.warnings == ["binding 'zero' evaluates to the zero tensor"]

    def test_rebinding_rejected(self):
        res = run_text("chart M (x)\na := 1\na := 2\n")
        assert res.reports[-1].verdict == "ERROR"
        assert "already bound" in res.reports[-1].witness

    def test_charts_may_not_share_coordinates(self):
        res = run_text("chart A (x, y)\nchart B (y, z)\n")
        assert res.reports[0].verdict == "ERROR"
        assert "share coordinate names" in res.reports[0].witness

    def test_first_error_aborts(self):
        res = run_text(VOL_PRELUDE + "check fi ghost\nbracket pi (x1; x2; x3)\n")
        assert [r.verdict for r in res.reports] == ["ERROR"]

    def test_degree_flag_overrides_session_degree(self):
        res = run_text(VOL_PRELUDE + "check fi pi --degree 1\n", degree=3)
        assert res.reports[0].degree == 1

    def test_fi_refuted_with_witness(self):
        res = run_text(
            "chart R6 (u1, u2, u3, u4, u5, u6)\n"
            "bad := @u1^@u2^@u3 + @u4^@u5^@u6\n"
            "check fi bad\n"
        )
        (r,) = res.reports
        assert r.verdict == "REFUTED" and "defect" in r.witness
        assert not res.ok


class TestSessionGeometry:
    def test_coisotropic_pass_and_fail(self):
        res = run_text(
            XVOL_PRELUDE + "sub N := { x3 = 0 }\ncheck coisotropic pi N\n"
        )
        assert res.reports[0].verdict == "PASS"
        res = run_text(
            VOL_PRELUDE
            + "sub O := { x1 = 0, x2 = 0, x3 = 0 }\ncheck coisotropic pi O\n"
        )
        (r,) = res.reports
        assert r.verdict == "FAIL"
        assert r.witness == "frame (x1, x2, x3) -> 1"

    def test_translation_multiplicative_both_ways(self):
        good = run_text(
            XVOL_PRELUDE + "group G := translation M\ncheck multiplicative G pi\n"
        )
        assert good.reports[0].verdict == "PASS"
        bad = run_text(
            VOL_PRELUDE + "group G := translation M\ncheck multiplicative G pi\n"
        )
        (r,) = bad.reports
        assert r.verdict == "FAIL" and "x1''" in r.witness

    def test_group_law_statement_builds_and_checks(self):
        res = run_text(
            "chart M (x1, x2, x3)\n"
            "pi := x1 * (@x1 ^ @x2 ^ @x3)\n"
            "group H := law M mult (x1 + x1', x2 + x2', x3 + x3' + x1*x2')"
            " unit (0, 0, 0) inv (-x1, -x2, -x3 + x1*x2)\n"
            "check multiplicative H pi\n"
        )
        assert res.reports[0].verdict == "PASS"

    def test_bad_group_law_reports_error(self):
        res = run_text(
            "chart M (x)\n"
            "group K := law M mult (x + x' + 1) unit (0) inv (-x)\n"
        )
        assert res.reports[0].verdict == "ERROR"
        assert "unit" in res.reports[0].witness

    def test_builtin_heisenberg_registers_coordinates(self):
        res = run_text(
            "group H := heisenberg\n"
            "pi := a * (@a ^ @b ^ @c)\n"
            "check multiplicative H pi\n"
        )
        assert res.reports[0].verdict == "PASS"

    def test_heisenberg_coordinate_collision(self):
        res = run_text("chart M (a, b)\ngroup H := heisenberg\n")
        assert res.reports[0].verdict == "ERROR"
        assert "taken" in res.reports[0].witness

    def test_pair_check_takes_base_tensor(self):
        res = run_text(VOL_PRELUDE + "pair P := pi\ncheck multiplicative P pi\n")
        assert res.reports[0].verdict == "PASS"

    def test_pair_check_rejects_other_tensor(self):
        res = run_text(
            VOL_PRELUDE + "rho := 2 * pi\npair P := pi\ncheck multiplicative P rho\n"
        )
        assert res.reports[0].verdict == "ERROR"
        assert "base structure" in res.reports[0].witness

    def test_subgroupoid_pass_and_fail(self):
        good = run_text(
            XVOL_PRELUDE + "pair P := pi\nsub N := { x3 = 0 }\n"
            "check subgroupoid P N\n"
        )
        assert good.reports[0].verdict == "PASS"
        bad = run_text(
            VOL_PRELUDE + "pair P := pi\n"
            "sub O := { x1 = 0, x2 = 0, x3 = 0 }\ncheck subgroupoid P O\n"
        )
        (r,) = bad.reports
        assert r.verdict == "FAIL"
        assert r.witness == "frame (x1, x2, x3) -> 1"

    def test_graph_pass_fail_and_witness(self):
        prelude = (
            VOL_PRELUDE
            + "chart N (w1, w2, w3)\nrho := @w1 ^ @w2 ^ @w3\n"
        )
        good = run_text(prelude + "map p : M -> N := (x1, x2, x3)\ncheck graph p pi rho\n")
        assert good.reports[0].verdict == "PASS"
        bad = run_text(prelude + "map p : M -> N := (2*x1, x2, x3)\ncheck graph p pi rho\n")
        (r,) = bad.reports
        assert r.verdict == "FAIL" and "2 != 1" in r.witness

    def test_coinduce_value_and_obstruction(self):
        prelude = (
            "chart Q (y1, y2, y3, y4)\n"
            "chart N (w1, w2, w3)\n"
            "map p : Q -> N := (y1, y2, y3)\n"
        )
        good = run_text(prelude + "sigma := @y1^@y2^@y3\ncoinduce p sigma\n")
        (r,) = good.reports
        assert r.verdict == "PASS" and r.value == "@w1^@w2^@w3 * (1)"
        bad = run_text(prelude + "tw := y4 * (@y1^@y2^@y3)\ncoinduce p tw\n")
        (r,) = bad.reports
        assert r.verdict == "FAIL" and r.witness == "(w1; w2; w3) -> y4"

    def test_coinduce_needs_a_projection(self):
        res = run_text(
            "chart Q (y1, y2, y3, y4)\nchart N (w1, w2, w3)\n"
            "map p : Q -> N := (y1 + y2, y2, y3)\n"
            "sigma := @y1^@y2^@y3\ncoinduce p sigma\n"
        )
        assert res.reports[0].verdict == "ERROR"

    def test_wlfb_embeds_seed(self):
        res = run_text(XVOL_PRELUDE + "check wlfb pi\n", seed=9)
        (r,) = res.reports
        assert r.verdict == "PASS" and r.seed == 9


class TestReportDocument:
    def test_schema_and_replay(self):
        src = (
            XVOL_PRELUDE
            + "sub N := { x3 = 0 }\n"
            + "check fi pi --degree 2\ncheck wlfb pi\n"
            + "pair P := pi\ncheck subgroupoid P N\nbracket pi (x1; x2; x3)\n"
        )
        first = run_text(src, seed=4).to_dict()
        assert first["schema"] == "report-v1"
        assert first["seed"] == 4
        replay = run_session(
            parse(first["session"]), seed=first["seed"], degree=first["degree"]
        ).to_dict()

        def strip(doc):
            return [
                {k: v for k, v in r.items() if k != "timing_ms"}
                for r in doc["reports"]
            ]

        assert strip(replay) == strip(first)
        assert replay["session"] == first["session"]

    def test_inputs_echo_bound_values(self):
        res = run_text(VOL_PRELUDE + "check fi pi\n")
        assert res.reports[0].inputs == (("pi", "@x1^@x2^@x3 * (1)"),)

    def test_verdict_gate(self):
        res = run_text(VOL_PRELUDE + "check fi pi\n")
        assert res.ok
        res = run_text(
            VOL_PRELUDE + "sub O := { x1 = 0, x2 = 0, x3 = 0 }\n"
            "check coisotropic pi O\n"
        )
        assert not res.ok


class TestCliProcess:
    def test_run_ok_exit_zero(self, tmp_path, capsys):
        f = tmp_path / "s.nmb"
        f.write_text(VOL_PRELUDE + "check fi pi\n")
        assert main(["run", str(f)]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED_ON_FAMILY  check fi pi" in out
        assert "1 report, all ok" in out

    def test_run_failing_exit_one(self, tmp_path, capsys):
        f = tmp_path / "s.nmb"
        f.write_text(
            VOL_PRELUDE + "sub O := { x1 = 0, x2 = 0, x3 = 0 }\n"
            "check coisotropic pi O\n"
        )
        assert main(["run", str(f)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness: frame (x1, x2, x3) -> 1" in out

    def test_run_parse_error_exit_two(self, tmp_path, capsys):
        f = tmp_path / "s.nmb"
        f.write_text("chart M (x,\n")
        assert main(["run", str(f)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_degree_on_other_check_exit_two(self, tmp_path, capsys):
        f = tmp_path / "s.nmb"
        f.write_text(VOL_PRELUDE + "check wlfb pi --degree 5\n")
        assert main(["run", str(f)]) == 2
        assert capsys.readouterr().err.startswith("parse error:")

    # not a Nambu tensor: check fi refutes it, check wlfb fails at degrees 1
    # and 2, and degree 0 would sample only constants and pass vacuously
    NON_NAMBU = "chart M (x, y, z)\npi := z*(@x^@y) + y*y*(@y^@z) + x*(@x^@z)\ncheck wlfb pi\n"

    def test_wlfb_fails_on_non_nambu_at_positive_degree(self, tmp_path, capsys):
        f = tmp_path / "s.nmb"
        f.write_text(self.NON_NAMBU)
        for degree in ("1", "2"):
            assert main(["run", str(f), "--degree", degree]) == 1
            assert "FAIL  check wlfb pi" in capsys.readouterr().out

    @pytest.mark.parametrize("degree", ["0", "-1", "x", "1.5"])
    def test_run_degree_below_one_is_usage_error(self, tmp_path, capsys, degree):
        f = tmp_path / "s.nmb"
        f.write_text(self.NON_NAMBU)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(f), "--degree", degree])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --degree" in captured.err

    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_eval_degree_below_one_is_usage_error(self, capsys, degree):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "1 + 1", "--degree", degree])
        assert exc.value.code == 2
        assert "degree must be at least 1" in capsys.readouterr().err

    def test_check_fi_degree_zero_exit_two(self, tmp_path, capsys):
        f = tmp_path / "s.nmb"
        f.write_text(VOL_PRELUDE + "check fi pi --degree 0\n")
        assert main(["run", str(f)]) == 2
        assert capsys.readouterr().err.startswith("parse error:")

    @pytest.mark.parametrize("text", [
        "chart M (x, y, z); 1/0",
        "chart M (x, y); group G := law M mult (x + x', y + y') unit (1/0, 0) inv (-x, -y)",
    ])
    def test_zero_denominator_exit_two(self, text, capsys):
        assert main(["eval", text]) == 2
        assert capsys.readouterr().err.startswith("parse error:")

    def test_run_missing_file_exit_two(self, capsys):
        assert main(["run", "/no/such/file.nmb"]) == 2
        assert "error" in capsys.readouterr().err

    def test_route_disagreement_is_an_error_report(self, monkeypatch, capsys):
        # a translation route that contradicts the graph route must end in
        # an ERROR report, not a traceback
        def fake(law, s):
            return (((0, 1, 2), Poly.one(law.mult.source)),)

        monkeypatch.setattr(nambu.groupoids, "translation_identity_defects", fake)
        script = Path(__file__).resolve().parent.parent / "corpus/pass/group_translation.nmb"
        assert main(["run", str(script)]) == 1
        out = capsys.readouterr().out
        assert "ERROR  check multiplicative G pi" in out
        assert "witness: graph and translation routes disagree" in out

    # In both tests below the first Lie defect fi_check takes, in its
    # reduced-family pre-check, reads nonzero; every later one is the true
    # zero, so the sweep that must refute verifies. The contradiction is
    # internal and ends in an ERROR report, also under python -O.
    FAKE_LIE = (
        "real, calls = nambu.structures.schouten, []\n"
        "def fake(p, q):\n"
        "    calls.append(1)\n"
        "    return q if len(calls) == 1 else real(p, q)\n"
    )
    FI_CONTRADICTION = (
        "ERROR  check fi pi",
        "    witness: internal error: a reduced-family tuple has a nonzero Lie "
        "defect, but the degree-2 sweep that contains it found none",
    )

    def test_fi_contradiction_is_an_error_report(self, monkeypatch, tmp_path, capsys):
        scope = {"nambu": nambu}
        exec(self.FAKE_LIE, scope)
        monkeypatch.setattr(nambu.structures, "schouten", scope["fake"])
        f = tmp_path / "s.nmb"
        f.write_text(VOL_PRELUDE + "check fi pi\n")
        assert main(["run", str(f)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert all(ln in out for ln in self.FI_CONTRADICTION)

    def test_fi_contradiction_is_an_error_report_under_optimize_flag(self, tmp_path):
        f = tmp_path / "s.nmb"
        f.write_text(VOL_PRELUDE + "check fi pi\n")
        script = (
            "import sys\nimport nambu.structures\nfrom nambu.cli import main\n"
            + self.FAKE_LIE
            + "nambu.structures.schouten = fake\nsys.exit(main(['run', sys.argv[1]]))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-O", "-c", script, str(f)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1, done.stderr
        assert "Traceback" not in done.stderr
        out = done.stdout.splitlines()
        assert all(ln in out for ln in self.FI_CONTRADICTION)

    def test_run_non_utf8_script_exit_two(self, tmp_path, capsys):
        f = tmp_path / "s.nmb"
        f.write_bytes(b"chart M (x, y, z)\n# caf\xe9\n")
        assert main(["run", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "utf-8" in captured.err

    def test_json_to_missing_directory_exit_two(self, tmp_path, capsys):
        f = tmp_path / "s.nmb"
        f.write_text(VOL_PRELUDE + "check fi pi\n")
        out = tmp_path / "no_such_dir" / "report.json"
        assert main(["run", str(f), "--json", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "no_such_dir" in captured.err
        assert not out.parent.exists()

    def test_json_document(self, tmp_path, capsys):
        f = tmp_path / "s.nmb"
        out = tmp_path / "report.json"
        f.write_text(VOL_PRELUDE + "check fi pi\nbracket pi (x1; x2; x3)\n")
        assert main(["run", str(f), "--json", str(out), "--seed", "7"]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "report-v1" and doc["seed"] == 7
        assert [r["verdict"] for r in doc["reports"]] == [
            "VERIFIED_ON_FAMILY", "PASS",
        ]
        capsys.readouterr()

    def test_json_to_stdout(self, tmp_path, capsys):
        f = tmp_path / "s.nmb"
        f.write_text(VOL_PRELUDE + "check fi pi\n")
        assert main(["run", str(f), "--json", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reports"][0]["command"] == "check fi pi"

    def test_eval_prints_last_value(self, capsys):
        code = main(["eval", "chart M (x, y, z); pi := @x^@y^@z; bracket pi (x*y; y; z)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "y"

    def test_eval_scalar(self, capsys):
        assert main(["eval", "1/2 + 1/3"]) == 0
        assert capsys.readouterr().out.strip() == "5/6"

    def test_eval_without_value_exit_two(self, capsys):
        assert main(["eval", "chart M (x)"]) == 2
        assert "no value" in capsys.readouterr().err

    def test_eval_semantic_failure_exit_one(self, capsys):
        assert main(["eval", "ghost + 1"]) == 1
        assert "unknown name" in capsys.readouterr().err

    def test_eval_exponent_above_bound_is_an_error(self, capsys):
        assert main(["eval", "chart M (x, y); x^2147483648"]) == 1
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert "ERROR" in text and "exponent above 2147483647" in text
        assert "Traceback" not in text

    def test_eval_exponent_at_bound(self, capsys):
        assert main(["eval", "chart M (x, y); x^2147483647"]) == 0
        assert capsys.readouterr().out.strip() == "x^2147483647"

    def test_eval_parse_error_exit_two(self, capsys):
        assert main(["eval", "chart M (x"]) == 2
        assert "parse error" in capsys.readouterr().err
