"""Exact polynomial arithmetic against independent term-level oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nambu.ratpoly import (
    Chart,
    Poly,
    chart,
    concat_charts,
    monomials_up_to,
    reduce_mod_solved,
)

from _gen import R2, R3, poly_strategy


def p(ch, s_terms):
    return Poly(ch, {e: Fraction(c) for e, c in s_terms.items()})


x1 = Poly.coordinate(R3, "x1")
x2 = Poly.coordinate(R3, "x2")
x3 = Poly.coordinate(R3, "x3")


class TestChart:
    def test_coords_must_be_identifiers(self):
        with pytest.raises(ValueError):
            chart("x 2y")

    def test_coords_must_be_distinct(self):
        with pytest.raises(ValueError):
            chart("x x")

    def test_identity_ignores_label(self):
        assert chart("x y", "A") == chart("x y", "B")
        assert chart("x y") != chart("y x")

    def test_primed_coords_allowed(self):
        ch = chart("u u' u''")
        assert ch.dim == 3

    def test_concat_primes_collisions(self):
        big, blocks = concat_charts(R2, R2)
        assert big.coords == ("x1", "x2", "x1'", "x2'")
        assert blocks == [(0, 1), (2, 3)]

    def test_concat_triple_primes_twice(self):
        big, blocks = concat_charts(R2, R2, R2)
        assert big.coords == ("x1", "x2", "x1'", "x2'", "x1''", "x2''")
        assert blocks[2] == (4, 5)


class TestArithmetic:
    def test_add_collects_terms(self):
        a = p(R3, {(1, 0, 0): 1, (0, 0, 0): 2})
        b = p(R3, {(1, 0, 0): -1, (0, 1, 0): 3})
        assert a + b == p(R3, {(0, 0, 0): 2, (0, 1, 0): 3})

    def test_mul_expands(self):
        # (x1 + 1)(x1 - 1) = x1^2 - 1
        a = x1 + Poly.one(R3)
        b = x1 - Poly.one(R3)
        assert a * b == p(R3, {(2, 0, 0): 1, (0, 0, 0): -1})

    def test_scalar_mul(self):
        assert Fraction(3, 2) * x1 == p(R3, {(1, 0, 0): Fraction(3, 2)})
        assert 2 * x1 == x1 + x1

    def test_pow(self):
        assert (x1 + x2) ** 2 == x1 * x1 + 2 * x1 * x2 + x2 * x2
        assert (x1 + x2) ** 0 == Poly.one(R3)

    def test_zero_is_dropped(self):
        assert (x1 - x1).is_zero
        assert (x1 - x1).terms == {}

    @given(poly_strategy(R2), poly_strategy(R2), poly_strategy(R2))
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(poly_strategy(R2, max_degree=1), poly_strategy(R2, max_degree=1))
    @settings(max_examples=40, deadline=None)
    def test_eval_is_ring_map(self, a, b):
        pt = {"x1": Fraction(2, 3), "x2": Fraction(-1, 2)}
        assert (a * b).eval_at(pt) == a.eval_at(pt) * b.eval_at(pt)
        assert (a + b).eval_at(pt) == a.eval_at(pt) + b.eval_at(pt)


def _stored_forms_ok(q):
    """Every coefficient is an int, or a Fraction that is not integral."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for c in q.terms.values()
    )


class TestIntegerFirstCoefficients:
    def test_integral_fraction_equals_int(self):
        e = (1, 0, 2)
        a, b = Poly(R3, {e: Fraction(3)}), Poly(R3, {e: 3})
        assert a == b and hash(a) == hash(b)
        assert a.canonical_str() == b.canonical_str() == "3*x1*x3^2"
        assert type(a.terms[e]) is int

    def test_integral_results_are_ints(self):
        half = Fraction(1, 2)
        h = p(R3, {(1, 0, 0): half, (0, 1, 0): half})
        for q in (h + h, h * 2, h.scale(Fraction(4)), 2 * h,
                  p(R3, {(2, 0, 0): half}).partial("x1"),
                  p(R3, {(1, 0, 0): Fraction(2, 3)}) * p(R3, {(0, 1, 0): Fraction(3, 2)}),
                  p(R3, {(0, 0, 0): half}) ** 0):
            assert _stored_forms_ok(q)
            assert all(type(c) is int for c in q.terms.values()), q.terms

    def test_non_integral_stays_fraction(self):
        q = x1.scale(Fraction(2, 4))
        assert q.terms == {(1, 0, 0): Fraction(1, 2)}
        assert type(q.terms[(1, 0, 0)]) is Fraction

    @given(poly_strategy(R2), poly_strategy(R2), st.sampled_from(
        [Fraction(1, 2), Fraction(2), Fraction(-3, 2), 2, -1, 0]))
    @settings(max_examples=80, deadline=None)
    def test_every_operation_stores_normal_forms(self, a, b, c):
        uv = chart("u v")
        images = {"x1": Poly(uv, {(1, 0): Fraction(1, 2), (0, 1): 2}),
                  "x2": Poly(uv, {(0, 1): Fraction(2, 3), (0, 0): Fraction(3, 2)})}
        for q in (a, a + b, a - b, -a, a * b, a.scale(c), c * a,
                  a.partial("x1"), a.partial(1), a.substitute(uv, images), a ** 2, b ** 3):
            assert _stored_forms_ok(q), q.terms


class TestDerivative:
    def test_power_rule_oracle(self):
        # d/dx1 of 3/2 x1^3 x2 is, term by term, 3 * 3/2 x1^2 x2
        q = p(R3, {(3, 1, 0): Fraction(3, 2)})
        assert q.partial("x1") == p(R3, {(2, 1, 0): Fraction(9, 2)})
        assert q.partial("x3").is_zero

    @given(poly_strategy(R2), poly_strategy(R2))
    @settings(max_examples=60, deadline=None)
    def test_leibniz_rule(self, a, b):
        lhs = (a * b).partial("x1")
        assert lhs == a.partial("x1") * b + a * b.partial("x1")

    @given(poly_strategy(R2))
    @settings(max_examples=40, deadline=None)
    def test_partials_commute(self, a):
        assert a.partial("x1").partial("x2") == a.partial("x2").partial("x1")


class TestSubstitute:
    def test_expansion_oracle(self):
        # x1^2 under x1 -> u + v equals u^2 + 2uv + v^2, expanded by hand
        uv = chart("u v")
        u = Poly.coordinate(uv, "u")
        v = Poly.coordinate(uv, "v")
        img = {"x1": u + v, "x2": Poly.zero(uv), "x3": Poly.zero(uv)}
        assert (x1 * x1).substitute(uv, img) == u * u + 2 * u * v + v * v

    def test_requires_every_coordinate(self):
        uv = chart("u v")
        with pytest.raises(ValueError):
            x1.substitute(uv, {"x1": Poly.coordinate(uv, "u")})

    def test_subs_some_leaves_rest_alone(self):
        q = x1 * x2 + x3
        assert q.subs_some({"x2": x3}) == x1 * x3 + x3

    @given(poly_strategy(R2), poly_strategy(R2), poly_strategy(R2))
    @settings(max_examples=40, deadline=None)
    def test_substitution_is_ring_map(self, a, b, img):
        images = {"x1": img, "x2": Poly.coordinate(R2, "x2")}
        fa = a.substitute(R2, images)
        fb = b.substitute(R2, images)
        assert (a * b).substitute(R2, images) == fa * fb
        assert (a + b).substitute(R2, images) == fa + fb


class TestCanonicalString:
    def test_frozen_examples(self):
        assert Poly.zero(R3).canonical_str() == "0"
        assert Poly.one(R3).canonical_str() == "1"
        q = p(R3, {(2, 1, 0): Fraction(3, 2), (0, 0, 0): -1})
        assert q.canonical_str() == "3/2*x1^2*x2 - 1"
        assert (-x1).canonical_str() == "-x1"

    def test_graded_lex_order(self):
        # degree first, then lexicographic on exponents
        q = p(R3, {(1, 0, 0): 1, (0, 0, 1): 1, (2, 0, 0): 1})
        assert q.canonical_str() == "x1^2 + x1 + x3"


class TestReduceModSolved:
    def test_single_pass_substitution(self):
        # on {x3 = x1*x2}: x3^2 - x1 reduces to x1^2*x2^2 - x1
        solved = {"x3": x1 * x2}
        q = x3 * x3 - x1
        assert reduce_mod_solved(q, solved) == x1 * x1 * x2 * x2 - x1

    def test_image_may_not_mention_solved_coord(self):
        with pytest.raises(ValueError):
            reduce_mod_solved(x1, {"x3": x3 + x1})

    def test_membership_of_defining_function(self):
        solved = {"x3": x1 * x2}
        assert reduce_mod_solved(x3 - x1 * x2, solved).is_zero


class TestMonomialSweep:
    def test_canonical_order_r2(self):
        mons = monomials_up_to(R2, 2)
        strs = [m.canonical_str() for m in mons]
        assert strs == ["x1", "x2", "x1^2", "x1*x2", "x2^2"]

    def test_constant_excluded_by_default(self):
        assert all(m.total_degree() >= 1 for m in monomials_up_to(R3, 3))

    def test_count_r3_degree2(self):
        # 3 linear plus 6 quadratic
        assert len(monomials_up_to(R3, 2)) == 9
