"""Exact polynomial arithmetic against independent term-level oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nambu.ratpoly import (
    MAX_EXPONENT,
    Chart,
    Poly,
    chart,
    concat_charts,
    lift_poly,
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


# The tuple-keyed kernel that packed monomials replaced, kept here only as a
# reference: exponent vectors as tuples, coefficients as Fractions.

def _ref_mul(a, b):
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            acc[key] = acc.get(key, 0) + Fraction(c1) * c2
    return {e: c for e, c in acc.items() if c}


def _ref_partial(a, i):
    acc = {}
    for exps, c in a.items():
        if exps[i]:
            key = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            acc[key] = acc.get(key, 0) + Fraction(c) * exps[i]
    return {e: c for e, c in acc.items() if c}


def _ref_substitute(a, images, target_dim):
    acc = {}
    for exps, c in a.items():
        term = {(0,) * target_dim: Fraction(c)}
        for img, e in zip(images, exps):
            for _ in range(e):
                term = _ref_mul(term, img)
        for key, v in term.items():
            acc[key] = acc.get(key, 0) + v
    return {e: c for e, c in acc.items() if c}


def _seeded_terms(rng, dim, rational, max_terms=8, max_degree=4):
    out = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(dim)] += 1
        den = rng.choice((1, 2, 3, 6)) if rational else 1
        out[tuple(exps)] = Fraction(rng.randint(-9, 9), den)
    return out


CHARTS = [chart(" ".join(f"y{i}" for i in range(1, n + 1)), f"R{n}") for n in range(1, 7)]


class TestPackedKernelAgainstReference:
    @pytest.mark.parametrize("ch", CHARTS, ids=lambda c: c.name)
    @pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
    def test_mul_and_partial(self, ch, rational):
        rng = random.Random(ch.dim * 10 + rational)
        for _ in range(25):
            a = _seeded_terms(rng, ch.dim, rational)
            b = _seeded_terms(rng, ch.dim, rational)
            pa, pb = Poly(ch, a), Poly(ch, b)
            assert (pa * pb).terms == _ref_mul(a, b)
            assert _stored_forms_ok(pa * pb)
            for i in range(ch.dim):
                assert pa.partial(i).terms == _ref_partial(a, i)
                assert _stored_forms_ok(pa.partial(i))

    @pytest.mark.parametrize("ch", CHARTS, ids=lambda c: c.name)
    @pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
    def test_substitute(self, ch, rational):
        rng = random.Random(ch.dim * 10 + rational + 100)
        target = chart("u v w")
        for _ in range(6):
            a = _seeded_terms(rng, ch.dim, rational, max_terms=5, max_degree=3)
            imgs = [_seeded_terms(rng, 3, rational, max_terms=3, max_degree=2)
                    for _ in range(ch.dim)]
            got = Poly(ch, a).substitute(
                target, {c: Poly(target, t) for c, t in zip(ch.coords, imgs)})
            assert got.terms == _ref_substitute(a, imgs, 3)
            assert _stored_forms_ok(got)


class TestExponentBound:
    ch = chart("x y")

    def mono(self, *exps):
        return Poly.monomial(self.ch, exps)

    def test_bound_value(self):
        assert MAX_EXPONENT == 2**31 - 1

    def test_constructor_rejects_exponents_above_the_bound(self):
        assert self.mono(MAX_EXPONENT, MAX_EXPONENT).terms == {(MAX_EXPONENT, MAX_EXPONENT): 1}
        for exps in ([2**31, 0], [0, 2**31], [2**40, 1]):
            with pytest.raises(ValueError, match="exponent above 2147483647"):
                Poly.monomial(self.ch, exps)

    @pytest.mark.parametrize("exps", [(1,), (1, 0, 0), (1, -1), (-2**40, 0), (Fraction(1, 2), 0)])
    def test_constructor_rejects_malformed_vectors(self, exps):
        with pytest.raises(ValueError, match="bad exponent vector"):
            Poly.monomial(self.ch, exps)

    def test_products_landing_on_the_bound(self):
        half = 2**30
        assert (self.mono(half, 0) * self.mono(half - 1, 3)).terms == {(MAX_EXPONENT, 3): 1}
        assert (self.mono(MAX_EXPONENT, 0) * self.mono(0, MAX_EXPONENT)).terms == {
            (MAX_EXPONENT, MAX_EXPONENT): 1}
        assert (self.mono(1, 0) ** MAX_EXPONENT).terms == {(MAX_EXPONENT, 0): 1}

    @pytest.mark.parametrize("left,right", [
        ((2**30, 0), (2**30, 0)),
        ((MAX_EXPONENT, 0), (1, 0)),
        ((0, MAX_EXPONENT), (5, 1)),
        ((MAX_EXPONENT, MAX_EXPONENT), (MAX_EXPONENT, MAX_EXPONENT)),
    ])
    def test_products_crossing_the_bound_raise(self, left, right):
        a = self.mono(*left) + Poly.one(self.ch)
        with pytest.raises(ValueError, match="exponent above 2147483647"):
            a * self.mono(*right)
        with pytest.raises(ValueError, match="exponent above 2147483647"):
            self.mono(*right) * a

    def test_power_crossing_the_bound_raises(self):
        with pytest.raises(ValueError, match="exponent above 2147483647"):
            self.mono(0, 1) ** (MAX_EXPONENT + 1)

    def test_partial_at_the_bound(self):
        q = self.mono(MAX_EXPONENT, 2).partial("x")
        assert q.terms == {(MAX_EXPONENT - 1, 2): MAX_EXPONENT}


class TestPackedLayout:
    def test_key_layout(self):
        key = 1 | 2 << 32 | 3 << 32 * 2
        assert R3._pack((1, 2, 3)) == key
        assert R3._unpack(key) == (1, 2, 3)
        assert Poly.monomial(R3, (1, 2, 3), 5)._terms == {key: 5}
        assert Poly.coordinate(R3, "x3")._terms == {1 << 64: 1}
        assert Poly.constant(R3, Fraction(1, 2))._terms == {0: Fraction(1, 2)}

    def test_terms_round_trip(self):
        rng = random.Random(11)
        for ch in CHARTS:
            for rational in (False, True):
                t = _seeded_terms(rng, ch.dim, rational)
                q = Poly(ch, t)
                assert q.terms == {e: c for e, c in t.items() if c}
                assert Poly(ch, q.terms) == q
                assert Poly(ch, q.terms).terms == q.terms

    def test_terms_is_read_only(self):
        with pytest.raises(AttributeError):
            x1.terms = {}

    def test_terms_view_reads_and_writes_the_polynomial(self):
        q = p(R3, {(1, 0, 0): 2, (0, 1, 1): Fraction(1, 2)})
        view = q.terms
        assert len(view) == 2 and (0, 1, 1) in view and (5, 0, 0) not in view
        assert (1, 2) not in view and (2**31, 0, 0) not in view
        assert sorted(view) == [(0, 1, 1), (1, 0, 0)]
        assert sorted(view.values()) == [Fraction(1, 2), 2]
        view[(0, 1, 1)] += Fraction(1, 2)
        assert q == p(R3, {(1, 0, 0): 2, (0, 1, 1): 1})
        assert type(q.terms[(0, 1, 1)]) is int
        view[(1, 0, 0)] = 0
        assert q == p(R3, {(0, 1, 1): 1})
        with pytest.raises(ValueError, match="exponent above 2147483647"):
            view[(2**31, 0, 0)] = 1

    def test_equal_however_built(self):
        built = [
            Poly(R3, {(2, 1, 0): 6, (0, 0, 1): Fraction(1, 2)}),
            Poly.monomial(R3, (1, 1, 0), 3) * Poly.monomial(R3, (1, 0, 0), 2)
            + Poly.monomial(R3, (0, 0, 1), Fraction(1, 2)),
            (Poly.monomial(R3, (3, 1, 0), 2) + Poly.monomial(R3, (1, 0, 1), Fraction(1, 2)))
            .partial("x1"),
            (x1 * x1 * x2).scale(6) + x3.scale(Fraction(1, 2)),
        ]
        for q in built:
            assert q == built[0]
            assert hash(q) == hash(built[0])
        assert len(set(built)) == 1

    def test_structure_queries(self):
        q = p(R3, {(2, 0, 3): 1, (0, 0, 1): 2})
        assert q.total_degree() == 5
        assert q.mentions("x1") and q.mentions("x3") and not q.mentions("x2")
        assert q.support_indices() == {0, 2}
        assert q.eval_at({"x1": 2, "x2": 7, "x3": Fraction(1, 2)}) == Fraction(3, 2)
        big, blocks = concat_charts(R3, R3)
        lifted = lift_poly(q, big, blocks[1])
        assert lifted.terms == {(0, 0, 0, 2, 0, 3): 1, (0, 0, 0, 0, 0, 1): 2}
