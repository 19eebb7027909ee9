"""Differential operators: frozen examples plus the graded bracket laws.

The Schouten convention is pinned by four identities (restriction to
vector fields, action on functions, graded skew, graded Leibniz); the
property tests below enforce all of them on randomized tensors, so any
sign drift in a refactor fails loudly.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from nambu.cartan import de_rham_d, lie_derivative, schouten
from nambu.exterior import Form, MultiVec, interior_product, pairing, wedge_all
from nambu.ratpoly import Poly

from _gen import R3, R4, SeededSampler, form_strategy, multivec_strategy, poly_strategy

x1 = Poly.coordinate(R3, "x1")
x2 = Poly.coordinate(R3, "x2")
x3 = Poly.coordinate(R3, "x3")
d1, d2, d3 = (MultiVec.coordinate_field(R3, c) for c in R3.coords)
dx1, dx2, dx3 = (Form.coordinate_differential(R3, c) for c in R3.coords)


def grade_of(t):
    return t.grade


class TestDeRham:
    def test_differential_of_function(self):
        df = de_rham_d(x1 * x2)
        assert df == dx1.scale(x2) + dx2.scale(x1)

    def test_frozen_two_form(self):
        om = dx2.scale(x1)
        assert de_rham_d(om) == dx1.wedge(dx2)

    def test_top_form_goes_to_zero(self):
        om = wedge_all([dx1, dx2, dx3]).scale(x1)
        assert de_rham_d(om).is_zero
        assert de_rham_d(om).grade == 4

    @given(form_strategy(R4, 1), form_strategy(R4, 2))
    @settings(max_examples=60, deadline=None)
    def test_dd_is_zero(self, a, b):
        assert de_rham_d(de_rham_d(a)).is_zero
        assert de_rham_d(de_rham_d(b)).is_zero

    @given(form_strategy(R3, 1), form_strategy(R3, 1))
    @settings(max_examples=40, deadline=None)
    def test_antiderivation(self, a, b):
        lhs = de_rham_d(a.wedge(b))
        assert lhs == de_rham_d(a).wedge(b) - a.wedge(de_rham_d(b))


class TestLieDerivative:
    def test_on_functions_is_directional(self):
        assert lie_derivative(d1.scale(x2), x1 * x1) == 2 * x1 * x2

    def test_frozen_on_forms(self):
        # L_(x1 d2) dx2 = d(x1) = dx1
        assert lie_derivative(d1.scale(x1), Form.from_poly(x1)) == Form.from_poly(x1)
        assert lie_derivative(MultiVec(R3, 1, {(1,): x1}), dx2) == dx1

    def test_frozen_on_multivectors(self):
        vol = wedge_all([d1, d2, d3]).scale(x1)
        assert lie_derivative(d1, vol) == wedge_all([d1, d2, d3])

    @given(multivec_strategy(R3, 1, max_degree=1), form_strategy(R3, 1), multivec_strategy(R3, 1, max_degree=1))
    @settings(max_examples=50, deadline=None)
    def test_pairing_leibniz(self, x, om, y):
        # X<om, Y> = <L_X om, Y> + <om, [X, Y]>
        lhs = lie_derivative(x, pairing(om, y))
        rhs = pairing(lie_derivative(x, om), y) + pairing(om, schouten(x, y))
        assert Form.from_poly(lhs) == Form.from_poly(rhs) or lhs == rhs

    @given(multivec_strategy(R3, 1, max_degree=1), form_strategy(R3, 2))
    @settings(max_examples=50, deadline=None)
    def test_cartan_formula_cross_check(self, x, om):
        # d(i_X om) + i_X d om, recomputed from parts, matches lie_derivative
        from nambu.exterior import vector_interior

        expect = de_rham_d(vector_interior(x, om)) + vector_interior(x, de_rham_d(om))
        assert lie_derivative(x, om) == expect

    @given(multivec_strategy(R3, 1, max_degree=1))
    @settings(max_examples=30, deadline=None)
    def test_commutes_with_d_on_functions(self, x):
        f = x1 * x2 + x3 * x3
        assert lie_derivative(x, de_rham_d(f)) == de_rham_d(lie_derivative(x, f))


class TestSchouten:
    def test_restricts_to_vector_bracket(self):
        # [x1 d2, d1] = -d2
        assert schouten(MultiVec(R3, 1, {(1,): x1}), d1) == -d2

    def test_action_on_function(self):
        # for a bivector both [P, f] and [f, P] reduce to -i_(df) P
        p = d1.wedge(d2)
        expect = -interior_product(p, [de_rham_d(x1)])
        assert schouten(p, x1) == expect
        assert schouten(x1, p) == expect

    def test_constant_decomposable_is_null(self):
        vol = wedge_all([d1, d2, d3])
        assert schouten(vol, vol).is_zero

    def test_two_functions_rejected(self):
        with pytest.raises(ValueError):
            schouten(x1, x2)

    @given(multivec_strategy(R3, 1, max_degree=1), multivec_strategy(R3, 2, max_degree=1))
    @settings(max_examples=50, deadline=None)
    def test_equals_lie_derivative_for_fields(self, x, q):
        assert schouten(x, q) == lie_derivative(x, q)

    @given(
        multivec_strategy(R3, 1, max_degree=1),
        multivec_strategy(R3, 2, max_degree=1),
    )
    @settings(max_examples=50, deadline=None)
    def test_graded_skew(self, p, q):
        gp, gq = p.grade, q.grade
        sign = Fraction((-1) ** ((gp - 1) * (gq - 1)))
        assert schouten(p, q) == schouten(q, p).scale(-sign)

    @given(
        multivec_strategy(R3, 2, max_degree=1),
        multivec_strategy(R3, 1, max_degree=1),
        multivec_strategy(R3, 1, max_degree=1),
    )
    @settings(max_examples=40, deadline=None)
    def test_graded_leibniz(self, p, q, r):
        gp, gq = p.grade, q.grade
        sign = Fraction((-1) ** ((gp - 1) * gq))
        lhs = schouten(p, q.wedge(r))
        rhs = schouten(p, q).wedge(r) + q.wedge(schouten(p, r)).scale(sign)
        assert lhs == rhs

    @given(
        multivec_strategy(R3, 1, max_degree=1),
        multivec_strategy(R3, 2, max_degree=1),
        multivec_strategy(R3, 2, max_degree=1),
    )
    @settings(max_examples=30, deadline=None)
    def test_graded_jacobi(self, p, q, r):
        gp, gq = p.grade, q.grade
        sign = Fraction((-1) ** ((gp - 1) * (gq - 1)))
        lhs = schouten(p, schouten(q, r))
        rhs = schouten(schouten(p, q), r) + schouten(q, schouten(p, r)).scale(sign)
        assert lhs == rhs


def _reference_schouten(p, q):
    """The per-k formula built from whole tensors: contract, differentiate, wedge, sum.

    An independent restatement of the module docstring's formula, kept here
    as the reference the one-pass accumulation must match.
    """

    def contract(t, k):
        acc = {}
        for idx, c in t.comps.items():
            if k in idx:
                j = idx.index(k)
                acc[idx[:j] + idx[j + 1:]] = c if j % 2 == 0 else -c
        return MultiVec(t.chart, max(t.grade - 1, 0), acc)

    def differentiate(t, k):
        return MultiVec(t.chart, t.grade, {i: c.partial(k) for i, c in t.comps.items()})

    gp, gq = p.grade, q.grade
    sign_a = 1 if (gp - 1) % 2 == 0 else -1
    sign_b = 1 if ((gp - 1) * (gq - 1) + (gq - 1)) % 2 == 0 else -1
    acc = MultiVec.zero(p.chart, gp + gq - 1)
    for k in range(p.chart.dim):
        if gp >= 1:
            acc = acc + contract(p, k).wedge(differentiate(q, k)).scale(sign_a)
        if gq >= 1:
            acc = acc - contract(q, k).wedge(differentiate(p, k)).scale(sign_b)
    return acc


def _integral(t):
    """The same tensor shape with every coefficient replaced by an integer."""
    return MultiVec(t.chart, t.grade, {
        i: Poly(t.chart, {e: c.numerator * 2 + 1 for e, c in p.terms.items()})
        for i, p in t.comps.items()
    })


class TestOnePassSchouten:
    GRADE_PAIRS = [(gp, gq) for gp in range(4) for gq in range(4) if gp + gq >= 1]

    @pytest.mark.parametrize("gp,gq", GRADE_PAIRS)
    @pytest.mark.parametrize("integral", [False, True], ids=["rational", "integer"])
    def test_matches_reference_formula(self, gp, gq, integral):
        smp = SeededSampler(100 * gp + 10 * gq + integral)
        for _ in range(12):
            p = smp.multivec(R4, gp)
            q = smp.multivec(R4, gq)
            if integral:
                p, q = _integral(p), _integral(q)
            got = schouten(p, q)
            assert got == _reference_schouten(p, q)
            assert got.grade == gp + gq - 1
            for c in got.comps.values():
                for v in c.terms.values():
                    assert type(v) is int or v.denominator != 1
                    if integral:
                        assert type(v) is int

    def test_functions_are_promoted(self):
        f = x1 * x2
        assert schouten(d1, f) == _reference_schouten(d1, MultiVec.from_poly(f))
        assert schouten(f, d2.wedge(d3)) == _reference_schouten(
            MultiVec.from_poly(f), d2.wedge(d3))

    def test_two_functions_rejected(self):
        with pytest.raises(ValueError):
            schouten(x1, x2)
