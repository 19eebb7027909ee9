"""One-form bracket, dual-pair axioms, delta operator, pointwise tables."""

from fractions import Fraction

import pytest

from nambu.exterior import Form, MultiVec, wedge_all
from nambu.formsbialg import (
    FilippovTable,
    SubalgebroidModel,
    coiso_subalgebroid_check,
    compatibility_defect,
    conormal_restriction_check,
    delta_compatibility_check,
    delta_pi,
    delta_pi_wedge,
    form_bracket,
    form_bracket_both,
    form_bracket_lie_expansion,
    form_bracket_properties,
    induced_base_bracket,
    pointwise_filippov,
    tangent_pair_model,
    tangent_subalgebroid,
    wlfb_check,
)
from nambu.geomaps import (
    PolyMap,
    SolvedSubmanifold,
    coisotropy_check,
    graph_submanifold,
    opposite_sign,
    product_structure,
)
from nambu.ratpoly import Poly, chart
from nambu.structures import NambuStructure, nambu_bracket, volume_structure

from _gen import R3, SeededSampler

x1 = Poly.coordinate(R3, "x1")
x2 = Poly.coordinate(R3, "x2")
x3 = Poly.coordinate(R3, "x3")
dx1, dx2, dx3 = (Form.coordinate_differential(R3, c) for c in R3.coords)
d1, d2, d3 = (MultiVec.coordinate_field(R3, c) for c in R3.coords)
VOL3 = volume_structure(R3)
XVOL = NambuStructure(R3, 3, VOL3.tensor.scale(x1))


def r6_sum():
    ch = chart("x1 x2 x3 x4 x5 x6")
    return NambuStructure(
        ch, 3, MultiVec(ch, 3, {(0, 1, 2): Poly.one(ch), (3, 4, 5): Poly.one(ch)})
    )


class TestFormBracket:
    def test_exact_arguments_give_exact_bracket(self):
        assert form_bracket(VOL3, [dx1, dx2, dx3]).is_zero

    def test_frozen_leibniz_case(self):
        out = form_bracket(VOL3, [dx1, dx2, dx3.scale(x3)])
        assert out == dx3

    def test_repeated_argument_kills(self):
        assert form_bracket(VOL3, [dx1, dx1, dx3.scale(x3 * x2)]).is_zero

    def test_arity(self):
        with pytest.raises(ValueError):
            form_bracket(VOL3, [dx1, dx2])

    def test_two_expansions_agree_on_seeded_inputs(self):
        sampler = SeededSampler(97)
        for s in (VOL3, XVOL, r6_sum()):
            for _ in range(25):
                alphas = [sampler.form(s.chart, 1, 2) for _ in range(s.order)]
                a, b = form_bracket_both(s, alphas)
                assert a == b

    def test_lie_expansion_matches_frozen_case(self):
        out = form_bracket_lie_expansion(VOL3, [dx1, dx2, dx3.scale(x3)])
        assert out == dx3


class TestBracketProperties:
    def test_volume_all_pass(self):
        r = form_bracket_properties(VOL3, trials=5, degree=2, seed=3)
        assert r.all_pass

    def test_scaled_volume_all_pass(self):
        r = form_bracket_properties(XVOL, trials=5, degree=2, seed=3)
        assert r.all_pass

    def test_non_nambu_sum_fails_an_identity(self):
        r = form_bracket_properties(r6_sum(), trials=5, degree=2, seed=3)
        assert not r.verdict("fundamental") or not r.verdict("morphism")
        assert r.verdict("skew") and r.verdict("exact") and r.verdict("leibniz")
        assert r.failures  # first counterexample is retained

    def test_report_embeds_seed(self):
        r = form_bracket_properties(VOL3, trials=2, degree=1, seed=42)
        assert r.seed == 42 and r.trials == 2


class TestConormalRestriction:
    def test_diagonal_of_pair_structure(self):
        prod = product_structure(VOL3, VOL3, opposite_sign(3))
        diag = graph_submanifold(PolyMap.identity(R3))
        r = conormal_restriction_check(prod, diag, trials=4, seed=11)
        assert r.passed

    def test_low_codimension_trivial_pass(self):
        sub = SolvedSubmanifold(R3, (("x3", Poly.zero(R3)),))
        assert conormal_restriction_check(VOL3, sub, trials=2, seed=1).passed

    def test_non_coisotropic_precondition_reported(self):
        prod = product_structure(VOL3, VOL3, opposite_sign(3))
        two = PolyMap(R3, R3, tuple(2 * Poly.coordinate(R3, c) for c in R3.coords))
        r = conormal_restriction_check(prod, graph_submanifold(two), trials=2, seed=1)
        assert not r.passed
        assert not r.coisotropy.coisotropic


class TestDelta:
    def test_function_contraction(self):
        assert delta_pi(VOL3, x1) == d2.wedge(d3)

    def test_constant_field_on_constant_tensor(self):
        assert delta_pi(VOL3, d1).is_zero

    def test_field_on_scaled_volume(self):
        assert delta_pi(XVOL, d1) == -wedge_all([d1, d2, d3])

    def test_higher_grade_requires_factors(self):
        with pytest.raises(ValueError):
            delta_pi(VOL3, d1.wedge(d2))

    def test_wedge_extension_representation_independent(self):
        # (x1 d2)^d3 and d3^(-x1 d2) are the same bivector
        xd2 = MultiVec(R3, 1, {(1,): x1})
        a = delta_pi_wedge(XVOL, [xd2, d3])
        b = delta_pi_wedge(XVOL, [d3, xd2.scale(Fraction(-1))])
        assert xd2.wedge(d3) == d3.wedge(xd2.scale(Fraction(-1)))
        assert a == b

    def test_compatibility_on_fields(self):
        assert delta_compatibility_check(VOL3, d1, d2).passed
        assert delta_compatibility_check(
            XVOL, d1, MultiVec(R3, 1, {(1,): x2})
        ).passed

    def test_dd_probe_is_recorded_not_asserted(self):
        factors = [MultiVec(R3, 1, {(1,): x1}), d3]
        r = delta_compatibility_check(XVOL, d1, d2, dd_function=x1, dd_factors=factors)
        assert r.dd_vanishes in (True, False)

    def test_dd_probe_validates_factors(self):
        with pytest.raises(ValueError):
            delta_compatibility_check(XVOL, d1, d2, dd_function=x1, dd_factors=[d1, d2])


class TestWlfb:
    def test_volume_passes(self):
        assert wlfb_check(VOL3, trials=3, degree=2, seed=5).all_pass

    def test_scaled_volume_passes(self):
        assert wlfb_check(XVOL, trials=3, degree=2, seed=5).all_pass

    def test_order_two_reports_unrestricted_variants(self):
        R2 = chart("q p")
        w = NambuStructure(
            R2,
            2,
            MultiVec(R2, 2, {(0, 1): Poly.one(R2) + Poly.coordinate(R2, "q")}),
        )
        r = wlfb_check(w, trials=3, degree=2, seed=5)
        assert r.all_pass
        names = [a.name for a in r.unrestricted]
        assert names == ["fundamental_unrestricted", "anchor_unrestricted"]
        assert all(a.passed for a in r.unrestricted)

    def test_higher_order_reports_no_unrestricted(self):
        assert wlfb_check(VOL3, trials=1, degree=1, seed=0).unrestricted == ()

    @pytest.mark.parametrize("check", [wlfb_check, form_bracket_properties])
    @pytest.mark.parametrize("degree", [0, -1])
    def test_degree_must_be_positive(self, check, degree):
        # degree 0 samples only constants, under which every axiom holds
        with pytest.raises(ValueError, match="degree must be at least 1"):
            check(XVOL, trials=1, degree=degree, seed=0)

    def test_compatibility_defect_zero_on_seeded_forms(self):
        sampler = SeededSampler(71)
        for s in (VOL3, XVOL):
            for _ in range(6):
                alphas = [sampler.form(R3, 1, 2) for _ in range(3)]
                assert compatibility_defect(s, alphas).is_zero


class TestInducedBaseBracket:
    def test_tangent_pair_reproduces_bracket(self):
        m = tangent_pair_model(XVOL)
        for fs in ([x1, x2, x3], [x1 * x2, x3, x1], [x2, x2, x3]):
            assert induced_base_bracket(m, fs) == nambu_bracket(XVOL, fs)

    def test_zero_structure(self):
        z = NambuStructure(R3, 3, MultiVec.zero(R3, 3))
        m = tangent_pair_model(z)
        assert induced_base_bracket(m, [x1, x2, x3]).is_zero

    def test_arity(self):
        with pytest.raises(ValueError):
            induced_base_bracket(tangent_pair_model(VOL3), [x1, x2])


class TestPointwiseFilippov:
    def test_scaled_volume_at_origin(self):
        t = pointwise_filippov(XVOL, {"x1": 0, "x2": 0, "x3": 0})
        assert t.canonical_str() == "[e1,e2,e3] = e1"
        assert t.coefficient((0, 1, 2), 0) == 1
        assert t.coefficient((1, 0, 2), 0) == -1
        assert t.coefficient((0, 0, 2), 0) == 0
        assert t.fundamental_identity_defects() == []

    def test_nonvanishing_tensor_rejected(self):
        with pytest.raises(ValueError):
            pointwise_filippov(VOL3, {"x1": 0, "x2": 0, "x3": 0})

    def test_zero_structure_gives_zero_table(self):
        z = NambuStructure(R3, 3, MultiVec.zero(R3, 3))
        t = pointwise_filippov(z, {"x1": 1, "x2": 2, "x3": 3})
        assert t.is_zero()
        assert t.fundamental_identity_defects() == []

    def test_tables_pass_identity_for_certified_structures(self):
        # quadratic-coefficient top tensor vanishing at the origin
        s = NambuStructure(R3, 3, VOL3.tensor.scale(x1 + 2 * x2))
        t = pointwise_filippov(s, {"x1": 0, "x2": 0, "x3": 0})
        assert t.fundamental_identity_defects() == []


class TestSubalgebroid:
    def test_tangent_bundle_of_coisotropic_base(self):
        N = SolvedSubmanifold(R3, (("x2", Poly.zero(R3)), ("x3", Poly.zero(R3))))
        r = coiso_subalgebroid_check(VOL3, tangent_subalgebroid(N), trials=3, seed=9)
        assert r.passed

    def test_non_tangent_frame_rejected(self):
        N = SolvedSubmanifold(R3, (("x2", Poly.zero(R3)), ("x3", Poly.zero(R3))))
        with pytest.raises(ValueError):
            SubalgebroidModel(N, (d2,))

    def test_base_verdict_matches_direct_coisotropy(self):
        for solved in (
            (("x3", Poly.zero(R3)),),
            (("x2", Poly.zero(R3)), ("x3", Poly.zero(R3))),
        ):
            N = SolvedSubmanifold(R3, solved)
            r = coiso_subalgebroid_check(VOL3, tangent_subalgebroid(N), trials=2, seed=1)
            assert r.base_coisotropy.coisotropic == coisotropy_check(VOL3, N).coisotropic
