"""Groupoid laws, group laws, pair models, bundles of groups,
multiplicativity, and the subgroupoid chain."""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nambu.exterior import MultiVec
from nambu.formsbialg import induced_base_bracket, pointwise_filippov
from nambu.geomaps import PolyMap, SolvedSubmanifold, opposite_sign
from nambu.groupoids import (
    Groupoid,
    NotCoisotropicError,
    PointStructure,
    base_structure,
    coiso_subgroupoid_check,
    conormal_pair_model,
    group_law,
    heisenberg_group,
    inversion_check,
    multiplicativity_check,
    pair_groupoid,
    restricted_subgroupoid,
    theorem_diagnostics,
    translation_group,
    translation_identity_defects,
)
from nambu.ratpoly import Poly, chart, concat_charts
from nambu.structures import NambuStructure, nambu_bracket, volume_structure

from _gen import R3

x1 = Poly.coordinate(R3, "x1")
x2 = Poly.coordinate(R3, "x2")
x3 = Poly.coordinate(R3, "x3")
VOL3 = volume_structure(R3)
XVOL = NambuStructure(R3, 3, VOL3.tensor.scale(x1))
ORIGIN = SolvedSubmanifold(R3, tuple((c, Poly.zero(R3)) for c in R3.coords))


def poisson_disc():
    R2 = chart("q p")
    q = Poly.coordinate(R2, "q")
    return NambuStructure(R2, 2, MultiVec(R2, 2, {(0, 1): Poly.one(R2) + q}))


class TestGroupLaw:
    def test_translation_constructs(self):
        g = translation_group(R3)
        assert g.units.solved == tuple((c, Poly.zero(R3)) for c in R3.coords)
        assert g.mult.comps[0].canonical_str() == "x1 + x1'"

    def test_heisenberg_constructs_and_is_noncommutative(self):
        h = heisenberg_group()
        doubled, (b1, b2) = concat_charts(h.chart, h.chart)
        flipped = tuple(b2) + tuple(b1)
        swapped = PolyMap(
            doubled,
            h.chart,
            tuple(
                c.substitute(
                    doubled,
                    {
                        doubled.coords[i]: Poly.coordinate(doubled, doubled.coords[j])
                        for i, j in zip(tuple(b1) + tuple(b2), flipped)
                    },
                )
                for c in h.mult.comps
            ),
        )
        assert swapped.comps != h.mult.comps

    def test_nonassociative_rejected(self):
        ch = chart("a")
        doubled, _ = concat_charts(ch, ch)
        a, a2 = (Poly.coordinate(doubled, c) for c in doubled.coords)
        bad = PolyMap(doubled, ch, (a + a2 * a2,))
        ident = PolyMap.identity(ch)
        with pytest.raises(ValueError, match="associative"):
            group_law(ch, bad, (Fraction(0),), ident)

    def test_unit_law_rejected(self):
        ch = chart("a")
        doubled, _ = concat_charts(ch, ch)
        a, a2 = (Poly.coordinate(doubled, c) for c in doubled.coords)
        shifted = PolyMap(doubled, ch, (a + a2 + Poly.one(doubled),))
        neg = PolyMap(ch, ch, (-Poly.coordinate(ch, "a"),))
        with pytest.raises(ValueError, match="unit"):
            group_law(ch, shifted, (Fraction(0),), neg)

    def test_inverse_law_rejected(self):
        ch = chart("a")
        doubled, _ = concat_charts(ch, ch)
        a, a2 = (Poly.coordinate(doubled, c) for c in doubled.coords)
        add = PolyMap(doubled, ch, (a + a2,))
        ident = PolyMap.identity(ch)
        with pytest.raises(ValueError, match="inverse"):
            group_law(ch, add, (Fraction(0),), ident)

    def test_mult_chart_shape_rejected(self):
        g = translation_group(R3)
        with pytest.raises(ValueError):
            group_law(R3, PolyMap.identity(R3), (Fraction(0),) * 3, g.inv)

    def test_multiplication_graph_is_solved_form(self):
        g = translation_group(R3)
        graph = g.multiplication_graph()
        assert graph.solved_names == ("x1''", "x2''", "x3''")
        assert graph.solved_map()["x1''"].canonical_str() == "x1 + x1'"

    def test_unit_point_has_no_free_coordinates(self):
        g = translation_group(R3)
        assert g.units.dim == 0


class TestGroupoidLaws:
    """Each law the constructor checks, with one input that breaks it."""

    def pair(self):
        return pair_groupoid(poisson_disc())

    def test_pair_model_fields(self):
        pg = self.pair()
        assert (pg.source, pg.target) == ((0, 1), (2, 3))
        assert pg.units.solved_map()["q'"].canonical_str() == "q"
        assert [c.canonical_str() for c in pg.inv.comps] == ["q'", "p'", "q", "p"]

    def test_inv_chart_shape(self):
        pg = self.pair()
        with pytest.raises(ValueError, match="inv must map the chart to itself"):
            dataclasses.replace(pg, inv=pg.mult)

    def test_source_and_target_positions(self):
        with pytest.raises(ValueError, match="arrow coordinate positions"):
            dataclasses.replace(self.pair(), target=(2, 4))

    def test_units_solved_over_the_source(self):
        pg = self.pair()
        q, p, q2, p2 = (Poly.coordinate(pg.chart, c) for c in pg.chart.coords)
        over_target = SolvedSubmanifold(pg.chart, (("q", q2), ("p", p2)))
        with pytest.raises(ValueError, match="solved over the source"):
            dataclasses.replace(pg, units=over_target)

    def test_doubled_base_structure_on_the_arrow_chart(self):
        with pytest.raises(ValueError, match="must live on the arrow chart"):
            dataclasses.replace(self.pair(), over=VOL3)

    def test_units_have_equal_source_and_target(self):
        pg = self.pair()
        q, p, q2, p2 = (Poly.coordinate(pg.chart, c) for c in pg.chart.coords)
        shifted = SolvedSubmanifold(pg.chart, (("q'", q + Poly.one(pg.chart)), ("p'", p)))
        with pytest.raises(ValueError, match="units must have equal source and target"):
            dataclasses.replace(pg, units=shifted)

    def test_inverse_swaps_source_and_target(self):
        pg = self.pair()
        with pytest.raises(ValueError, match="inverse must swap source and target"):
            dataclasses.replace(pg, inv=PolyMap.identity(pg.chart))

    def test_product_runs_from_first_source_to_second_target(self):
        pg = self.pair()
        doubled = pg.mult.source
        first = tuple(Poly.coordinate(doubled, c) for c in doubled.coords[:4])
        with pytest.raises(ValueError, match="product must run"):
            dataclasses.replace(pg, mult=PolyMap(doubled, pg.chart, first))

    def test_right_unit(self):
        # g.h = h is associative with a left unit but no right unit
        ch = chart("a")
        doubled, _ = concat_charts(ch, ch)
        second = PolyMap(doubled, ch, (Poly.coordinate(doubled, "a'"),))
        with pytest.raises(ValueError, match="right unit law fails"):
            group_law(ch, second, (Fraction(0),), PolyMap.identity(ch))

    def test_unit_point_length(self):
        g = translation_group(R3)
        with pytest.raises(ValueError, match="one value per coordinate"):
            group_law(R3, g.mult, (Fraction(0),) * 2, g.inv)


class TestBundleOfGroups:
    """(t, x, y) -> (x, y) on both ends: a line of additive groups over the plane."""

    ch = chart("t x y")

    def bundle(self):
        ch = self.ch
        doubled, _ = concat_charts(ch, ch)
        t, x, y, t2, _, _ = (Poly.coordinate(doubled, c) for c in doubled.coords)
        tv, xv, yv = (Poly.coordinate(ch, c) for c in ch.coords)
        units = SolvedSubmanifold(ch, (("t", Poly.zero(ch)),))
        return Groupoid(ch, (1, 2), (1, 2), units,
                        PolyMap(doubled, ch, (t + t2, x, y)), PolyMap(ch, ch, (-tv, xv, yv)))

    def bivector(self, *terms):
        ch = self.ch
        acc = MultiVec.zero(ch, 2)
        for coeff, a, b in terms:
            field = MultiVec.coordinate_field(ch, a).wedge(MultiVec.coordinate_field(ch, b))
            acc = acc + field.scale(Poly.one(ch) if coeff == 1 else Poly.coordinate(ch, coeff))
        return NambuStructure(ch, 2, acc)

    def test_graph_glues_composable_pairs(self):
        graph = self.bundle().multiplication_graph()
        assert graph.solved_names == ("x'", "y'", "t''", "x''", "y''")
        assert [graph.solved_map()[c].canonical_str() for c in graph.solved_names] == [
            "x", "y", "t + t'", "x", "y",
        ]

    @pytest.mark.parametrize("terms", [
        [(1, "t", "x")],
        [("y", "t", "x")],
        [("x", "t", "y"), (1, "t", "x")],
    ])
    def test_fibre_bivectors_are_multiplicative(self, terms):
        g, s = self.bundle(), self.bivector(*terms)
        rep = multiplicativity_check(g, s)
        assert rep.multiplicative and rep.agree
        assert rep.translation_defects is None
        assert theorem_diagnostics(g, s).passed
        assert inversion_check(g, s).passed

    def test_base_bivector_is_not_multiplicative(self):
        g, s = self.bundle(), self.bivector((1, "x", "y"))
        rep = multiplicativity_check(g, s)
        assert not rep.multiplicative
        assert rep.graph.witness.canonical_str() == "frame (x', y') -> 2"
        diag = theorem_diagnostics(g, s)
        assert not diag.passed and diag.mixed_witness == ("x", "y")

    def test_fibre_dependent_bivector_is_not_multiplicative(self):
        g, s = self.bundle(), self.bivector(("t", "t", "x"))
        rep = multiplicativity_check(g, s)
        assert not rep.multiplicative
        assert rep.graph.witness.canonical_str() == "frame (x', t'') -> -t + t'"
        assert not inversion_check(g, s).passed


class TestPairOnlyFunctions:
    @pytest.mark.parametrize("call", [
        lambda g: conormal_pair_model(g),
        lambda g: restricted_subgroupoid(g, ORIGIN),
        lambda g: coiso_subgroupoid_check(g, ORIGIN),
    ])
    def test_group_law_is_rejected(self, call):
        with pytest.raises(ValueError, match="model has no base structure"):
            call(translation_group(chart("x y z")))


class TestGroupMultiplicativity:
    def test_scaled_volume_passes_both_routes(self):
        r = multiplicativity_check(translation_group(R3), XVOL)
        assert r.multiplicative and r.agree
        assert r.translation_defects == ()

    def test_constant_volume_fails_both_routes(self):
        r = multiplicativity_check(translation_group(R3), VOL3)
        assert not r.multiplicative and r.agree
        (J, d), = r.translation_defects
        assert J == (0, 1, 2) and d.canonical_str() == "-1"
        assert r.graph.witness is not None

    def test_heisenberg_constant_volume_fails(self):
        h = heisenberg_group()
        r = multiplicativity_check(h, volume_structure(h.chart))
        assert not r.multiplicative and r.agree

    def test_heisenberg_scaled_volume_passes(self):
        # unimodular translations: the first-coordinate scaling survives
        h = heisenberg_group()
        a = Poly.coordinate(h.chart, "a")
        s = NambuStructure(h.chart, 3, volume_structure(h.chart).tensor.scale(a))
        r = multiplicativity_check(h, s)
        assert r.multiplicative and r.agree

    def test_structure_chart_must_match(self):
        with pytest.raises(ValueError):
            multiplicativity_check(heisenberg_group(), VOL3)

    def test_translation_defects_shape(self):
        d = translation_identity_defects(translation_group(R3), XVOL)
        assert d == ()


class TestGroupDiagnostics:
    def test_scaled_volume_all_pass(self):
        td = theorem_diagnostics(translation_group(R3), XVOL)
        assert td.passed and td.unit.coisotropic

    def test_constant_volume_unit_fails(self):
        td = theorem_diagnostics(translation_group(R3), VOL3)
        assert not td.passed
        assert td.unit.witness.reduced.canonical_str() == "1"

    def test_inversion_on_scaled_volume(self):
        r = inversion_check(translation_group(R3), XVOL)
        assert r.passed
        assert r.identity_defects == ()

    def test_inversion_on_zero_structure(self):
        z = NambuStructure(R3, 3, MultiVec.zero(R3, 3))
        assert inversion_check(translation_group(R3), z).passed

    def test_base_of_group_is_a_point(self):
        out = base_structure(translation_group(R3), XVOL)
        assert out == PointStructure(3)
        assert out.is_zero

    def test_unit_table_is_a_finite_bracket(self):
        t = pointwise_filippov(XVOL, {"x1": 0, "x2": 0, "x3": 0})
        assert t.canonical_str() == "[e1,e2,e3] = e1"
        assert t.fundamental_identity_defects() == []


class TestPairGroupoid:
    def test_total_chart_and_structure(self):
        pg = pair_groupoid(VOL3)
        assert pg.chart.coords == ("x1", "x2", "x3", "x1'", "x2'", "x3'")
        assert pg.structure.tensor.component((0, 1, 2)).canonical_str() == "1"
        assert pg.structure.tensor.component((3, 4, 5)).canonical_str() == "1"

    def test_order_two_total_structure_flips_sign(self):
        pg = pair_groupoid(poisson_disc())
        assert pg.structure.tensor.component((0, 1)).canonical_str() == "q + 1"
        assert pg.structure.tensor.component((2, 3)).canonical_str() == "-q' - 1"

    def test_multiplication_graph_solved_names(self):
        pg = pair_groupoid(VOL3)
        graph = pg.multiplication_graph()
        assert set(graph.solved_names) == {
            "x1''", "x2''", "x3''",
            "x1''''", "x2''''", "x3''''",
            "x1'''''", "x2'''''", "x3'''''",
        }
        assert graph.solved_map()["x1''"].canonical_str() == "x1'"

    def test_multiplicative(self):
        pg = pair_groupoid(VOL3)
        assert multiplicativity_check(pg, pg.structure).multiplicative

    def test_multiplicative_order_two(self):
        pg = pair_groupoid(poisson_disc())
        assert multiplicativity_check(pg, pg.structure).multiplicative

    def test_diagnostics_all_pass(self):
        pg = pair_groupoid(VOL3)
        td = theorem_diagnostics(pg, pg.structure)
        assert td.passed
        assert td.unit.coisotropic and td.base_dependent and td.mixed_zero

    def test_inversion_swap(self):
        pg = pair_groupoid(VOL3)
        r = inversion_check(pg, pg.structure)
        assert r.passed

    def test_base_structure_round_trip(self):
        pg = pair_groupoid(VOL3)
        assert base_structure(pg, pg.structure) == VOL3
        scaled = pair_groupoid(XVOL)
        assert base_structure(scaled, scaled.structure) == XVOL

    def test_requires_the_doubled_structure(self):
        pg = pair_groupoid(VOL3)
        other = NambuStructure(pg.chart, 3, pg.structure.tensor.scale(2))
        with pytest.raises(ValueError):
            multiplicativity_check(pg, other)

    def test_every_model_check_rejects_the_same_inputs(self):
        pg = pair_groupoid(VOL3)
        checks = (multiplicativity_check, theorem_diagnostics, inversion_check, base_structure)
        for check in checks:
            with pytest.raises(ValueError, match="must live on the group chart"):
                check(heisenberg_group(), VOL3)
            with pytest.raises(ValueError, match="must be the doubled structure"):
                check(pg, VOL3)
            with pytest.raises(TypeError, match="must be a Groupoid"):
                check(VOL3, VOL3)

    def test_structure_map_check_survives_optimize_flag(self):
        # the construction-time law check must not be an assert that -O strips
        script = (
            "import dataclasses\n"
            "from nambu.geomaps import PolyMap\n"
            "from nambu.groupoids import pair_groupoid\n"
            "from nambu.ratpoly import chart\n"
            "from nambu.structures import volume_structure\n"
            "pg = pair_groupoid(volume_structure(chart('x y z')))\n"
            "try:\n"
            "    dataclasses.replace(pg, inv=PolyMap.identity(pg.chart))\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('constructed a pair model with a broken inversion map')\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_multiplicativity_implies_diagnostics(self):
        h = heisenberg_group()
        a = Poly.coordinate(h.chart, "a")
        havol = NambuStructure(h.chart, 3, volume_structure(h.chart).tensor.scale(a))
        cases = [
            (translation_group(R3), XVOL),
            (h, havol),
        ]
        for model, s in cases:
            if multiplicativity_check(model, s).multiplicative:
                assert theorem_diagnostics(model, s).passed
        for base in (VOL3, XVOL, poisson_disc()):
            pg = pair_groupoid(base)
            if multiplicativity_check(pg, pg.structure).multiplicative:
                assert theorem_diagnostics(pg, pg.structure).passed


class TestSignRelation:
    def test_order_three_sign_is_plus(self):
        pg = pair_groupoid(XVOL)
        model = conormal_pair_model(pg)
        sign = Fraction(opposite_sign(3))
        for fs in ([x1, x2, x3], [x1 * x2, x3, x1 + x2], [x2, x2 * x3, x1]):
            assert nambu_bracket(XVOL, fs) == sign * induced_base_bracket(model, fs)

    def test_order_two_sign_is_minus(self):
        s = poisson_disc()
        model = conormal_pair_model(pair_groupoid(s))
        q = Poly.coordinate(s.chart, "q")
        p = Poly.coordinate(s.chart, "p")
        assert nambu_bracket(s, [q, p]).canonical_str() == "q + 1"
        assert induced_base_bracket(model, [q, p]).canonical_str() == "-q - 1"


class TestSubgroupoid:
    def test_codim_one_locus_chain_passes(self):
        pg = pair_groupoid(VOL3)
        N = SolvedSubmanifold(R3, (("x3", Poly.zero(R3)),))
        rep = coiso_subgroupoid_check(pg, N, trials=3, seed=7)
        assert rep.passed
        assert rep.total.coisotropic and rep.subalgebroid.passed

    def test_doubled_locus_lives_on_both_blocks(self):
        pg = pair_groupoid(VOL3)
        N = SolvedSubmanifold(R3, (("x3", Poly.zero(R3)),))
        H = restricted_subgroupoid(pg, N)
        assert set(H.solved_names) == {"x3", "x3'"}

    def test_point_rejected_with_witness(self):
        pg = pair_groupoid(VOL3)
        with pytest.raises(NotCoisotropicError) as exc:
            coiso_subgroupoid_check(pg, ORIGIN)
        assert exc.value.report.witness.reduced.canonical_str() == "1"

    def test_zero_base_accepts_any_locus(self):
        z = NambuStructure(R3, 3, MultiVec.zero(R3, 3))
        rep = coiso_subgroupoid_check(pair_groupoid(z), ORIGIN, trials=2, seed=1)
        assert rep.passed
