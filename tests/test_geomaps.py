"""Maps, submanifolds, coisotropy, and the graph characterization.

The headline invariant is the biconditional: a map preserves brackets
exactly when its graph is coisotropic for the difference-type product
structure. It is checked on crafted volume-preserving maps, on crafted
failures, and on a seeded random family, always as exact verdict
agreement of independently computed sides.
"""

from fractions import Fraction

import pytest

from nambu.exterior import MultiVec, evaluate, pairing
from nambu.geomaps import (
    CoinduceReport,
    PolyMap,
    SolvedSubmanifold,
    coinduce,
    coisotropy_check,
    conormal_frame,
    graph_equivalence_check,
    graph_submanifold,
    opposite_sign,
    preimage_submanifold,
    product_structure,
    r_phi_submanifold,
    relatedness_check,
    tangent_frame,
)
from nambu.ratpoly import Poly, chart, concat_charts
from nambu.structures import (
    NambuStructure,
    hamiltonian_field,
    nambu_bracket,
    volume_structure,
)

from _gen import R3, SeededSampler

x1 = Poly.coordinate(R3, "x1")
x2 = Poly.coordinate(R3, "x2")
x3 = Poly.coordinate(R3, "x3")
VOL3 = volume_structure(R3)


def scaled_vol(f):
    return NambuStructure(R3, 3, VOL3.tensor.scale(f))


def linear_map(ch, rows):
    comps = []
    for row in rows:
        acc = Poly.zero(ch)
        for c, name in zip(row, ch.coords):
            acc = acc + Fraction(c) * Poly.coordinate(ch, name)
        comps.append(acc)
    return PolyMap(ch, ch, tuple(comps))


class TestPolyMap:
    def test_component_count_enforced(self):
        with pytest.raises(ValueError):
            PolyMap(R3, chart("u v"), (x1,))

    def test_pullback_is_composition(self):
        phi = PolyMap(R3, chart("u"), (x1 + x2,))
        u = Poly.coordinate(chart("u"), "u")
        assert phi.pullback(u * u) == (x1 + x2) ** 2

    def test_projection_detection(self):
        proj = PolyMap.projection(R3, chart("u v"), ["x3", "x1"])
        assert proj.projection_indices() == (2, 0)
        assert PolyMap(R3, chart("u"), (x1 + x2,)).projection_indices() is None
        assert PolyMap(R3, chart("u"), (2 * x1,)).projection_indices() is None


class TestSolvedSubmanifold:
    def test_partition_and_reduce(self):
        sub = SolvedSubmanifold(R3, (("x3", x1 * x2),))
        assert sub.free_names == ("x1", "x2")
        assert sub.dim == 2
        assert sub.reduce(x3 - x1 * x2).is_zero
        assert sub.contains_function(x3 - x1 * x2)
        assert not sub.contains_function(x3)

    def test_solved_image_must_avoid_solved_coords(self):
        with pytest.raises(ValueError):
            SolvedSubmanifold(R3, (("x3", x3),))

    def test_conormal_annihilates_tangent(self):
        sub = SolvedSubmanifold(R3, (("x3", x1 * x1 + x2),))
        for theta in conormal_frame(sub):
            for t in tangent_frame(sub):
                assert sub.reduce(pairing(theta, t)).is_zero

    def test_frame_sizes(self):
        sub = SolvedSubmanifold(R3, (("x3", x1 * x1 + x2),))
        assert len(conormal_frame(sub)) == sub.codim == 1
        assert len(tangent_frame(sub)) == sub.dim == 2


class TestCoisotropy:
    def test_low_codimension_is_immediate(self):
        sub = SolvedSubmanifold(R3, (("x3", Poly.zero(R3)),))
        r = coisotropy_check(VOL3, sub)
        assert r.coisotropic and "codimension" in r.reason

    def test_diagonal_is_coisotropic(self):
        prod = product_structure(VOL3, VOL3, opposite_sign(3))
        diag = graph_submanifold(PolyMap.identity(R3))
        assert coisotropy_check(prod, diag).coisotropic

    def test_scaled_graph_witness_frozen(self):
        prod = product_structure(VOL3, VOL3, opposite_sign(3))
        two = linear_map(R3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        r = coisotropy_check(prod, graph_submanifold(two))
        assert not r.coisotropic
        assert r.witness.covectors == ("x1'", "x2'", "x3'")
        assert r.witness.reduced == Poly.constant(prod.chart, Fraction(-7))

    def test_three_way_equivalence_on_examples(self):
        # same verdict from conormal evaluation, ideal brackets, tangency
        R4 = chart("x1 x2 x3 x4")
        x4 = Poly.coordinate(R4, "x4")
        origin3 = SolvedSubmanifold(
            R3,
            (
                ("x1", Poly.zero(R3)),
                ("x2", Poly.zero(R3)),
                ("x3", Poly.zero(R3)),
            ),
        )
        curve4 = SolvedSubmanifold(
            R4,
            (
                ("x1", Poly.zero(R4)),
                ("x2", x4 * x4),
                ("x3", Poly.zero(R4)),
            ),
        )
        block = lambda f: NambuStructure(
            R4, 3, MultiVec(R4, 3, {(0, 1, 2): f})
        )
        cases = [
            (VOL3, origin3),
            (scaled_vol(x1), origin3),
            (block(Poly.coordinate(R4, "x3")), curve4),
            (block(x4), curve4),
        ]
        from itertools import combinations

        verdicts = []
        for s, sub in cases:
            ch = s.chart
            route1 = coisotropy_check(s, sub).coisotropic
            gens = [Poly.coordinate(ch, c) - p for c, p in sub.solved]
            route2 = all(
                sub.reduce(nambu_bracket(s, list(pick))).is_zero
                for pick in combinations(gens, s.order)
            )
            frame = conormal_frame(sub)
            route3 = all(
                sub.reduce(pairing(theta, hamiltonian_field(s, list(pick)))).is_zero
                for pick in combinations(gens, s.order - 1)
                for theta in frame
            )
            assert route1 == route2 == route3
            verdicts.append(route1)
        # the family must exercise both outcomes
        assert True in verdicts and False in verdicts


class TestGraphSubmanifold:
    def test_identity_graph(self):
        R2 = chart("x1 x2")
        sub = graph_submanifold(PolyMap.identity(R2))
        assert sub.chart.coords == ("x1", "x2", "x1'", "x2'")
        assert dict(sub.solved) == {
            "x1'": Poly.coordinate(sub.chart, "x1"),
            "x2'": Poly.coordinate(sub.chart, "x2"),
        }

    def test_square_graph(self):
        line = chart("x")
        phi = PolyMap(line, chart("y"), (Poly.coordinate(line, "x") ** 2,))
        sub = graph_submanifold(phi)
        x = Poly.coordinate(sub.chart, "x")
        assert dict(sub.solved) == {"y": x * x}

    def test_sum_graph(self):
        R2 = chart("u v")
        phi = PolyMap(
            R2, chart("w"), (Poly.coordinate(R2, "u") + Poly.coordinate(R2, "v"),)
        )
        sub = graph_submanifold(phi)
        assert sub.solved_names == ("w",)
        assert sub.free_names == ("u", "v")


class TestProductStructure:
    def test_two_blocks(self):
        prod = product_structure(VOL3, VOL3, 1)
        assert prod.chart.dim == 6
        assert prod.tensor.comps == {
            (0, 1, 2): Poly.one(prod.chart),
            (3, 4, 5): Poly.one(prod.chart),
        }

    def test_opposite_poisson_convention(self):
        R2 = chart("q p")
        w = NambuStructure(R2, 2, MultiVec(R2, 2, {(0, 1): Poly.one(R2)}))
        prod = product_structure(w, w, opposite_sign(2))
        assert prod.tensor.comps[(2, 3)] == -Poly.one(prod.chart)

    def test_zero_blocks(self):
        z = NambuStructure(R3, 3, MultiVec.zero(R3, 3))
        assert product_structure(z, z, -1).tensor.is_zero

    def test_order_mismatch(self):
        R2 = chart("q p")
        w = NambuStructure(R2, 2, MultiVec(R2, 2, {(0, 1): Poly.one(R2)}))
        with pytest.raises(ValueError):
            product_structure(VOL3, w, 1)


class TestRelatedness:
    def test_identity_related(self):
        assert relatedness_check(PolyMap.identity(R3), VOL3, VOL3).related

    def test_scaling_witness(self):
        two = linear_map(R3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        r = relatedness_check(two, VOL3, VOL3)
        assert r.verdict == "witness"
        assert r.witness.pushed == 8 * r.witness.expected

    def test_swap_is_anti_related_hence_related_at_odd_order(self):
        big, blocks = concat_charts(R3, R3)
        prod = product_structure(VOL3, VOL3, opposite_sign(3))
        comps = tuple(
            Poly.coordinate(big, big.coords[blocks[1][i]]) for i in range(3)
        ) + tuple(Poly.coordinate(big, big.coords[blocks[0][i]]) for i in range(3))
        swap = PolyMap(big, big, comps)
        r = relatedness_check(swap, prod, prod)
        assert r.related and r.anti_related

    def test_unimodular_shear_related(self):
        shear = PolyMap(R3, R3, (x1 + x2 * x2, x2, x3))
        assert relatedness_check(shear, VOL3, VOL3).related


class TestGraphEquivalence:
    def test_identity_agrees_positive(self):
        g = graph_equivalence_check(PolyMap.identity(R3), VOL3, VOL3)
        assert g.relatedness.related and g.coisotropy.coisotropic and g.agree

    def test_scaling_agrees_negative(self):
        two = linear_map(R3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        g = graph_equivalence_check(two, VOL3, VOL3)
        assert not g.relatedness.related
        assert not g.coisotropy.coisotropic
        assert g.agree

    def test_projection_with_block_tensor(self):
        R4 = chart("x1 x2 x3 x4")
        proj = PolyMap.projection(R4, R3, ["x1", "x2", "x3"])
        block = NambuStructure(R4, 3, MultiVec(R4, 3, {(0, 1, 2): Poly.one(R4)}))
        g = graph_equivalence_check(proj, block, VOL3)
        assert g.relatedness.related and g.coisotropy.coisotropic and g.agree

    def test_biconditional_on_seeded_family(self):
        # crafted volume preservers, crafted failures, and random maps
        sampler = SeededSampler(411)
        maps = [
            PolyMap.identity(R3),
            linear_map(R3, [[0, 1, 0], [1, 0, 0], [0, 0, -1]]),
            PolyMap(R3, R3, (x1 + x2 * x2, x2, x3)),
            PolyMap(R3, R3, (x1, x2 + x3 * x3, x3)),
            linear_map(R3, [[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
            PolyMap(R3, R3, (x1 * x1, x2, x3)),
        ]
        while len(maps) < 20:
            maps.append(
                PolyMap(
                    R3,
                    R3,
                    tuple(sampler.poly(R3, 2, 2) for _ in range(3)),
                )
            )
        structures = [VOL3, scaled_vol(Poly.one(R3) + x1)]
        for i, phi in enumerate(maps):
            a = structures[i % 2]
            g = graph_equivalence_check(phi, a, VOL3)
            assert g.agree, f"map {i} disagrees"


class TestRPhi:
    def test_projection_diagonal(self):
        R4 = chart("x1 x2 x3 x4")
        proj = PolyMap.projection(R4, R3, ["x1", "x2", "x3"])
        sub = r_phi_submanifold(proj)
        assert sub.solved_names == ("x1'", "x2'", "x3'")
        assert sub.free_names == ("x1", "x2", "x3", "x4", "x4'")

    def test_identity_gives_full_diagonal(self):
        sub = r_phi_submanifold(PolyMap.identity(R3))
        assert sub.codim == 3

    def test_non_projection_rejected(self):
        R2 = chart("u v")
        phi = PolyMap(
            R2, chart("w"), (Poly.coordinate(R2, "u") + Poly.coordinate(R2, "v"),)
        )
        with pytest.raises(ValueError):
            r_phi_submanifold(phi)


class TestCoinduce:
    @pytest.mark.parametrize("degree", [0, -1])
    def test_degree_must_be_positive(self, degree):
        R4 = chart("x1 x2 x3 x4")
        proj = PolyMap.projection(R4, R3, ["x1", "x2", "x3"])
        block = NambuStructure(R4, 3, MultiVec(R4, 3, {(0, 1, 2): Poly.one(R4)}))
        with pytest.raises(ValueError, match="degree must be at least 1"):
            coinduce(proj, block, degree)

    def test_block_tensor_descends(self):
        R4 = chart("x1 x2 x3 x4")
        proj = PolyMap.projection(R4, R3, ["x1", "x2", "x3"])
        block = NambuStructure(R4, 3, MultiVec(R4, 3, {(0, 1, 2): Poly.one(R4)}))
        r = coinduce(proj, block, 2)
        assert r.coinduced and r.structure == VOL3

    def test_fiber_scaling_obstructs(self):
        R4 = chart("x1 x2 x3 x4")
        proj = PolyMap.projection(R4, R3, ["x1", "x2", "x3"])
        bad = NambuStructure(
            R4, 3, MultiVec(R4, 3, {(0, 1, 2): Poly.coordinate(R4, "x4")})
        )
        r = coinduce(proj, bad, 2)
        assert not r.coinduced
        assert [f.canonical_str() for f in r.obstruction.functions] == [
            "x1",
            "x2",
            "x3",
        ]
        assert r.obstruction.bracket == Poly.coordinate(R4, "x4")

    def test_identity_returns_same_structure(self):
        r = coinduce(PolyMap.identity(R3), scaled_vol(x1), 1)
        assert r.coinduced and r.structure == scaled_vol(x1)

    def test_success_matches_r_phi_coisotropy(self):
        R4 = chart("x1 x2 x3 x4")
        proj = PolyMap.projection(R4, R3, ["x1", "x2", "x3"])
        good = NambuStructure(R4, 3, MultiVec(R4, 3, {(0, 1, 2): Poly.one(R4)}))
        bad = NambuStructure(
            R4, 3, MultiVec(R4, 3, {(0, 1, 2): Poly.coordinate(R4, "x4")})
        )
        sub = r_phi_submanifold(proj)
        for s in (good, bad):
            prod = product_structure(s, s, opposite_sign(s.order))
            assert coinduce(proj, s, 2).coinduced == coisotropy_check(prod, sub).coisotropic


class TestPreimage:
    def test_coordinate_subspace_pulls_back(self):
        R4 = chart("x1 x2 x3 x4")
        proj = PolyMap.projection(R4, R3, ["x1", "x2", "x3"])
        target_sub = SolvedSubmanifold(R3, (("x3", Poly.zero(R3)),))
        pre = preimage_submanifold(proj, target_sub)
        assert pre.chart == R4
        assert pre.solved_names == ("x3",)

    def test_coisotropy_descends_to_preimage(self):
        R4 = chart("x1 x2 x3 x4")
        proj = PolyMap.projection(R4, R3, ["x1", "x2", "x3"])
        block = NambuStructure(R4, 3, MultiVec(R4, 3, {(0, 1, 2): Poly.one(R4)}))
        for solved in (
            (("x3", Poly.zero(R3)),),
            (("x2", Poly.zero(R3)), ("x3", Poly.zero(R3))),
        ):
            target_sub = SolvedSubmanifold(R3, solved)
            if coisotropy_check(VOL3, target_sub).coisotropic:
                pre = preimage_submanifold(proj, target_sub)
                assert coisotropy_check(block, pre).coisotropic
