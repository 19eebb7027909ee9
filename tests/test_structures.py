"""Nambu structures: bracket oracles, identity checks, certificates.

The bracket oracle below reassembles {f_1,..,f_n} from scratch: for each
tensor component it takes the matrix of partial derivatives and expands
the determinant as a permutation sum. fi_check is then exercised on the
known-good and known-bad families, and every refutation witness is
re-verified through the plain nested-bracket route.
"""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

from nambu.cartan import de_rham_d
from nambu.exterior import Form, MultiVec, evaluate, pairing, wedge_all
from nambu.ratpoly import Poly, chart, monomials_up_to
from nambu.structures import (
    REFUTED,
    VERIFIED_ON_FAMILY,
    FiReport,
    FiWitness,
    NambuStructure,
    block_product,
    distribution_rank,
    fi_bracket_defect,
    fi_check,
    hamiltonian_commutator_defect,
    hamiltonian_field,
    lie_preservation_defect,
    nambu_bracket,
    plucker_check,
    sharp,
    structure_from_fields,
    sufficient_nambu,
    volume_structure,
)

from _gen import R3, R4, SeededSampler, poly_strategy

x1 = Poly.coordinate(R3, "x1")
x2 = Poly.coordinate(R3, "x2")
x3 = Poly.coordinate(R3, "x3")
d1, d2, d3 = (MultiVec.coordinate_field(R3, c) for c in R3.coords)
dx1, dx2, dx3 = (Form.coordinate_differential(R3, c) for c in R3.coords)

VOL3 = volume_structure(R3)


def scaled_vol(f: Poly) -> NambuStructure:
    return NambuStructure(R3, 3, VOL3.tensor.scale(f))


def r6_sum() -> NambuStructure:
    ch = chart("x1 x2 x3 x4 x5 x6", "R6")
    t = MultiVec(ch, 3, {(0, 1, 2): Poly.one(ch), (3, 4, 5): Poly.one(ch)})
    return NambuStructure(ch, 3, t)


def perm_parity(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def oracle_bracket(s: NambuStructure, fs) -> Poly:
    """Sum over components of permutation-expanded Jacobian minors."""
    ch = s.chart
    acc = Poly.zero(ch)
    for idx, coeff in s.tensor.comps.items():
        for perm in permutations(range(len(idx))):
            term = Poly.constant(ch, Fraction(perm_parity(perm)))
            for a in range(len(idx)):
                term = term * fs[a].partial(idx[perm[a]])
            acc = acc + coeff * term
    return acc


class TestBracket:
    def test_unit_jacobian(self):
        assert nambu_bracket(VOL3, [x1, x2, x3]) == Poly.one(R3)

    def test_jacobian_determinant_oracle(self):
        assert nambu_bracket(VOL3, [x1 * x1, x2, x3]) == 2 * x1

    def test_skew(self):
        assert nambu_bracket(VOL3, [x1, x1, x3]).is_zero
        assert nambu_bracket(VOL3, [x2, x1, x3]) == -Poly.one(R3)

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            nambu_bracket(VOL3, [x1, x2])

    @given(
        poly_strategy(R3, max_degree=2, max_terms=2),
        poly_strategy(R3, max_degree=2, max_terms=2),
        poly_strategy(R3, max_degree=2, max_terms=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_permutation_oracle(self, f, g, h):
        s = scaled_vol(Poly.one(R3) + x1)
        assert nambu_bracket(s, [f, g, h]) == oracle_bracket(s, [f, g, h])

    @given(
        poly_strategy(R3, max_degree=1, max_terms=2),
        poly_strategy(R3, max_degree=1, max_terms=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_leibniz_in_last_slot(self, g, h):
        lhs = nambu_bracket(VOL3, [x1, x2, g * h])
        rhs = g * nambu_bracket(VOL3, [x1, x2, h]) + nambu_bracket(
            VOL3, [x1, x2, g]
        ) * h
        assert lhs == rhs


class TestHamiltonianField:
    def test_frozen_contraction(self):
        assert hamiltonian_field(VOL3, [x1, x2]) == d3
        assert hamiltonian_field(VOL3, [x1, x1]).is_zero

    def test_defining_relation_on_scaled_volume(self):
        s = scaled_vol(x1)
        X = hamiltonian_field(s, [x2, x3])
        assert X == MultiVec(R3, 1, {(0,): x1})
        assert X.apply_to(x1) == nambu_bracket(s, [x2, x3, x1])

    def test_generates_bracket_on_coordinates(self):
        X = hamiltonian_field(VOL3, [x1 * x2, x3])
        for c in R3.coords:
            g = Poly.coordinate(R3, c)
            assert X.apply_to(g) == nambu_bracket(VOL3, [x1 * x2, x3, g])


class TestSharp:
    def test_pairing_identity_on_coframe(self):
        for s in (VOL3, scaled_vol(x1)):
            sh = sharp(s, [dx1, dx2])
            for beta in (dx1, dx2, dx3):
                assert pairing(beta, sh) == nambu_bracket(
                    s,
                    [x1, x2, {dx1: x1, dx2: x2, dx3: x3}[beta]],
                )

    def test_frozen_values(self):
        assert sharp(VOL3, [dx1, dx2]) == d3
        assert sharp(VOL3, [dx1, dx1]).is_zero
        assert sharp(scaled_vol(x1), [dx2, dx3]) == MultiVec(R3, 1, {(0,): x1})


class TestFiCheck:
    def test_volume_verified(self):
        s = volume_structure(R3)
        r = fi_check(s, 2)
        assert r.verified
        assert fi_check(s, 2) == r
        assert s == volume_structure(R3)

    def test_scaled_volume_verified(self):
        assert fi_check(scaled_vol(Poly.one(R3) + x1), 2).verified

    def test_constant_block_verified(self):
        s = structure_from_fields([d2, d3])
        assert fi_check(s, 2).verified

    def test_r6_sum_refuted_with_reverifying_witness(self):
        s = r6_sum()
        r = fi_check(s, 2)
        assert r.verdict == "REFUTED"
        assert r.witness is not None
        assert not r.witness.defect.is_zero
        assert r.witness.reverify(s)

    def test_witness_is_first_in_canonical_order(self):
        s = r6_sum()
        w = fi_check(s, 2).witness
        assert [f.canonical_str() for f in w.fs] == ["x1", "x2*x4"]
        assert [g.canonical_str() for g in w.gs] == ["x3", "x5", "x6"]
        assert w.defect.canonical_str() == "-1"

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            fi_check(VOL3, 0)

    def test_family_size_on_verified(self):
        from math import comb

        # R3 at degree 2 has 9 monomials; order 3 sweeps pairs of them
        assert fi_check(volume_structure(R3), 2).family_size == (comb(9, 2), 0)

    def test_family_size_on_refuted_counts_to_the_witness(self):
        from itertools import combinations
        from nambu.ratpoly import monomials_up_to

        s = r6_sum()
        r = fi_check(s, 2)
        mons = monomials_up_to(s.chart, 2)
        f_pos = list(combinations(mons, s.order - 1)).index(r.witness.fs) + 1
        g_pos = list(combinations(mons, s.order)).index(r.witness.gs) + 1
        assert r.family_size == (f_pos, g_pos)
        assert g_pos > 1

    def test_lie_defect_takes_n_minus_1_functions(self):
        with pytest.raises(ValueError, match="takes 2 functions"):
            lie_preservation_defect(VOL3, [x1])

    def test_defect_routes_agree_on_refuted_case(self):
        s = r6_sum()
        w = fi_check(s, 2).witness
        direct = fi_bracket_defect(s, w.fs, w.gs)
        from nambu.exterior import evaluate
        from nambu.cartan import de_rham_d

        factored = evaluate(
            lie_preservation_defect(s, w.fs), [de_rham_d(g) for g in w.gs]
        )
        assert direct == factored == w.defect

    def test_hamiltonian_commutator_form_on_verified_structure(self):
        # second formulation of the same identity, swept over monomial pairs
        from itertools import combinations
        from nambu.ratpoly import monomials_up_to

        s = scaled_vol(x1)
        assert fi_check(s, 1).verified
        mons = monomials_up_to(R3, 1)
        for fs in combinations(mons, 2):
            for gs in combinations(mons, 2):
                assert hamiltonian_commutator_defect(s, fs, gs).is_zero


def reference_fi_check(s: NambuStructure, degree: int) -> FiReport:
    """The per-tuple sweep: every f-tuple's Lie defect built from scratch."""
    mons = monomials_up_to(s.chart, degree)
    dmons = [de_rham_d(m) for m in mons]
    f_count = 0
    for fs in combinations(mons, s.order - 1):
        f_count += 1
        d = lie_preservation_defect(s, fs)
        if d.is_zero:
            continue
        g_tuples = zip(combinations(mons, s.order), combinations(dmons, s.order))
        for g_count, (gs, dgs) in enumerate(g_tuples, 1):
            defect = evaluate(d, list(dgs))
            if not defect.is_zero:
                return FiReport(REFUTED, degree, (f_count, g_count),
                                FiWitness(fs, gs, defect))
    return FiReport(VERIFIED_ON_FAMILY, degree, (f_count, 0))


R5 = chart("x1 x2 x3 x4 x5", "R5")


def sampled(seed, comps):
    """The tensor SeededSampler(seed) draws, with at most `comps` components."""
    return f"seed{seed}", lambda ch, order: SeededSampler(seed).tensor(
        ch, order, MultiVec, comps=comps)


def linear_wedge(seed):
    """A seeded wedge of vector fields with affine-linear coefficients."""
    return f"wedge{seed}", lambda ch, order: SeededSampler(seed).linear_wedge(ch, order)


# 1/3*x1 d1^d3^d4 + 2*x5 d2^d4^d5 on R5: every coordinate pair has a zero
# Lie defect, so the degree-1 sweep verifies it, but the reduced family
# refutes it at (x1, x2*x4); fi_check must fall through to the sweep
FALL_THROUGH = ("fall-through", lambda ch, order: MultiVec(ch, order, {
    (0, 2, 3): Poly.coordinate(ch, "x1").scale(Fraction(1, 3)),
    (1, 3, 4): Poly.coordinate(ch, "x5").scale(2),
}))

# (chart, order, degree, (label, tensor builder), verdict); a sampled
# tensor with one component is always Nambu, two or three usually are not
SEEDED_FI_CASES = [
    (R4, 3, 2, sampled(0, 2), REFUTED),
    (R4, 3, 2, sampled(1, 2), VERIFIED_ON_FAMILY),
    (R4, 3, 3, sampled(0, 2), REFUTED),
    (R4, 3, 3, sampled(2, 2), VERIFIED_ON_FAMILY),
    (R4, 4, 2, sampled(0, 2), VERIFIED_ON_FAMILY),
    (R5, 3, 2, sampled(0, 2), REFUTED),
    (R5, 3, 2, sampled(1, 2), VERIFIED_ON_FAMILY),
    (R5, 3, 3, sampled(3, 2), VERIFIED_ON_FAMILY),
    (R5, 3, 3, sampled(9, 3), REFUTED),
    (R5, 4, 2, sampled(0, 2), REFUTED),
    (R5, 4, 2, sampled(1, 2), VERIFIED_ON_FAMILY),
    (R5, 4, 3, sampled(5, 2), REFUTED),
    (R5, 3, 1, FALL_THROUGH, VERIFIED_ON_FAMILY),
    (R5, 3, 2, FALL_THROUGH, REFUTED),
    (R5, 3, 3, FALL_THROUGH, REFUTED),
    (R5, 3, 2, linear_wedge(3), REFUTED),
    (R5, 3, 2, linear_wedge(9), VERIFIED_ON_FAMILY),
]


class TestFiCheckAgainstReference:
    @pytest.mark.parametrize(
        "ch, order, degree, source, verdict", SEEDED_FI_CASES,
        ids=[f"{c[0].label}-order{c[1]}-degree{c[2]}-{c[3][0]}" for c in SEEDED_FI_CASES],
    )
    def test_same_report_as_per_tuple_sweep(self, ch, order, degree, source, verdict):
        s = NambuStructure(ch, order, source[1](ch, order))
        got = fi_check(s, degree)
        want = reference_fi_check(s, degree)
        assert got == want
        assert got.verdict == verdict
        if verdict == REFUTED:
            assert got.witness.canonical_str() == want.witness.canonical_str()
            assert got.witness.reverify(s)

    @pytest.mark.parametrize("degree, family_size", [
        (1, (10, 0)), (2, (12, 325)), (3, (12, 2810)),
    ])
    def test_reduced_family_refutes_what_degree_one_verifies(self, degree, family_size):
        s = NambuStructure(R5, 3, FALL_THROUGH[1](R5, 3))
        rep = fi_check(s, degree)
        assert rep.family_size == family_size
        if degree == 1:
            assert rep.verified
        else:
            assert rep.witness.canonical_str() == (
                "fs = (x1; x2*x4), gs = (x3; x4; x5), defect = 2/3*x1*x5")


class TestPlucker:
    def test_volume_passes(self):
        assert plucker_check(VOL3).passed
        assert plucker_check(scaled_vol(x1)).passed

    def test_r6_sum_fails_with_frozen_witness(self):
        r = plucker_check(r6_sum())
        assert not r.passed
        assert r.witness_index == (0, 1)
        ch = r.residual.chart
        assert r.residual == MultiVec(ch, 4, {(2, 3, 4, 5): Poly.one(ch)})

    def test_named_contraction_witness(self):
        # i_(dx2^dx3) applied then wedged back: the mixed 4-vector survives
        s = r6_sum()
        ch = s.chart
        from nambu.exterior import interior_product

        a2 = Form.coordinate_differential(ch, "x2")
        a3 = Form.coordinate_differential(ch, "x3")
        x = interior_product(s.tensor, [a2, a3])
        res = x.wedge(s.tensor)
        assert res == MultiVec(ch, 4, {(0, 3, 4, 5): Poly.one(ch)})

    def test_order_two_rejected(self):
        s = structure_from_fields([d1, d2])
        with pytest.raises(ValueError):
            plucker_check(s)


class TestCertificates:
    def test_top_degree(self):
        assert sufficient_nambu(VOL3).kind == "top_degree"

    def test_commuting_decomposable(self):
        ch = chart("x1 x2 x3 x4", "R4")
        f1 = MultiVec.coordinate_field(ch, "x1")
        f2 = MultiVec.coordinate_field(ch, "x2")
        f3 = MultiVec(ch, 1, {(2,): Poly.coordinate(ch, "x4")})
        s = structure_from_fields([f1, f2, f3])
        assert sufficient_nambu(s).kind == "commuting_decomposable"

    def test_noncommuting_factors_uncertified(self):
        # [x2 d1, d2] = -d1 is nonzero, so no certificate
        f1 = MultiVec(R3, 1, {(0,): x2})
        f2 = d2
        s = structure_from_fields([f1, f2])
        assert sufficient_nambu(s).kind == "none"

    def test_block_product_of_certified(self):
        ch = chart("x1 x2 x3 x4 x5 x6", "R6")
        a = volume_structure(R3)
        b = volume_structure(chart("u v"))
        big = block_product(ch, a, (0, 1, 2), b, (3, 4))
        assert big.order == 5
        assert big.tensor == wedge_all(
            [MultiVec.coordinate_field(ch, c) for c in ch.coords[:5]]
        )
        assert sufficient_nambu(big).kind == "product_of_certified"

    def test_overlapping_blocks_rejected(self):
        ch = chart("x1 x2 x3 x4 x5", "R5")
        a = volume_structure(R3)
        b = volume_structure(chart("u v"))
        with pytest.raises(ValueError):
            block_product(ch, a, (0, 1, 2), b, (2, 3))

    def test_r6_sum_has_no_certificate(self):
        assert sufficient_nambu(r6_sum()).kind == "none"


class TestDistributionRank:
    def test_volume_full_rank(self):
        assert distribution_rank(VOL3, {"x1": 0, "x2": 0, "x3": 0}) == 3

    def test_scaled_volume_rank_drop(self):
        s = scaled_vol(x1)
        assert distribution_rank(s, {"x1": 0, "x2": 5, "x3": 7}) == 0
        assert distribution_rank(s, {"x1": 1, "x2": 0, "x3": 0}) == 3

    def test_block_structure_partial_rank(self):
        ch = chart("x1 x2 x3 x4", "R4")
        s = NambuStructure(ch, 2, MultiVec(ch, 2, {(0, 1): Poly.one(ch)}))
        assert distribution_rank(s, {c: 0 for c in ch.coords}) == 2


class TestLiePreservation:
    def test_zero_exactly_on_nambu_family(self):
        sampler = SeededSampler(20260816)
        s = scaled_vol(x1)
        for _ in range(10):
            fs = [sampler.poly(R3, 2, 2), sampler.poly(R3, 2, 2)]
            assert lie_preservation_defect(s, fs).is_zero

    def test_nonzero_on_refuted_structure(self):
        s = r6_sum()
        ch = s.chart
        f1 = Poly.coordinate(ch, "x1")
        f2 = Poly.coordinate(ch, "x2") * Poly.coordinate(ch, "x4")
        assert not lie_preservation_defect(s, [f1, f2]).is_zero
