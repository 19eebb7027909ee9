"""Acceptance sweep: one test per shipped guarantee, exact arithmetic only.

Each test prints a single `criterion NN: PASS/FAIL` line so the suite log
doubles as the acceptance report. Everything is seeded and deterministic.
"""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from _gen import SeededSampler

from nambu.cartan import de_rham_d, lie_derivative, schouten
from nambu.cli import main
from nambu.exterior import MultiVec, evaluate, vector_interior
from nambu.formsbialg import (
    conormal_restriction_check,
    form_bracket_both,
    form_bracket_properties,
    induced_base_bracket,
    pointwise_filippov,
    wlfb_check,
)
from nambu.geomaps import (
    PolyMap,
    SolvedSubmanifold,
    coinduce,
    coisotropy_check,
    graph_equivalence_check,
    opposite_sign,
    product_structure,
    r_phi_submanifold,
)
from nambu.groupoids import (
    NotCoisotropicError,
    base_structure,
    coiso_subgroupoid_check,
    conormal_pair_model,
    inversion_check,
    multiplicativity_check,
    pair_groupoid,
    theorem_diagnostics,
    translation_group,
)
from nambu.parser import parse
from nambu.ratpoly import Poly, chart, monomials_up_to
from nambu.session import run_session
from nambu.structures import (
    NambuStructure,
    _fi_bracket_defect,
    _hamiltonian_commutator_defect,
    fi_bracket_defect,
    fi_check,
    hamiltonian_commutator_defect,
    lie_preservation_defect,
    nambu_bracket,
    plucker_check,
    volume_structure,
)

R3 = chart("x1 x2 x3", "R3")
R4 = chart("x1 x2 x3 x4", "R4")
ORIGIN = {"x1": 0, "x2": 0, "x3": 0}


def criterion(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def vol3():
    return volume_structure(R3)


def xvol3():
    t = MultiVec(R3, 3, {(0, 1, 2): Poly.coordinate(R3, "x1")})
    return NambuStructure(R3, 3, t)


def test_criterion_01_calculus_kernel():
    smp = SeededSampler(101)
    dd = 0
    for k in range(200):
        om = smp.form(R4, k % 4)
        if de_rham_d(de_rham_d(om)).is_zero:
            dd += 1
    cartan = 0
    for k in range(200):
        x = smp.multivec(R4, 1)
        om = smp.form(R4, 1 + k % 3)
        expect = de_rham_d(vector_interior(x, om)) + vector_interior(x, de_rham_d(om))
        if lie_derivative(x, om) == expect:
            cartan += 1
    jacobi = 0
    grades = [(1, 2, 2), (2, 2, 1), (1, 1, 2), (2, 1, 1), (1, 1, 1)]
    for k in range(200):
        gp, gq, gr = grades[k % len(grades)]
        p = smp.multivec(R4, gp)
        q = smp.multivec(R4, gq)
        r = smp.multivec(R4, gr)
        sign = Fraction((-1) ** ((gp - 1) * (gq - 1)))
        lhs = schouten(p, schouten(q, r))
        rhs = schouten(schouten(p, q), r) + schouten(q, schouten(p, r)).scale(sign)
        if lhs == rhs:
            jacobi += 1
    ok = dd == 200 and cartan == 200 and jacobi == 200
    criterion(1, ok, f"dd {dd}/200, cartan {cartan}/200, jacobi {jacobi}/200")


def _fi_family():
    scaled = NambuStructure(
        R3, 3, vol3().tensor.scale(Poly.one(R3) + Poly.coordinate(R3, "x1"))
    )
    tw4 = NambuStructure(
        R4, 3, MultiVec(R4, 3, {(0, 1, 2): Poly.coordinate(R4, "x4")})
    )
    pois = NambuStructure(R3, 2, MultiVec(R3, 2, {(1, 2): Poly.one(R3)}))
    R5 = chart("z1 z2 z3 z4 z5", "R5")
    four = NambuStructure(R5, 4, MultiVec(R5, 4, {(0, 1, 3, 4): Poly.one(R5)}))
    return [vol3(), scaled, tw4, pois, four]


def _agreement_exhaustive(s):
    # each monomial's differential is taken once, and the two nested-bracket
    # defects run on the same tuples from those differentials
    mons = monomials_up_to(s.chart, 2)
    dmons = [de_rham_d(m) for m in mons]
    n = s.order
    for fs, dfs in zip(combinations(mons, n - 1), combinations(dmons, n - 1)):
        if not lie_preservation_defect(s, fs).is_zero:
            return False
        for dgs in combinations(dmons, n):
            if not _fi_bracket_defect(s, list(dfs), list(dgs)).is_zero:
                return False
        for dgs in combinations(dmons, n - 1):
            if not _hamiltonian_commutator_defect(s, list(dfs), list(dgs)).is_zero:
                return False
    return True


def _agreement_sampled(s, samples, seed):
    # the (n-1)-slot sweep is exhaustive; the paired sweeps are seeded
    mons = monomials_up_to(s.chart, 2)
    n = s.order
    for fs in combinations(mons, n - 1):
        if not lie_preservation_defect(s, fs).is_zero:
            return False
    rng = random.Random(seed)
    for _ in range(samples):
        fs = rng.sample(mons, n - 1)
        gs = rng.sample(mons, n)
        if not fi_bracket_defect(s, fs, gs).is_zero:
            return False
        hs = rng.sample(mons, n - 1)
        if not hamiltonian_commutator_defect(s, fs, hs).is_zero:
            return False
    return True


def test_criterion_02_fi_positive_family():
    family = _fi_family()
    verdicts = [fi_check(s, degree=2).verdict for s in family]
    all_verified = verdicts == ["VERIFIED_ON_FAMILY"] * 5
    agree = all(_agreement_exhaustive(s) for s in family[:4])
    agree = agree and _agreement_sampled(family[4], samples=60, seed=17)
    criterion(2, all_verified and agree,
              f"verdicts {verdicts}, three formulations agree")


def test_criterion_03_fi_refutation():
    R6 = chart("u1 u2 u3 u4 u5 u6", "R6")
    one = Poly.one(R6)
    bad = NambuStructure(
        R6, 3, MultiVec(R6, 3, {(0, 1, 2): one, (3, 4, 5): one})
    )
    rep = fi_check(bad, degree=2)
    refuted = rep.verdict == "REFUTED"
    reverifies = rep.witness is not None and rep.witness.reverify(bad)
    pl = plucker_check(bad)
    plucker_refutes = (
        not pl.passed and pl.witness_index is not None and not pl.residual.is_zero
    )
    criterion(3, refuted and reverifies and plucker_refutes,
              f"refuted={refuted}, witness reverifies={reverifies}, "
              f"plucker witness at {pl.witness_index}")


def test_criterion_04_graph_biconditional():
    target = chart("w1 w2 w3", "W3")
    rho = volume_structure(target)
    ident = PolyMap(R3, target, tuple(Poly.coordinate(R3, c) for c in R3.coords))
    gi = graph_equivalence_check(ident, vol3(), rho)
    pos = gi.agree and gi.relatedness.related and gi.coisotropy.coisotropic
    dbl = PolyMap(
        R3, target, tuple(2 * Poly.coordinate(R3, c) for c in R3.coords)
    )
    gd = graph_equivalence_check(dbl, vol3(), rho)
    neg = gd.agree and not gd.relatedness.related and not gd.coisotropy.coisotropic
    smp = SeededSampler(404)
    agree = 0
    for _ in range(20):
        phi = PolyMap(R3, target, tuple(smp.poly(R3, 2) for _ in range(3)))
        if graph_equivalence_check(phi, vol3(), rho).agree:
            agree += 1
    criterion(4, pos and neg and agree == 20,
              f"identity positive={pos}, doubling negative={neg}, "
              f"seeded agreement {agree}/20")


def test_criterion_05_coinduction_both_routes():
    proj = PolyMap.projection(R4, R3, ["x1", "x2", "x3"])
    rel = r_phi_submanifold(proj)
    good = NambuStructure(R4, 3, MultiVec(R4, 3, {(0, 1, 2): Poly.one(R4)}))
    bad = NambuStructure(
        R4, 3, MultiVec(R4, 3, {(0, 1, 2): Poly.coordinate(R4, "x4")})
    )
    g = coinduce(proj, good, degree=2)
    g_rel = coisotropy_check(product_structure(good, good, opposite_sign(3)), rel)
    pos = g.coinduced and g.structure == vol3() and g_rel.coisotropic
    b = coinduce(proj, bad, degree=2)
    b_rel = coisotropy_check(product_structure(bad, bad, opposite_sign(3)), rel)
    consistent = (
        not b.coinduced
        and b.obstruction.canonical_str() == "(x1; x2; x3) -> x4"
        and not b_rel.coisotropic
        and b_rel.witness.canonical_str() == "frame (x1', x2', x3') -> -x4 + x4'"
    )
    criterion(5, pos and consistent,
              "descends to the volume and both obstruction witnesses carry x4")


def test_criterion_06_pair_groupoid_chain():
    pg = pair_groupoid(vol3())
    mult = multiplicativity_check(pg, pg.structure)
    diag = theorem_diagnostics(pg, pg.structure)
    inv = inversion_check(pg, pg.structure)
    base = base_structure(pg, pg.structure)
    model = conormal_pair_model(pg)
    sign = Fraction(opposite_sign(3))
    coords = [Poly.coordinate(R3, c) for c in R3.coords]
    sign_ok = all(
        nambu_bracket(vol3(), list(fs))
        == sign * induced_base_bracket(model, list(fs))
        for fs in permutations(coords, 3)
    )
    ok = (
        mult.multiplicative and mult.agree
        and diag.passed and inv.passed
        and base == vol3() and sign_ok
    )
    criterion(6, ok, "graph, diagnostics, inversion, base, and sign relation")


def test_criterion_07_nambu_lie_group():
    law = translation_group(R3)
    rep = multiplicativity_check(law, xvol3())
    both_routes = rep.multiplicative and rep.agree and rep.translation_defects == ()
    unit_zero = all(
        c.eval_at(ORIGIN) == 0 for c in xvol3().tensor.comps.values()
    )
    table = pointwise_filippov(xvol3(), ORIGIN)
    table_ok = (
        table.canonical_str() == "[e1,e2,e3] = e1"
        and table.fundamental_identity_defects() == []
        and table.coefficient((0, 1, 2), 0) == 1
    )
    bad = multiplicativity_check(law, vol3())
    vol_diag = theorem_diagnostics(law, vol3())
    vol_fails = (
        not bad.multiplicative and bad.agree
        and len(bad.translation_defects) == 1
        and vol_diag.unit.witness is not None
        and vol_diag.unit.witness.reduced.canonical_str() == "1"
    )
    with pytest.raises(ValueError, match="vanish"):
        pointwise_filippov(vol3(), ORIGIN)
    ok = both_routes and unit_zero and table_ok and vol_fails
    criterion(7, ok, "scaled volume multiplicative, unit table [e1,e2,e3] = e1, "
                     "plain volume rejected")


def test_criterion_08_form_bracket_and_bialgebroid():
    smp = SeededSampler(808)
    agree = 0
    for s in (vol3(), xvol3()):
        for _ in range(100):
            alphas = [smp.form(R3, 1) for _ in range(3)]
            a, b = form_bracket_both(s, alphas)
            if a == b:
                agree += 1
    props = all(
        form_bracket_properties(s, trials=6, seed=21).all_pass
        for s in (vol3(), xvol3())
    )
    axioms = all(
        wlfb_check(s, trials=5, degree=2, seed=8).all_pass
        for s in (vol3(), xvol3())
    )
    pg = pair_groupoid(vol3())
    restr = conormal_restriction_check(
        pg.structure, pg.units, trials=5, seed=11
    )
    ok = agree == 200 and props and axioms and restr.passed
    criterion(8, ok,
              f"expansions {agree}/200, properties={props}, axioms={axioms}, "
              f"diagonal restriction incl. extension independence={restr.passed}")


def test_criterion_09_subgroupoid_chain():
    pg = pair_groupoid(vol3())
    N = SolvedSubmanifold(R3, (("x3", Poly.zero(R3)),))
    rep = coiso_subgroupoid_check(pg, N, trials=5, seed=13)
    chain = (
        rep.passed
        and rep.base.coisotropic
        and rep.total.coisotropic
        and rep.subalgebroid.passed
    )
    point = SolvedSubmanifold(
        R3, tuple((c, Poly.zero(R3)) for c in R3.coords)
    )
    with pytest.raises(NotCoisotropicError) as exc:
        coiso_subgroupoid_check(pg, point, trials=5, seed=13)
    witness = exc.value.report.witness.canonical_str()
    rejected = witness == "frame (x1, x2, x3) -> 1"
    criterion(9, chain and rejected,
              f"hyperplane chain passes, point rejected with witness {witness!r}")


def test_criterion_10_cli_corpus(tmp_path, capsys):
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    files = {
        "pass": sorted((corpus / "pass").glob("*.nmb")),
        "refute": sorted((corpus / "refute").glob("*.nmb")),
    }
    assert files["pass"] and files["refute"]
    round_trips = exits = replays = total = 0
    for kind, expected_exit in (("pass", 0), ("refute", 1)):
        for path in files[kind]:
            total += 1
            canon = parse(path.read_text()).canonical_text()
            if parse(canon).canonical_text() == canon:
                round_trips += 1
            out = tmp_path / (path.stem + ".json")
            code = main(["run", str(path), "--json", str(out), "--seed", "3"])
            capsys.readouterr()
            if code == expected_exit:
                exits += 1
            doc = json.loads(out.read_text())
            again = run_session(
                parse(doc["session"]), seed=doc["seed"], degree=doc["degree"]
            )
            fresh = [
                (r.verdict, r.witness, r.value) for r in again.reports
            ]
            stored = [
                (r["verdict"], r["witness"], r["value"]) for r in doc["reports"]
            ]
            if fresh == stored:
                replays += 1
    ok = round_trips == exits == replays == total
    criterion(10, ok,
              f"{total} scripts: round-trip {round_trips}, exit codes {exits}, "
              f"witness replay {replays}")
