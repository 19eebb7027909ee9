"""Machine-independent work counts of the Fundamental identity checks and the kernel.

Wall time depends on the host; the number of differentials, partial
derivatives and powers a computation takes does not. The sweep case is
the baseline sweep of the roadmap, (1 + x5) d1^d2^d3^d4 on R5 at degree
2: 20 monomials, so C(20, 3) = 1140 f-tuples, all with a vanishing Lie
defect. Computing each monomial's differential once per sweep, and each
coefficient partial only where the Schouten bracket uses it, keeps the
counts below; taking differentials per tuple again would cost 3420
`de_rham_d` and 21040 `partial` calls on the same sweep. Contracting each
f-tuple's prefix i_(df_(i_1)) Pi, i_(df_(i_2)) i_(df_(i_1)) Pi once, instead
of per tuple, cuts `interior_one_form` calls from 3 * 1140 = 3420 to 1329.
"""

from fractions import Fraction

import nambu.structures
from nambu.exterior import MultiVec
from nambu.ratpoly import Poly, chart
from nambu.structures import (
    NambuStructure,
    fi_bracket_defect,
    fi_check,
    hamiltonian_commutator_defect,
    volume_structure,
)


def _counting(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_baseline_sweep_op_counts(monkeypatch):
    r5 = chart("x1 x2 x3 x4 x5", "R5")
    coeff = Poly.one(r5) + Poly.coordinate(r5, "x5")
    s = NambuStructure(r5, 4, MultiVec(r5, 4, {(0, 1, 2, 3): coeff}))
    counts = {"de_rham_d": 0, "partial": 0}
    _counting(monkeypatch, nambu.structures, "de_rham_d", counts)
    _counting(monkeypatch, Poly, "partial", counts)
    rep = fi_check(s, degree=2)
    assert rep.verified
    assert rep.family_size == (1140, 0)
    assert counts["de_rham_d"] == 20
    assert counts["partial"] <= 4040


def test_baseline_sweep_contracts_each_prefix_once(monkeypatch):
    r5 = chart("x1 x2 x3 x4 x5", "R5")
    coeff = Poly.one(r5) + Poly.coordinate(r5, "x5")
    s = NambuStructure(r5, 4, MultiVec(r5, 4, {(0, 1, 2, 3): coeff}))
    counts = {"de_rham_d": 0, "interior_one_form": 0}
    _counting(monkeypatch, nambu.structures, "de_rham_d", counts)
    _counting(monkeypatch, nambu.structures, "interior_one_form", counts)
    rep = fi_check(s, degree=2)
    assert rep.family_size == (1140, 0)
    assert counts["de_rham_d"] == 20
    # one contraction per prefix that begins a sorted 3-tuple of the 20
    # monomials: C(18, 1) + C(19, 2) + C(20, 3) = 18 + 171 + 1140
    assert counts["interior_one_form"] == 1329


def test_dense_substitute_takes_each_power_once(monkeypatch):
    r3 = chart("x1 x2 x3", "R3")
    uv = chart("u v", "UV")
    u, v = Poly.coordinate(uv, "u"), Poly.coordinate(uv, "v")
    dense = Poly(r3, {(i, j, k): i + 2 * j + 3 * k + 1
                      for i in range(5) for j in range(5) for k in range(5) if i + j + k <= 4})
    one = Poly.one(uv)
    images = {"x1": u + v, "x2": u - one, "x3": v * v + 2 * one}
    counts = {"__pow__": 0}
    _counting(monkeypatch, Poly, "__pow__", counts)
    got = dense.substitute(uv, images)
    # one power per distinct (coordinate, exponent) pair: 3 coordinates, exponents 1..4
    assert counts["__pow__"] <= 12
    pt = {"u": Fraction(2, 3), "v": Fraction(-5, 7)}
    at = {c: img.eval_at(pt) for c, img in images.items()}
    assert got.eval_at(pt) == dense.eval_at(at)


def test_nested_bracket_defects_take_each_differential_once(monkeypatch):
    # volume structure on R3: fs = (x1; x2*x3), gs = (x1^2; x2; x3). Taking
    # the differentials of every nested bracket's arguments again would
    # cost 24 and 14 de_rham_d calls.
    r3 = chart("x1 x2 x3", "R3")
    x1, x2, x3 = (Poly.coordinate(r3, c) for c in r3.coords)
    s = volume_structure(r3)
    counts = {"de_rham_d": 0}
    _counting(monkeypatch, nambu.structures, "de_rham_d", counts)
    assert fi_bracket_defect(s, (x1, x2 * x3), (x1 * x1, x2, x3)).is_zero
    assert counts["de_rham_d"] == 9
    counts["de_rham_d"] = 0
    assert hamiltonian_commutator_defect(s, (x1, x2 * x3), (x1 * x1, x2)).is_zero
    assert counts["de_rham_d"] == 6
