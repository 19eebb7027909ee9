"""Machine-independent work counts of the Fundamental identity sweep.

Wall time depends on the host; the number of differentials and partial
derivatives a sweep takes does not. The case is the baseline sweep of the
roadmap, (1 + x5) d1^d2^d3^d4 on R5 at degree 2: 20 monomials, so
C(20, 3) = 1140 f-tuples, all with a vanishing Lie defect. Computing each
monomial's differential once per sweep, and each coefficient partial
only where the Schouten bracket uses it, keeps the counts below; taking
differentials per tuple again would cost 3420 `de_rham_d` and 21040
`partial` calls on the same sweep.
"""

import nambu.structures
from nambu.exterior import MultiVec
from nambu.ratpoly import Poly, chart
from nambu.structures import NambuStructure, fi_check


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
