"""Nambu structures of order n: brackets, Hamiltonian fields, identity checks.

An order-n structure is an n-vector field Pi. Its bracket on functions is

    {f_1, ..., f_n} = Pi(df_1, ..., df_n)

and the check at the heart of this module is the Fundamental identity

    {f_1,..,f_(n-1),{g_1,..,g_n}} =
        sum_k {g_1,..,{f_1,..,f_(n-1),g_k},..,g_n}

swept exactly over monomial families. Verification is family-relative and
reported as such; refutation is sound and comes with a concrete witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Optional, Sequence

from .cartan import de_rham_d, schouten
from .exterior import (
    Form,
    MultiVec,
    basis_index_tuples,
    evaluate,
    interior_one_form,
    interior_product,
    lift_tensor,
    wedge_all,
)
from .ratpoly import Chart, Poly, Rat, Scalar, monomials_up_to

VERIFIED_ON_FAMILY = "VERIFIED_ON_FAMILY"
REFUTED = "REFUTED"


@dataclass
class NambuStructure:
    """An n-vector field regarded as a candidate Nambu structure.

    `factors` and `product_of` are optional construction records used by
    `sufficient_nambu`: they remember that the tensor was built as a wedge
    of vector fields, or as a block product of two smaller structures.
    """

    chart: Chart
    order: int
    tensor: MultiVec
    factors: Optional[tuple[MultiVec, ...]] = None
    product_of: Optional[tuple["NambuStructure", tuple[int, ...], "NambuStructure", tuple[int, ...]]] = None

    def __post_init__(self) -> None:
        if not (2 <= self.order <= self.chart.dim):
            raise ValueError(
                f"order {self.order} out of range for chart of dim {self.chart.dim}"
            )
        if self.tensor.chart != self.chart or self.tensor.grade != self.order:
            raise ValueError("tensor does not match the declared chart and order")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NambuStructure):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.order == other.order
            and self.tensor == other.tensor
        )


def volume_structure(chart: Chart) -> NambuStructure:
    """The top-degree structure d/dx_1 ^ ... ^ d/dx_m."""
    idx = tuple(range(chart.dim))
    return NambuStructure(
        chart, chart.dim, MultiVec(chart, chart.dim, {idx: Poly.one(chart)})
    )


def structure_from_fields(fields_: Sequence[MultiVec]) -> NambuStructure:
    """Wedge the given vector fields, remembering them for certification."""
    if len(fields_) < 2:
        raise ValueError("need at least two vector fields")
    return NambuStructure(
        fields_[0].chart, len(fields_), wedge_all(fields_), factors=tuple(fields_)
    )


def block_product(
    ambient: Chart,
    a: NambuStructure,
    a_positions: Sequence[int],
    b: NambuStructure,
    b_positions: Sequence[int],
) -> NambuStructure:
    """Pi_A ^ Pi_B on an ambient chart, the factors living on disjoint blocks."""
    if set(a_positions) & set(b_positions):
        raise ValueError("factor blocks overlap")
    ta = lift_tensor(a.tensor, ambient, list(a_positions))
    tb = lift_tensor(b.tensor, ambient, list(b_positions))
    return NambuStructure(
        ambient,
        a.order + b.order,
        ta.wedge(tb),
        product_of=(a, tuple(a_positions), b, tuple(b_positions)),
    )


def _differentials(fs: Sequence[Poly]) -> list[Form]:
    return [de_rham_d(f) for f in fs]


def _bracket(s: NambuStructure, dfs: Sequence[Form]) -> Poly:
    """Pi(df_1, ..., df_n), from the differentials."""
    return evaluate(s.tensor, dfs)


def nambu_bracket(s: NambuStructure, fs: Sequence[Poly]) -> Poly:
    """{f_1, ..., f_n} = Pi(df_1, ..., df_n)."""
    if len(fs) != s.order:
        raise ValueError(f"bracket of order {s.order} takes {s.order} functions")
    return _bracket(s, _differentials(fs))


def hamiltonian_field(s: NambuStructure, fs: Sequence[Poly]) -> MultiVec:
    """X_(f_1..f_(n-1)) = i_(df_1 ^ ... ^ df_(n-1)) Pi; X(g) = {f_1,..,f_(n-1),g}."""
    if len(fs) != s.order - 1:
        raise ValueError(f"Hamiltonian field takes {s.order - 1} functions")
    return interior_product(s.tensor, _differentials(fs))


def sharp(s: NambuStructure, alphas: Sequence[Form]) -> MultiVec:
    """Pi#(a_1 ^ ... ^ a_(n-1)), pinned by <b, Pi#(...)> = Pi(a_1,..,a_(n-1),b)."""
    if len(alphas) != s.order - 1:
        raise ValueError(f"sharp takes {s.order - 1} one-forms")
    return interior_product(s.tensor, list(alphas))


def fi_bracket_defect(
    s: NambuStructure, fs: Sequence[Poly], gs: Sequence[Poly]
) -> Poly:
    """Fundamental identity defect, computed by direct nested brackets.

    Each argument's differential is taken once; only the inner bracket
    values need a differential of their own.
    """
    if len(fs) != s.order - 1 or len(gs) != s.order:
        raise ValueError("defect takes n-1 functions then n functions")
    return _fi_bracket_defect(s, _differentials(fs), _differentials(gs))


def _fi_bracket_defect(
    s: NambuStructure, dfs: list[Form], dgs: list[Form]
) -> Poly:
    """`fi_bracket_defect` from the differentials of its arguments."""
    lhs = _bracket(s, dfs + [de_rham_d(_bracket(s, dgs))])
    rhs = Poly.zero(s.chart)
    for k in range(s.order):
        d_inner = de_rham_d(_bracket(s, dfs + [dgs[k]]))
        rhs = rhs + _bracket(s, dgs[:k] + [d_inner] + dgs[k + 1 :])
    return lhs - rhs


def hamiltonian_commutator_defect(
    s: NambuStructure, fs: Sequence[Poly], gs: Sequence[Poly]
) -> MultiVec:
    """Defect of the Hamiltonian form of the Fundamental identity.

    [X_F, X_G] - sum_k X_(g_1,..,{F,g_k},..,g_(n-1)), a vector field that
    vanishes identically when the identity holds for the pair of tuples.
    Each argument's differential is taken once, as in `fi_bracket_defect`.
    """
    if len(fs) != s.order - 1 or len(gs) != s.order - 1:
        raise ValueError("commutator defect takes two (n-1)-tuples")
    return _hamiltonian_commutator_defect(s, _differentials(fs), _differentials(gs))


def _hamiltonian_commutator_defect(
    s: NambuStructure, dfs: list[Form], dgs: list[Form]
) -> MultiVec:
    """`hamiltonian_commutator_defect` from the differentials of its arguments."""
    acc = schouten(interior_product(s.tensor, dfs), interior_product(s.tensor, dgs))
    for k in range(len(dgs)):
        d_inner = de_rham_d(_bracket(s, dfs + [dgs[k]]))
        acc = acc - interior_product(s.tensor, dgs[:k] + [d_inner] + dgs[k + 1 :])
    return acc


def lie_preservation_defect(s: NambuStructure, fs: Sequence[Poly]) -> MultiVec:
    """L_(X_F) Pi as a Schouten bracket; zero for every F exactly when Nambu."""
    if len(fs) != s.order - 1:
        raise ValueError(f"Hamiltonian field takes {s.order - 1} functions")
    return schouten(interior_product(s.tensor, _differentials(fs)), s.tensor)


@dataclass(frozen=True)
class FiWitness:
    """A concrete Fundamental identity violation."""

    fs: tuple[Poly, ...]
    gs: tuple[Poly, ...]
    defect: Poly

    def reverify(self, s: NambuStructure) -> bool:
        """Recompute the defect by direct nested brackets and compare."""
        return fi_bracket_defect(s, self.fs, self.gs) == self.defect and not self.defect.is_zero

    def canonical_str(self) -> str:
        fs = "; ".join(f.canonical_str() for f in self.fs)
        gs = "; ".join(g.canonical_str() for g in self.gs)
        return f"fs = ({fs}), gs = ({gs}), defect = {self.defect.canonical_str()}"


@dataclass(frozen=True)
class FiReport:
    """Outcome of `fi_check`.

    `family_size` is (f-tuples swept, g-tuples evaluated). The first entry
    counts every f-tuple whose Lie defect was computed, up to and including
    the refuting one. The second is 0 on VERIFIED_ON_FAMILY, where no
    g-tuple needs evaluating, and on REFUTED is the witness's 1-based
    position among the g-tuples of the refuting f-tuple.
    """

    verdict: str
    degree: int
    family_size: tuple[int, int]
    witness: Optional[FiWitness] = None

    @property
    def verified(self) -> bool:
        return self.verdict == VERIFIED_ON_FAMILY


def fi_check(s: NambuStructure, degree: int = 2) -> FiReport:
    """Sweep the Fundamental identity defect over monomial tuples.

    Every tuple of monomials of total degree <= degree goes into the f and g
    slot groups, restricted to sorted distinct tuples by skew-symmetry
    (a repeated slot kills every term of the identity, and so does a
    constant slot, so those tuples are satisfied trivially and skipped).

    The per-tuple defect equals (L_(X_F) Pi)(dg_1, .., dg_n): the Lie
    derivative is computed once per f-tuple, the g sweep evaluates it.
    When the derivative vanishes, every g defect for that F is zero; when
    it does not, the coordinate tuples alone already contain a witness, so
    the first nonzero defect in canonical order is found and returned. The
    reported witness defect is identical to the nested-bracket value, which
    `FiWitness.reverify` recomputes independently.

    The differential of each monomial of the family is computed once per
    sweep and shared by the f slots (X_F = i_(dF) Pi) and the g slots.
    The f-tuples are walked in `combinations` order, and consecutive tuples
    share a prefix, so each prefix contraction i_(df_(i_k)) .. i_(df_(i_1)) Pi
    is taken once and only the changed tail is contracted again. Every
    f-tuple still gets its own Lie defect, so `family_size` keeps its
    meaning.

    Verification is relative to the swept family; refutation is sound.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    n = s.order
    mons = monomials_up_to(s.chart, degree)
    dfs = _differentials(mons)
    f_count = 0
    # fields[k] = i_(df_(t_k)) .. i_(df_(t_1)) Pi for the current f-tuple t
    fields = [s.tensor]
    prev = (-1,) * (n - 1)
    for t in combinations(range(len(mons)), n - 1):
        f_count += 1
        k = 0
        while t[k] == prev[k]:  # t keeps the first k positions of prev
            k += 1
        del fields[k + 1 :]
        for i in t[k:]:
            fields.append(interior_one_form(dfs[i], fields[-1]))
        prev = t
        d = schouten(fields[-1], s.tensor)
        if d.is_zero:
            continue
        for g_count, u in enumerate(combinations(range(len(mons)), n), 1):
            defect = evaluate(d, [dfs[i] for i in u])
            if not defect.is_zero:
                fs = tuple(mons[i] for i in t)
                gs = tuple(mons[i] for i in u)
                w = FiWitness(fs, gs, defect)
                return FiReport(REFUTED, degree, (f_count, g_count), w)
        raise AssertionError(
            "nonzero Lie defect without a monomial witness; coordinate tuples "
            "should already expose every nonzero component"
        )
    return FiReport(VERIFIED_ON_FAMILY, degree, (f_count, 0))


@dataclass(frozen=True)
class PluckerReport:
    passed: bool
    witness_index: Optional[tuple[int, ...]] = None
    residual: Optional[MultiVec] = None


def plucker_check(s: NambuStructure) -> PluckerReport:
    """Decomposability-type necessary condition for order >= 3.

    For every basis (n-1)-form w, the field i_w(Pi) wedged back onto Pi must
    vanish. A nonzero residual refutes the Nambu property (the converse does
    not hold: passing here proves nothing by itself).
    """
    if s.order < 3:
        raise ValueError("the wedge condition applies to orders >= 3")
    for idx in basis_index_tuples(s.chart, s.order - 1):
        alphas = [
            Form.coordinate_differential(s.chart, s.chart.coords[i]) for i in idx
        ]
        x = interior_product(s.tensor, alphas)
        residual = x.wedge(s.tensor)
        if not residual.is_zero:
            return PluckerReport(False, tuple(idx), residual)
    return PluckerReport(True)


@dataclass(frozen=True)
class Certificate:
    kind: str  # top_degree | commuting_decomposable | product_of_certified | none
    detail: str = ""

    @property
    def certified(self) -> bool:
        return self.kind != "none"


def sufficient_nambu(s: NambuStructure) -> Certificate:
    """Structural certificates for classes that are always Nambu.

    Top-degree tensors, wedges of pairwise commuting vector fields (the
    factors must have been supplied at construction), and block products of
    two certified structures. Returns kind "none" when nothing applies;
    that is not a refutation.
    """
    if s.order == s.chart.dim:
        return Certificate("top_degree", "order equals chart dimension")
    if s.factors is not None:
        if wedge_all(s.factors) != s.tensor:
            raise ValueError("recorded factors do not multiply to the tensor")
        for i in range(len(s.factors)):
            for j in range(i + 1, len(s.factors)):
                if not schouten(s.factors[i], s.factors[j]).is_zero:
                    return Certificate(
                        "none", f"factors {i + 1} and {j + 1} do not commute"
                    )
        return Certificate("commuting_decomposable", "pairwise commuting factors")
    if s.product_of is not None:
        a, _, b, _ = s.product_of
        ca = sufficient_nambu(a)
        cb = sufficient_nambu(b)
        if ca.certified and cb.certified:
            return Certificate(
                "product_of_certified", f"factors: {ca.kind}, {cb.kind}"
            )
        return Certificate("none", "a block factor lacks a certificate")
    return Certificate("none")


def _rank_of_rows(rows: list[list[Rat]]) -> int:
    """Exact rank by fraction-free style Gaussian elimination."""
    m = [row[:] for row in rows if any(row)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    col = 0
    while m and col < cols:
        pivot = next((i for i, r in enumerate(m) if r[col]), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pr = m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                factor = m[i][col] / pr[col]
                m[i] = [a - factor * b for a, b in zip(m[i], pr)]
        rank += 1
        m = m[:rank] + [r for r in m[rank:] if any(r)]
        col += 1
    return rank


def distribution_rank(s: NambuStructure, point: Mapping[str, Scalar]) -> int:
    """Rank at a rational point of the span of Pi# over basis coframe wedges."""
    rows: list[list[Rat]] = []
    for idx in basis_index_tuples(s.chart, s.order - 1):
        alphas = [
            Form.coordinate_differential(s.chart, s.chart.coords[i]) for i in idx
        ]
        x = interior_product(s.tensor, alphas)
        row = [Fraction(0)] * s.chart.dim
        for (i,), p in x.comps.items():
            row[i] = p.eval_at(point)
        rows.append(row)
    if not rows:
        return 0
    return _rank_of_rows(rows)
