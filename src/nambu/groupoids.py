"""Polynomial group laws and pair models, with multiplicativity checks.

Multiplicativity of a bracket structure over a composition law is decided on
the graph of the composition: the graph must be coisotropic inside the
tripled space carrying the structure on each factor, the third factor signed
by the parity of the order. For group laws the same condition is also
computed as a pointwise translation identity on tensor coefficients; the two
routes reduce to the same polynomial family up to a global sign, so their
verdicts must agree and any disagreement raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence, Union

from .exterior import Form, MultiVec, interior_product, poly_det
from .formsbialg import (
    BialgebroidModel,
    SubalgebroidReport,
    coiso_subalgebroid_check,
    tangent_subalgebroid,
)
from .geomaps import (
    CoisotropyReport,
    PolyMap,
    RelatednessReport,
    SolvedSubmanifold,
    coinduce,
    coisotropy_check,
    opposite_sign,
    product_structure,
    relatedness_check,
)
from .ratpoly import Chart, Poly, Rat, chart, concat_charts, lift_poly
from .structures import NambuStructure, nambu_bracket, sharp


def _apply_pair(mult: PolyMap, first: Sequence[Poly], second: Sequence[Poly],
                target: Chart) -> list[Poly]:
    """Substitute two argument blocks into a doubled-chart map."""
    m = len(first)
    names = mult.source.coords
    images = {names[i]: first[i] for i in range(m)}
    images.update({names[m + i]: second[i] for i in range(m)})
    return [c.substitute(target, images) for c in mult.comps]


@dataclass(frozen=True)
class GroupLaw:
    """A polynomial group structure on a chart, validated at construction.

    `mult` lives on the doubled chart (first block = left factor), `unit` is
    a rational point, and `inv` sends each point to its inverse. The
    associativity, unit, and inverse laws are checked as exact polynomial
    identities, so an instance that constructs is a group law on the nose.
    """

    chart: Chart
    mult: PolyMap
    unit: tuple[Rat, ...]
    inv: PolyMap

    def __post_init__(self) -> None:
        ch = self.chart
        doubled, _ = concat_charts(ch, ch)
        if self.mult.source != doubled or self.mult.target != ch:
            raise ValueError("mult must map the doubled chart to the chart")
        if self.inv.source != ch or self.inv.target != ch:
            raise ValueError("inv must map the chart to itself")
        if len(self.unit) != ch.dim:
            raise ValueError("unit point needs one value per coordinate")

        tripled, (b1, b2, b3) = concat_charts(ch, ch, ch)

        def block(b: Sequence[int]) -> list[Poly]:
            return [Poly.coordinate(tripled, tripled.coords[i]) for i in b]

        gh = _apply_pair(self.mult, block(b1), block(b2), tripled)
        hk = _apply_pair(self.mult, block(b2), block(b3), tripled)
        assoc_left = _apply_pair(self.mult, gh, block(b3), tripled)
        assoc_right = _apply_pair(self.mult, block(b1), hk, tripled)
        if assoc_left != assoc_right:
            raise ValueError("multiplication is not associative")

        x = [Poly.coordinate(ch, c) for c in ch.coords]
        e = [Poly.constant(ch, u) for u in self.unit]
        if _apply_pair(self.mult, e, x, ch) != x:
            raise ValueError("left unit law fails")
        if _apply_pair(self.mult, x, e, ch) != x:
            raise ValueError("right unit law fails")
        gi = list(self.inv.comps)
        if _apply_pair(self.mult, x, gi, ch) != e or _apply_pair(self.mult, gi, x, ch) != e:
            raise ValueError("inverse law fails")

    def unit_submanifold(self) -> SolvedSubmanifold:
        """The unit point as a zero-dimensional solved-form locus."""
        solved = tuple(
            (c, Poly.constant(self.chart, u))
            for c, u in zip(self.chart.coords, self.unit)
        )
        return SolvedSubmanifold(self.chart, solved)

    def multiplication_graph(self) -> SolvedSubmanifold:
        """Graph of the product in the tripled chart, third block solved."""
        ch = self.chart
        tripled, (b1, b2, b3) = concat_charts(ch, ch, ch)
        positions = tuple(b1) + tuple(b2)
        solved = tuple(
            (tripled.coords[b3[j]], lift_poly(self.mult.comps[j], tripled, positions))
            for j in range(ch.dim)
        )
        return SolvedSubmanifold(tripled, solved)


def translation_group(ch: Chart) -> GroupLaw:
    """Componentwise addition with unit 0 and negation as inverse."""
    doubled, (b1, b2) = concat_charts(ch, ch)
    comps = tuple(
        Poly.coordinate(doubled, doubled.coords[i])
        + Poly.coordinate(doubled, doubled.coords[j])
        for i, j in zip(b1, b2)
    )
    inv = PolyMap(ch, ch, tuple(-Poly.coordinate(ch, c) for c in ch.coords))
    return GroupLaw(ch, PolyMap(doubled, ch, comps), (Fraction(0),) * ch.dim, inv)


def heisenberg_group() -> GroupLaw:
    """The unipotent law (a, b, c)(a', b', c') = (a+a', b+b', c+c'+a*b')."""
    ch = chart("a b c")
    doubled, _ = concat_charts(ch, ch)
    a, b, c, a2, b2, c2 = (Poly.coordinate(doubled, nm) for nm in doubled.coords)
    mult = PolyMap(doubled, ch, (a + a2, b + b2, c + c2 + a * b2))
    av, bv, cv = (Poly.coordinate(ch, nm) for nm in ch.coords)
    inv = PolyMap(ch, ch, (-av, -bv, -cv + av * bv))
    return GroupLaw(ch, mult, (Fraction(0),) * 3, inv)


@dataclass(frozen=True)
class PairGroupoid:
    """Doubled-chart model over a base structure: arrows are point pairs.

    The total chart is two copies of the base chart (second copy primed).
    The source map reads the first block, the target the second, units sit
    on the diagonal, and inversion swaps blocks. The total structure is the
    block sum with the parity sign of the order on the second copy.
    """

    base: NambuStructure
    total: Chart = field(init=False, compare=False, repr=False)
    blocks: tuple[tuple[int, ...], tuple[int, ...]] = field(
        init=False, compare=False, repr=False
    )
    structure: NambuStructure = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        prod = product_structure(self.base, self.base, opposite_sign(self.base.order))
        total, blocks = concat_charts(self.base.chart, self.base.chart)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "blocks", (blocks[0], blocks[1]))
        object.__setattr__(self, "structure", prod)
        self._verify_structure_maps()

    def _verify_structure_maps(self) -> None:
        # one-time symbolic sanity: units embed, inversion is an involution;
        # raised explicitly so that it also runs under python -O
        ident = PolyMap.identity(self.base.chart)
        swap = self.inversion_map()
        if not (
            self.source_map().after(self.unit_map()) == ident
            and self.target_map().after(self.unit_map()) == ident
            and swap.after(swap) == PolyMap.identity(self.total)
            and self.source_map().after(swap) == self.target_map()
        ):
            raise AssertionError("pair model structure maps are inconsistent")

    def source_map(self) -> PolyMap:
        bx, _ = self.blocks
        kept = [self.total.coords[i] for i in bx]
        return PolyMap.projection(self.total, self.base.chart, kept)

    def target_map(self) -> PolyMap:
        _, by = self.blocks
        kept = [self.total.coords[i] for i in by]
        return PolyMap.projection(self.total, self.base.chart, kept)

    def unit_map(self) -> PolyMap:
        x = tuple(Poly.coordinate(self.base.chart, c) for c in self.base.chart.coords)
        return PolyMap(self.base.chart, self.total, x + x)

    def inversion_map(self) -> PolyMap:
        bx, by = self.blocks
        co = self.total.coords
        comps = tuple(
            Poly.coordinate(self.total, co[i]) for i in tuple(by) + tuple(bx)
        )
        return PolyMap(self.total, self.total, comps)

    def unit_submanifold(self) -> SolvedSubmanifold:
        """The diagonal, second block solved equal to the first."""
        bx, by = self.blocks
        co = self.total.coords
        solved = tuple(
            (co[by[i]], Poly.coordinate(self.total, co[bx[i]]))
            for i in range(self.base.chart.dim)
        )
        return SolvedSubmanifold(self.total, solved)

    def multiplication_graph(self) -> SolvedSubmanifold:
        """Composable triples (g, h, g.h): middle matches, outer blocks pass."""
        tripled, (t1, t2, t3) = concat_charts(self.total, self.total, self.total)
        m = self.base.chart.dim
        co = tripled.coords

        def coord(pos: int) -> Poly:
            return Poly.coordinate(tripled, co[pos])

        solved = []
        for i in range(m):
            solved.append((co[t2[i]], coord(t1[m + i])))
            solved.append((co[t3[i]], coord(t1[i])))
            solved.append((co[t3[m + i]], coord(t2[m + i])))
        return SolvedSubmanifold(tripled, tuple(solved))


GroupoidModel = Union[GroupLaw, PairGroupoid]


def _require_model_structure(model: GroupoidModel, s: NambuStructure) -> None:
    """Reject a structure the model's checks do not apply to."""
    if isinstance(model, GroupLaw):
        if s.chart != model.chart:
            raise ValueError("structure must live on the group chart")
    elif isinstance(model, PairGroupoid):
        if s != model.structure:
            raise ValueError("structure must be the doubled structure of the model")
    else:
        raise TypeError("model must be a GroupLaw or a PairGroupoid")


def _tripled_structure(s: NambuStructure) -> NambuStructure:
    """s (+) s (+) sign*s with the parity sign of the order on the last factor."""
    return product_structure(product_structure(s, s, 1), s, opposite_sign(s.order))


def _minor_pushforward(
    coeffs: dict, jac: list[list[Poly]], order: int, target_dim: int, big: Chart
) -> dict[tuple[int, ...], Poly]:
    """Pushforward coefficients sum_I c_I det(jac[J, I]) per increasing J."""
    out: dict[tuple[int, ...], Poly] = {}
    for J in combinations(range(target_dim), order):
        acc = Poly.zero(big)
        for I, c in coeffs.items():
            rows = [[jac[j][i] for i in I] for j in J]
            acc = acc + c * poly_det(rows, big)
        if not acc.is_zero:
            out[J] = acc
    return out


def translation_identity_defects(
    law: GroupLaw, s: NambuStructure
) -> tuple[tuple[tuple[int, ...], Poly], ...]:
    """Defect of the product coefficient against left/right translation sums.

    Componentwise on the doubled chart: coefficient of the structure at g.h
    minus the right-translation pushforward from g minus the left-translation
    pushforward from h. Empty output means the identity holds exactly.
    """
    ch = law.chart
    m, n = ch.dim, s.order
    doubled, (bg, bh) = concat_charts(ch, ch)
    comps = law.mult.comps
    jac_g = [[comps[j].partial(doubled.coords[bg[i]]) for i in range(m)] for j in range(m)]
    jac_h = [[comps[j].partial(doubled.coords[bh[i]]) for i in range(m)] for j in range(m)]
    at_g = {I: lift_poly(c, doubled, bg) for I, c in s.tensor.comps.items()}
    at_h = {I: lift_poly(c, doubled, bh) for I, c in s.tensor.comps.items()}
    from_right = _minor_pushforward(at_g, jac_g, n, m, doubled)
    from_left = _minor_pushforward(at_h, jac_h, n, m, doubled)
    images = dict(zip(ch.coords, comps))
    zero = Poly.zero(doubled)
    defects = []
    for J in combinations(range(m), n):
        lhs = s.tensor.component(J).substitute(doubled, images)
        d = lhs - from_right.get(J, zero) - from_left.get(J, zero)
        if not d.is_zero:
            defects.append((J, d))
    return tuple(defects)


@dataclass(frozen=True)
class MultiplicativityReport:
    """Graph-coisotropy verdict plus, for group laws, the translation route."""

    graph: CoisotropyReport
    translation_defects: Optional[tuple[tuple[tuple[int, ...], Poly], ...]]

    @property
    def multiplicative(self) -> bool:
        return self.graph.coisotropic

    @property
    def agree(self) -> bool:
        if self.translation_defects is None:
            return True
        return self.graph.coisotropic == (not self.translation_defects)


def multiplicativity_check(model: GroupoidModel, s: NambuStructure) -> MultiplicativityReport:
    """Decide multiplicativity on the composition graph; cross-check for groups."""
    _require_model_structure(model, s)
    graph = coisotropy_check(_tripled_structure(s), model.multiplication_graph())
    translation = None
    if isinstance(model, GroupLaw):
        translation = translation_identity_defects(model, s)
    report = MultiplicativityReport(graph, translation)
    if not report.agree:
        raise AssertionError("graph and translation routes disagree")
    return report


@dataclass(frozen=True)
class TheoremDiagnostics:
    """Independent necessary conditions for a multiplicative structure.

    `unit`: the unit locus is coisotropic. `base_dependent`: brackets of
    source-lifted (dually target-lifted) coordinates mention only that
    block. `mixed_zero`: contracting one source differential and one target
    differential into the tensor gives zero.
    """

    unit: CoisotropyReport
    base_dependent: bool
    base_witness: Optional[tuple[tuple[str, ...], Poly]]
    mixed_zero: bool
    mixed_witness: Optional[tuple[str, str]]

    @property
    def passed(self) -> bool:
        return self.unit.coisotropic and self.base_dependent and self.mixed_zero


def theorem_diagnostics(model: GroupoidModel, s: NambuStructure) -> TheoremDiagnostics:
    _require_model_structure(model, s)
    unit = coisotropy_check(s, model.unit_submanifold())
    if isinstance(model, GroupLaw):
        # the base is a point: lifted functions are constants, so the
        # dependence and mixed-contraction conditions hold vacuously
        return TheoremDiagnostics(unit, True, None, True, None)
    base = model.base.chart
    m, n = base.dim, s.order
    bx, by = model.blocks
    co = model.total.coords

    base_dependent, base_witness = True, None
    for block, other in ((bx, by), (by, bx)):
        for tup in combinations(range(m), n):
            fs = [Poly.coordinate(model.total, co[block[i]]) for i in tup]
            out = nambu_bracket(s, fs)
            if any(out.mentions(co[j]) for j in other):
                base_dependent = False
                base_witness = (tuple(co[block[i]] for i in tup), out)
                break
        if not base_dependent:
            break

    mixed_zero, mixed_witness = True, None
    for i in range(m):
        for j in range(m):
            fa = Form.coordinate_differential(model.total, co[bx[i]])
            fb = Form.coordinate_differential(model.total, co[by[j]])
            if not interior_product(s.tensor, [fa, fb]).is_zero:
                mixed_zero, mixed_witness = False, (co[bx[i]], co[by[j]])
                break
        if not mixed_zero:
            break
    return TheoremDiagnostics(unit, base_dependent, base_witness, mixed_zero, mixed_witness)


def inversion_identity_defects(
    phi: PolyMap, s: NambuStructure
) -> tuple[tuple[tuple[int, ...], Poly], ...]:
    """Defect of push(s) along phi minus the parity-signed structure at the image."""
    ch = s.chart
    if phi.source != ch or phi.target != ch:
        raise ValueError("inversion must map the structure chart to itself")
    dim, n = ch.dim, s.order
    jac = [[phi.comps[j].partial(ch.coords[i]) for i in range(dim)] for j in range(dim)]
    push = _minor_pushforward(s.tensor.comps, jac, n, dim, ch)
    sign = Poly.constant(ch, opposite_sign(n))
    images = dict(zip(ch.coords, phi.comps))
    zero = Poly.zero(ch)
    defects = []
    for J in combinations(range(dim), n):
        expected = sign * s.tensor.component(J).substitute(ch, images)
        d = push.get(J, zero) - expected
        if not d.is_zero:
            defects.append((J, d))
    return tuple(defects)


@dataclass(frozen=True)
class InversionReport:
    """Pushforward behaviour of the inversion map against the same structure."""

    relatedness: RelatednessReport
    identity_defects: tuple[tuple[tuple[int, ...], Poly], ...]

    @property
    def passed(self) -> bool:
        return self.relatedness.anti_related and not self.identity_defects


def inversion_check(model: GroupoidModel, s: NambuStructure) -> InversionReport:
    """Inversion reverses the structure up to the parity sign of the order."""
    _require_model_structure(model, s)
    phi = model.inv if isinstance(model, GroupLaw) else model.inversion_map()
    rel = relatedness_check(phi, s, s)
    return InversionReport(rel, inversion_identity_defects(phi, s))


@dataclass(frozen=True)
class PointStructure:
    """The zero bracket of a given order on a zero-dimensional base."""

    order: int

    @property
    def is_zero(self) -> bool:
        return True


def base_structure(
    model: GroupoidModel, s: NambuStructure, degree: int = 2
) -> Union[NambuStructure, PointStructure]:
    """Descend the total structure to the base along the source projection.

    Group laws sit over a single point, where any bracket of positive order
    is zero. For pair models the structure is coinduced along the source
    projection and the target projection is verified to reverse the result
    up to the parity sign; an obstruction raises since it would contradict
    base-only dependence of source-lifted brackets.
    """
    _require_model_structure(model, s)
    if isinstance(model, GroupLaw):
        return PointStructure(s.order)
    rep = coinduce(model.source_map(), s, degree)
    if not rep.coinduced:
        raise ValueError(
            "structure does not descend: " + rep.obstruction.canonical_str()
        )
    out = rep.structure
    back = relatedness_check(model.target_map(), s, out)
    if not back.anti_related:
        raise AssertionError("target projection fails the signed descent relation")
    return out


def conormal_pair_model(pg: PairGroupoid) -> BialgebroidModel:
    """Unit-conormal realization of the dual pair over a doubled-chart model.

    Dual sections over the diagonal are spanned by dy_j - dx_j. The
    differential sends a base function to its gradient in that frame; the
    anchor contracts the total structure, restricts to the diagonal, and
    projects to the first block. The bracket this induces on base functions
    equals the base bracket times the parity sign of the order.
    """
    base = pg.base.chart
    m = base.dim
    bx, by = pg.blocks
    total = pg.total
    co = total.coords
    thetas = [
        Form(total, 1, {(by[j],): Poly.one(total), (bx[j],): -Poly.one(total)})
        for j in range(m)
    ]
    xpos = {i: k for k, i in enumerate(bx)}
    diag_images: dict[str, Poly] = {}
    for j in range(m):
        xj = Poly.coordinate(base, base.coords[j])
        diag_images[co[bx[j]]] = xj
        diag_images[co[by[j]]] = xj

    def d0(f: Poly) -> Form:
        if f.chart != base:
            raise ValueError("expected a base function")
        acc = Form.zero(total, 1)
        for j in range(m):
            acc = acc + thetas[j].scale(lift_poly(f.partial(j), total, bx))
        return acc

    def rho(alphas: Sequence[Form]) -> MultiVec:
        v = sharp(pg.structure, list(alphas))
        comps: dict[tuple[int, ...], Poly] = {}
        for (i,), c in v.comps.items():
            k = xpos.get(i)
            if k is None:
                continue
            q = c.substitute(base, diag_images)
            if not q.is_zero:
                comps[(k,)] = q
        return MultiVec(base, 1, comps)

    return BialgebroidModel(
        base=base, order=pg.base.order, d0=d0, rho=rho, label="pair conormal"
    )


class NotCoisotropicError(ValueError):
    """A required coisotropy precondition failed; carries the failing report."""

    def __init__(self, report: CoisotropyReport):
        self.report = report
        msg = "base locus is not coisotropic"
        if report.witness is not None:
            msg += ": " + report.witness.canonical_str()
        super().__init__(msg)


def restricted_subgroupoid(pg: PairGroupoid, sub: SolvedSubmanifold) -> SolvedSubmanifold:
    """The doubled copy of a base locus inside the total chart."""
    if sub.chart != pg.base.chart:
        raise ValueError("locus must live on the base chart")
    bx, by = pg.blocks
    co = pg.total.coords
    solved = []
    for name, img in sub.solved:
        i = pg.base.chart.index(name)
        solved.append((co[bx[i]], lift_poly(img, pg.total, bx)))
        solved.append((co[by[i]], lift_poly(img, pg.total, by)))
    return SolvedSubmanifold(pg.total, tuple(solved))


@dataclass(frozen=True)
class SubgroupoidReport:
    """Chained verdicts for a doubled locus over a base locus."""

    base: CoisotropyReport
    total: CoisotropyReport
    subalgebroid: SubalgebroidReport

    @property
    def passed(self) -> bool:
        return (
            self.base.coisotropic
            and self.total.coisotropic
            and self.subalgebroid.passed
        )


def coiso_subgroupoid_check(
    pg: PairGroupoid, sub: SolvedSubmanifold, trials: int = 6, seed: int = 0
) -> SubgroupoidReport:
    """Full chain for a base locus: locus, doubled locus, tangent subalgebroid.

    The base locus must be coisotropic to begin with; a failure raises with
    the witness attached rather than reporting, since the doubled locus is
    not a subgroupoid candidate at all in that case.
    """
    base_rep = coisotropy_check(pg.base, sub)
    if not base_rep.coisotropic:
        raise NotCoisotropicError(base_rep)
    total_rep = coisotropy_check(pg.structure, restricted_subgroupoid(pg, sub))
    alg_rep = coiso_subalgebroid_check(
        pg.base, tangent_subalgebroid(sub), trials=trials, seed=seed
    )
    return SubgroupoidReport(base_rep, total_rep, alg_rep)
