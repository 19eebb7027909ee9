"""Polynomial groupoids, with multiplicativity checks.

A groupoid keeps its arrows on one chart. Source and target keep some of the
arrow coordinates, so the base is read off either block; a group keeps none,
and its base is a point. Products compose in diagrammatic order: g.h is
defined when the target of g equals the source of h, and it runs from the
source of g to the target of h. Group laws and pair models are the two
constructors.

Multiplicativity of a bracket structure over a composition law is decided on
the graph of the composition: the graph must be coisotropic inside the
tripled space carrying the structure on each factor, the third factor signed
by the parity of the order. When the base is a point the same condition is
also computed as a pointwise translation identity on tensor coefficients; the
two routes reduce to the same polynomial family up to a global sign, so their
verdicts must agree and the report says whether they do.
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


def _copies(ch: Chart, n: int) -> tuple[Chart, list[list[Poly]]]:
    """n copies of a chart side by side, with the coordinates of each copy."""
    big, blocks = concat_charts(*[ch] * n)
    return big, [[Poly.coordinate(big, big.coords[i]) for i in b] for b in blocks]


@dataclass(frozen=True)
class Groupoid:
    """A polynomial groupoid on one arrow chart, validated at construction.

    `source` and `target` are the positions of the arrow coordinates that s
    and t keep, in base order; both are empty for a group. `units` is the
    unit locus, solved over the source coordinates. `mult` lives on the
    doubled chart (first block = left factor) and is read on composable
    pairs: the right factor's source coordinates are set to the left
    factor's target coordinates. `over` is the base structure of a pair
    model, and `structure` the doubled structure derived from it. Every
    groupoid law is checked as an exact polynomial identity, so an instance
    that constructs is a groupoid on the nose.
    """

    chart: Chart
    source: tuple[int, ...]
    target: tuple[int, ...]
    units: SolvedSubmanifold
    mult: PolyMap
    inv: PolyMap
    over: Optional[NambuStructure] = None
    structure: Optional[NambuStructure] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        ch = self.chart
        doubled, (g, h) = _copies(ch, 2)
        if self.mult.source != doubled or self.mult.target != ch:
            raise ValueError("mult must map the doubled chart to the chart")
        if self.inv.source != ch or self.inv.target != ch:
            raise ValueError("inv must map the chart to itself")
        if not set(self.source + self.target) <= set(range(ch.dim)):
            raise ValueError("source and target must list arrow coordinate positions")
        kept = {ch.coords[i] for i in self.source}
        if self.units.chart != ch or set(self.units.free_names) != kept:
            raise ValueError("units must be solved over the source coordinates")
        structure = None
        if self.over is not None:
            structure = product_structure(self.over, self.over, opposite_sign(self.over.order))
            if structure.chart != ch:
                raise ValueError("the doubled base structure must live on the arrow chart")
        object.__setattr__(self, "structure", structure)

        def s(g: Sequence[Poly]) -> list[Poly]:
            return [g[i] for i in self.source]

        def t(g: Sequence[Poly]) -> list[Poly]:
            return [g[i] for i in self.target]

        x = list(PolyMap.identity(ch).comps)
        if t(self._unit_at(x, ch)) != s(x):
            raise ValueError("units must have equal source and target")
        gi = list(self.inv.comps)
        if s(gi) != t(x) or t(gi) != s(x):
            raise ValueError("inverse must swap source and target")

        h = self._glued(h, g)
        gh = self._product(g, h, doubled)
        if s(gh) != s(g) or t(gh) != t(h):
            raise ValueError("product must run from the first source to the second target")

        tripled, (g, h, k) = _copies(ch, 3)
        h = self._glued(h, g)
        k = self._glued(k, h)
        assoc_left = self._product(self._product(g, h, tripled), k, tripled)
        assoc_right = self._product(g, self._product(h, k, tripled), tripled)
        if assoc_left != assoc_right:
            raise ValueError("multiplication is not associative")

        at_target = self._glued(x, x)
        if self._product(self._unit_at(x, ch), x, ch) != x:
            raise ValueError("left unit law fails")
        if self._product(x, self._unit_at(at_target, ch), ch) != x:
            raise ValueError("right unit law fails")
        if (self._product(x, gi, ch) != self._unit_at(x, ch)
                or self._product(gi, x, ch) != self._unit_at(at_target, ch)):
            raise ValueError("inverse law fails")

    def _glued(self, h: Sequence[Poly], g: Sequence[Poly]) -> list[Poly]:
        """h with its source coordinates set to the target coordinates of g."""
        out = list(h)
        for i, j in zip(self.source, self.target):
            out[i] = g[j]
        return out

    def _product(self, g: Sequence[Poly], h: Sequence[Poly], on: Chart) -> list[Poly]:
        """g.h on the chart `on`, with h read as composable with g."""
        images = dict(zip(self.mult.source.coords, list(g) + self._glued(h, g)))
        return [c.substitute(on, images) for c in self.mult.comps]

    def _unit_at(self, g: Sequence[Poly], on: Chart) -> list[Poly]:
        """The unit arrow at the source of g."""
        images = dict(zip(self.chart.coords, g))
        out = list(g)
        for name, img in self.units.solved:
            out[self.chart.index(name)] = img.substitute(on, images)
        return out

    def multiplication_graph(self) -> SolvedSubmanifold:
        """Composable triples (g, h, g.h): h's source glued to g's target."""
        tripled, (g, h, _) = _copies(self.chart, 3)
        co, m = tripled.coords, self.chart.dim
        glue = tuple((co[m + i], g[j]) for i, j in zip(self.source, self.target))
        gh = tuple(zip(co[2 * m:], self._product(g, h, tripled)))
        return SolvedSubmanifold(tripled, glue + gh)


def group_law(ch: Chart, mult: PolyMap, unit: Sequence[Rat], inv: PolyMap) -> Groupoid:
    """A group on a chart: the base is a point and `unit` a rational point."""
    if len(unit) != ch.dim:
        raise ValueError("unit point needs one value per coordinate")
    units = SolvedSubmanifold(
        ch, tuple((c, Poly.constant(ch, u)) for c, u in zip(ch.coords, unit))
    )
    return Groupoid(ch, (), (), units, mult, inv)


def translation_group(ch: Chart) -> Groupoid:
    """Componentwise addition with unit 0 and negation as inverse."""
    doubled, (g, h) = _copies(ch, 2)
    comps = tuple(a + b for a, b in zip(g, h))
    inv = PolyMap(ch, ch, tuple(-Poly.coordinate(ch, c) for c in ch.coords))
    return group_law(ch, PolyMap(doubled, ch, comps), (Fraction(0),) * ch.dim, inv)


def heisenberg_group() -> Groupoid:
    """The unipotent law (a, b, c)(a', b', c') = (a+a', b+b', c+c'+a*b')."""
    ch = chart("a b c")
    doubled, ((a, b, c), (a2, b2, c2)) = _copies(ch, 2)
    mult = PolyMap(doubled, ch, (a + a2, b + b2, c + c2 + a * b2))
    av, bv, cv = (Poly.coordinate(ch, nm) for nm in ch.coords)
    inv = PolyMap(ch, ch, (-av, -bv, -cv + av * bv))
    return group_law(ch, mult, (Fraction(0),) * 3, inv)


def pair_groupoid(base: NambuStructure) -> Groupoid:
    """Arrows are point pairs (x, x') over a base structure, from x to x'.

    The arrow chart is two copies of the base chart (second copy primed).
    Units sit on the diagonal, (x, y).(y, z) = (x, z), and inversion swaps
    the blocks. The doubled structure is the block sum with the parity sign
    of the order on the second copy.
    """
    ch, (bx, by) = concat_charts(base.chart, base.chart)
    doubled, (g, h) = _copies(ch, 2)
    m = base.chart.dim
    x = PolyMap.identity(ch).comps
    units = SolvedSubmanifold(ch, tuple(zip(ch.coords[m:], x[:m])))
    mult = PolyMap(doubled, ch, tuple(g[:m] + h[m:]))
    inv = PolyMap(ch, ch, x[m:] + x[:m])
    return Groupoid(ch, bx, by, units, mult, inv, over=base)


def _require_model_structure(model: Groupoid, s: NambuStructure) -> None:
    """Reject a structure the model's checks do not apply to."""
    if not isinstance(model, Groupoid):
        raise TypeError("model must be a Groupoid")
    if model.structure is not None:
        if s != model.structure:
            raise ValueError("structure must be the doubled structure of the model")
    elif s.chart != model.chart:
        raise ValueError("structure must live on the group chart")


def _over(model: Groupoid) -> NambuStructure:
    """The base structure of a pair model; other models have none."""
    if model.over is None:
        raise ValueError("model has no base structure")
    return model.over


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
    law: Groupoid, s: NambuStructure
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
    """Graph-coisotropy verdict plus, over a point base, the translation route."""

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


def multiplicativity_check(model: Groupoid, s: NambuStructure) -> MultiplicativityReport:
    """Decide multiplicativity on the composition graph; cross-check for groups.

    A disagreement of the two routes is reported in `agree`, not raised.
    """
    _require_model_structure(model, s)
    graph = coisotropy_check(_tripled_structure(s), model.multiplication_graph())
    translation = None if model.source else translation_identity_defects(model, s)
    return MultiplicativityReport(graph, translation)


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


def theorem_diagnostics(model: Groupoid, s: NambuStructure) -> TheoremDiagnostics:
    _require_model_structure(model, s)
    unit = coisotropy_check(s, model.units)
    ch = model.chart
    co = ch.coords

    # over a point base both blocks are empty: lifted functions are
    # constants, so the dependence and mixed-contraction conditions hold
    base_dependent, base_witness = True, None
    for block in (model.source, model.target):
        outside = [c for i, c in enumerate(co) if i not in block]
        for tup in combinations(block, s.order):
            out = nambu_bracket(s, [Poly.coordinate(ch, co[i]) for i in tup])
            if any(out.mentions(c) for c in outside):
                base_dependent = False
                base_witness = (tuple(co[i] for i in tup), out)
                break
        if not base_dependent:
            break

    mixed_zero, mixed_witness = True, None
    for i in model.source:
        for j in model.target:
            fa = Form.coordinate_differential(ch, co[i])
            fb = Form.coordinate_differential(ch, co[j])
            if not interior_product(s.tensor, [fa, fb]).is_zero:
                mixed_zero, mixed_witness = False, (co[i], co[j])
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


def inversion_check(model: Groupoid, s: NambuStructure) -> InversionReport:
    """Inversion reverses the structure up to the parity sign of the order."""
    _require_model_structure(model, s)
    rel = relatedness_check(model.inv, s, s)
    return InversionReport(rel, inversion_identity_defects(model.inv, s))


@dataclass(frozen=True)
class PointStructure:
    """The zero bracket of a given order on a zero-dimensional base."""

    order: int

    @property
    def is_zero(self) -> bool:
        return True


def base_structure(
    model: Groupoid, s: NambuStructure, degree: int = 2
) -> Union[NambuStructure, PointStructure]:
    """Descend the arrow structure to the base along the source projection.

    Groups sit over a single point, where any bracket of positive order is
    zero. Otherwise the structure is coinduced along the source projection
    and the target projection must reverse the result up to the parity
    sign. Either failing is a property of the input, a structure that is
    not multiplicative, and raises ValueError: on a pair model with its
    doubled structure neither can fail.
    """
    _require_model_structure(model, s)
    if not model.source:
        return PointStructure(s.order)
    co = model.chart.coords
    base = Chart(tuple(co[i] for i in model.source))
    source, target = (
        PolyMap.projection(model.chart, base, [co[i] for i in block])
        for block in (model.source, model.target)
    )
    rep = coinduce(source, s, degree)
    if not rep.coinduced:
        raise ValueError(
            "structure does not descend: " + rep.obstruction.canonical_str()
        )
    out = rep.structure
    back = relatedness_check(target, s, out)
    if not back.anti_related:
        raise ValueError("target projection fails the signed descent relation")
    return out


def conormal_pair_model(pg: Groupoid) -> BialgebroidModel:
    """Unit-conormal realization of the dual pair over a doubled-chart model.

    Dual sections over the diagonal are spanned by dy_j - dx_j. The
    differential sends a base function to its gradient in that frame; the
    anchor contracts the total structure, restricts to the diagonal, and
    projects to the first block. The bracket this induces on base functions
    equals the base bracket times the parity sign of the order.
    """
    over = _over(pg)
    base = over.chart
    m = base.dim
    bx, by = pg.source, pg.target
    total = pg.chart
    co = total.coords
    thetas = [
        Form(total, 1, {(by[j],): Poly.one(total), (bx[j],): -Poly.one(total)})
        for j in range(m)
    ]
    xpos = {i: k for k, i in enumerate(bx)}
    xs = PolyMap.identity(base).comps
    diag_images = {co[b[j]]: xs[j] for b in (bx, by) for j in range(m)}

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
        base=base, order=over.order, d0=d0, rho=rho, label="pair conormal"
    )


class NotCoisotropicError(ValueError):
    """A required coisotropy precondition failed; carries the failing report."""

    def __init__(self, report: CoisotropyReport):
        self.report = report
        msg = "base locus is not coisotropic"
        if report.witness is not None:
            msg += ": " + report.witness.canonical_str()
        super().__init__(msg)


def restricted_subgroupoid(pg: Groupoid, sub: SolvedSubmanifold) -> SolvedSubmanifold:
    """The doubled copy of a base locus inside the arrow chart."""
    base = _over(pg).chart
    if sub.chart != base:
        raise ValueError("locus must live on the base chart")
    bx, by = pg.source, pg.target
    co = pg.chart.coords
    solved = []
    for name, img in sub.solved:
        i = base.index(name)
        solved.append((co[bx[i]], lift_poly(img, pg.chart, bx)))
        solved.append((co[by[i]], lift_poly(img, pg.chart, by)))
    return SolvedSubmanifold(pg.chart, tuple(solved))


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
    pg: Groupoid, sub: SolvedSubmanifold, trials: int = 6, seed: int = 0
) -> SubgroupoidReport:
    """Full chain for a base locus: locus, doubled locus, tangent subalgebroid.

    The base locus must be coisotropic to begin with; a failure raises with
    the witness attached rather than reporting, since the doubled locus is
    not a subgroupoid candidate at all in that case.
    """
    over = _over(pg)
    base_rep = coisotropy_check(over, sub)
    if not base_rep.coisotropic:
        raise NotCoisotropicError(base_rep)
    total_rep = coisotropy_check(pg.structure, restricted_subgroupoid(pg, sub))
    alg_rep = coiso_subalgebroid_check(
        over, tangent_subalgebroid(sub), trials=trials, seed=seed
    )
    return SubgroupoidReport(base_rep, total_rep, alg_rep)
