"""Polynomial maps, solved-form submanifolds, coisotropy, coinduction.

Submanifolds are kept in solved form {x_s = p_s(free coords)}: membership
and reduction are then plain substitution, conormal and tangent frames
are explicit, and graphs, diagonals, fiber products and preimages of
coordinate subspaces all stay inside the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .cartan import de_rham_d
from .exterior import (
    Form,
    MultiVec,
    basis_index_tuples,
    evaluate,
    lift_tensor,
)
from .ratpoly import (
    Chart,
    InvariantError,
    Poly,
    concat_charts,
    lift_poly,
    monomials_up_to,
    reduce_mod_solved,
)
from .structures import NambuStructure, nambu_bracket, sharp


@dataclass(frozen=True)
class PolyMap:
    """A polynomial map between charts, one component per target coordinate."""

    source: Chart
    target: Chart
    comps: tuple[Poly, ...]

    def __post_init__(self) -> None:
        if len(self.comps) != self.target.dim:
            raise ValueError("need one component per target coordinate")
        for c in self.comps:
            if c.chart != self.source:
                raise ValueError("components must live on the source chart")

    @staticmethod
    def identity(ch: Chart) -> "PolyMap":
        return PolyMap(ch, ch, tuple(Poly.coordinate(ch, c) for c in ch.coords))

    @staticmethod
    def projection(source: Chart, target: Chart, kept: Sequence[str]) -> "PolyMap":
        """Drop every source coordinate not listed; kept[j] maps to target j."""
        if len(kept) != target.dim:
            raise ValueError("kept coordinate count must match target dimension")
        return PolyMap(
            source, target, tuple(Poly.coordinate(source, c) for c in kept)
        )

    def pullback(self, f: Poly) -> Poly:
        """phi* f = f composed with the map, a polynomial on the source."""
        if f.chart != self.target:
            raise ValueError("pullback input must live on the target chart")
        images = dict(zip(self.target.coords, self.comps))
        return f.substitute(self.source, images)

    def after(self, inner: "PolyMap") -> "PolyMap":
        """Composite self(inner(x))."""
        if inner.target != self.source:
            raise ValueError("inner map target must match outer map source")
        return PolyMap(
            inner.source, self.target, tuple(inner.pullback(c) for c in self.comps)
        )

    def projection_indices(self) -> Optional[tuple[int, ...]]:
        """Source index per component when every component is a bare coordinate."""
        out = []
        for c in self.comps:
            if len(c.terms) != 1:
                return None
            (exps, coeff), = c.terms.items()
            if coeff != 1 or sum(exps) != 1:
                return None
            out.append(exps.index(1))
        if len(set(out)) != len(out):
            return None
        return tuple(out)


@dataclass(frozen=True)
class SolvedSubmanifold:
    """{x_s = p_s(free)}: solved coordinates expressed in the free ones."""

    chart: Chart
    solved: tuple[tuple[str, Poly], ...]

    def __post_init__(self) -> None:
        names = [s for s, _ in self.solved]
        if len(set(names)) != len(names):
            raise ValueError("a coordinate is solved twice")
        for s, p in self.solved:
            if s not in self.chart.coords:
                raise ValueError(f"unknown coordinate {s!r}")
            if p.chart != self.chart:
                raise ValueError("solved images must live on the ambient chart")
            for other in names:
                if p.mentions(other):
                    raise ValueError(
                        f"image of {s!r} mentions solved coordinate {other!r}"
                    )

    @property
    def solved_names(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.solved)

    @property
    def free_names(self) -> tuple[str, ...]:
        solved = set(self.solved_names)
        return tuple(c for c in self.chart.coords if c not in solved)

    @property
    def codim(self) -> int:
        return len(self.solved)

    @property
    def dim(self) -> int:
        return self.chart.dim - len(self.solved)

    def solved_map(self) -> dict[str, Poly]:
        return dict(self.solved)

    def reduce(self, p: Poly) -> Poly:
        return reduce_mod_solved(p, self.solved_map())

    def contains_function(self, p: Poly) -> bool:
        """True when p vanishes on the submanifold."""
        return self.reduce(p).is_zero


def conormal_frame(sub: SolvedSubmanifold) -> list[Form]:
    """One covector per solved coordinate: theta_s = dx_s - d(p_s).

    Each theta_s annihilates the tangent frame of the parametrization, and
    together they span the annihilator of the tangent space over the chart.
    """
    out = []
    for s, p in sub.solved:
        out.append(Form.coordinate_differential(sub.chart, s) - de_rham_d(p))
    return out


def tangent_frame(sub: SolvedSubmanifold) -> list[MultiVec]:
    """One field per free coordinate: d/dx_i plus the induced solved drift."""
    ch = sub.chart
    out = []
    for f in sub.free_names:
        acc = MultiVec.coordinate_field(ch, f)
        for s, p in sub.solved:
            drift = p.partial(f)
            if not drift.is_zero:
                acc = acc + MultiVec(ch, 1, {(ch.index(s),): drift})
        out.append(acc)
    return out


@dataclass(frozen=True)
class CoisotropyWitness:
    covectors: tuple[str, ...]  # solved-coordinate names of the chosen frame
    reduced: Poly

    def canonical_str(self) -> str:
        return f"frame ({', '.join(self.covectors)}) -> {self.reduced.canonical_str()}"


@dataclass(frozen=True)
class CoisotropyReport:
    coisotropic: bool
    reason: str
    witness: Optional[CoisotropyWitness] = None


def coisotropy_check(s: NambuStructure, sub: SolvedSubmanifold) -> CoisotropyReport:
    """Evaluate the tensor on conormal n-tuples and reduce along the solved form.

    Multilinearity over functions means frame tuples decide the question;
    skew-symmetry cuts those to strictly increasing combinations.
    """
    if sub.chart != s.chart:
        raise ValueError("submanifold and structure live on different charts")
    n = s.order
    if sub.codim < n:
        return CoisotropyReport(True, f"codimension {sub.codim} below order {n}")
    frame = conormal_frame(sub)
    names = sub.solved_names
    for pick in combinations(range(len(frame)), n):
        value = evaluate(s.tensor, [frame[i] for i in pick])
        reduced = sub.reduce(value)
        if not reduced.is_zero:
            w = CoisotropyWitness(tuple(names[i] for i in pick), reduced)
            return CoisotropyReport(False, "conormal tuple with nonzero reduction", w)
    return CoisotropyReport(True, f"all conormal {n}-tuples reduce to zero")


def graph_submanifold(phi: PolyMap) -> SolvedSubmanifold:
    """Gr(phi) inside source x target, target coordinates solved as images."""
    big, blocks = concat_charts(phi.source, phi.target)
    solved = []
    for j, comp in enumerate(phi.comps):
        solved.append(
            (big.coords[blocks[1][j]], lift_poly(comp, big, list(blocks[0])))
        )
    return SolvedSubmanifold(big, tuple(solved))


def product_structure(
    a: NambuStructure, b: NambuStructure, sign: int
) -> NambuStructure:
    """a (+) sign*b on the concatenated chart, each factor extended by zero."""
    if a.order != b.order:
        raise ValueError("factors must share the order")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    big, blocks = concat_charts(a.chart, b.chart)
    ta = lift_tensor(a.tensor, big, list(blocks[0]))
    tb = lift_tensor(b.tensor, big, list(blocks[1]))
    return NambuStructure(big, a.order, ta + tb.scale(Poly.constant(big, sign)))


def opposite_sign(order: int) -> int:
    """The sign that makes a graph coisotropic exactly for structure maps."""
    return 1 if (order - 1) % 2 == 0 else -1


@dataclass(frozen=True)
class RelatednessWitness:
    coframe: tuple[int, ...]
    target_coord: str
    pushed: Poly
    expected: Poly


@dataclass(frozen=True)
class RelatednessReport:
    related: bool
    anti_related: bool
    witness: Optional[RelatednessWitness] = None

    @property
    def verdict(self) -> str:
        if self.related:
            return "related"
        if self.anti_related:
            return "anti_related"
        return "witness"


def _pushforward_components(phi: PolyMap, x: MultiVec) -> list[Poly]:
    """Components of T(phi) applied to a source vector field, per target coord."""
    out = []
    for comp in phi.comps:
        acc = Poly.zero(phi.source)
        for (i,), coeff in x.comps.items():
            d = comp.partial(i)
            if not d.is_zero:
                acc = acc + coeff * d
        out.append(acc)
    return out


def relatedness_check(
    phi: PolyMap, a: NambuStructure, b: NambuStructure
) -> RelatednessReport:
    """Compare both sharp maps across phi as exact polynomial identities.

    For every strictly increasing basis coframe wedge on the target, the
    pushforward of sharp_a applied to the pulled-back covectors must match
    sharp_b composed with phi; the anti variant carries the extra sign
    (-1)^(order-1), so for odd order the two verdicts coincide.
    """
    if a.chart != phi.source or b.chart != phi.target:
        raise ValueError("structures must live on the map's charts")
    if a.order != b.order:
        raise ValueError("orders differ")
    n = a.order
    images = dict(zip(phi.target.coords, phi.comps))
    anti = opposite_sign(n)
    related = True
    anti_related = True
    first: Optional[RelatednessWitness] = None
    for idx in basis_index_tuples(phi.target, n - 1):
        pulled = [de_rham_d(phi.comps[j]) for j in idx]
        pushed = _pushforward_components(phi, sharp(a, pulled))
        alphas = [
            Form.coordinate_differential(phi.target, phi.target.coords[j])
            for j in idx
        ]
        expect_target = sharp(b, alphas)
        for j in range(phi.target.dim):
            expect = expect_target.component((j,)).substitute(phi.source, images)
            if pushed[j] != expect:
                related = False
            if pushed[j] != anti * expect:
                anti_related = False
            if not related and not anti_related and first is None:
                first = RelatednessWitness(
                    tuple(idx), phi.target.coords[j], pushed[j], expect
                )
    return RelatednessReport(related, anti_related, first)


@dataclass(frozen=True)
class GraphEquivalenceReport:
    relatedness: RelatednessReport
    coisotropy: CoisotropyReport
    agree: bool


def graph_equivalence_check(
    phi: PolyMap, a: NambuStructure, b: NambuStructure
) -> GraphEquivalenceReport:
    """Run the map-side and graph-side characterizations and compare verdicts."""
    rel = relatedness_check(phi, a, b)
    prod = product_structure(a, b, opposite_sign(a.order))
    coiso = coisotropy_check(prod, graph_submanifold(phi))
    return GraphEquivalenceReport(rel, coiso, rel.related == coiso.coisotropic)


def _require_projection(phi: PolyMap) -> tuple[int, ...]:
    proj = phi.projection_indices()
    if proj is None:
        raise ValueError("map is not a coordinate projection")
    return proj


def r_phi_submanifold(phi: PolyMap) -> SolvedSubmanifold:
    """{(x, y) : phi(x) = phi(y)} in the doubled source, solved on the y side.

    Only coordinate projections are accepted: those keep the fiber product
    in solved form.
    """
    proj = _require_projection(phi)
    big, blocks = concat_charts(phi.source, phi.source)
    solved = []
    for k in proj:
        left = Poly.coordinate(big, big.coords[blocks[0][k]])
        solved.append((big.coords[blocks[1][k]], left))
    return SolvedSubmanifold(big, tuple(solved))


def preimage_submanifold(phi: PolyMap, sub: SolvedSubmanifold) -> SolvedSubmanifold:
    """Pull a solved-form target submanifold back along a coordinate projection."""
    proj = _require_projection(phi)
    if sub.chart != phi.target:
        raise ValueError("submanifold must live on the target chart")
    images = {
        c: Poly.coordinate(phi.source, phi.source.coords[proj[j]])
        for j, c in enumerate(phi.target.coords)
    }
    solved = []
    for s, p in sub.solved:
        j = phi.target.index(s)
        solved.append(
            (phi.source.coords[proj[j]], p.substitute(phi.source, images))
        )
    return SolvedSubmanifold(phi.source, tuple(solved))


@dataclass(frozen=True)
class CoinduceObstruction:
    functions: tuple[Poly, ...]  # target-side monomials whose bracket obstructs
    bracket: Poly  # pullback bracket, still on the source chart

    def canonical_str(self) -> str:
        fs = "; ".join(f.canonical_str() for f in self.functions)
        return f"({fs}) -> {self.bracket.canonical_str()}"


@dataclass(frozen=True)
class CoinduceReport:
    structure: Optional[NambuStructure]
    obstruction: Optional[CoinduceObstruction]
    degree: int

    @property
    def coinduced(self) -> bool:
        return self.structure is not None


def coinduce(phi: PolyMap, a: NambuStructure, degree: int = 2) -> CoinduceReport:
    """Push a structure down a coordinate projection when fibers permit.

    Brackets of pulled-back target monomials (total degree <= degree) must
    not mention fiber coordinates; the first offender is returned as the
    obstruction. On success the target tensor is assembled from the
    coordinate brackets and checked to be phi-related to the input, which
    makes the success verdict exact rather than family-relative.
    """
    proj = _require_projection(phi)
    if a.chart != phi.source:
        raise ValueError("structure must live on the source chart")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    n = a.order
    fiber = set(range(phi.source.dim)) - set(proj)
    mons = monomials_up_to(phi.target, degree)
    for gs in combinations(mons, n):
        bracket = nambu_bracket(a, [phi.pullback(g) for g in gs])
        if bracket.support_indices() & fiber:
            return CoinduceReport(None, CoinduceObstruction(tuple(gs), bracket), degree)
    rename = {
        phi.source.coords[k]: Poly.coordinate(phi.target, phi.target.coords[j])
        for j, k in enumerate(proj)
    }
    for i in fiber:
        rename[phi.source.coords[i]] = Poly.zero(phi.target)
    comps = {}
    for idx in basis_index_tuples(phi.target, n):
        gs = [Poly.coordinate(phi.target, phi.target.coords[j]) for j in idx]
        bracket = nambu_bracket(a, [phi.pullback(g) for g in gs])
        comp = bracket.substitute(phi.target, rename)
        if not comp.is_zero:
            comps[tuple(idx)] = comp
    out = NambuStructure(phi.target, n, MultiVec(phi.target, n, comps))
    rel = relatedness_check(phi, a, out)
    if not rel.related:
        raise InvariantError("assembled pushforward is not related to the input")
    return CoinduceReport(out, None, degree)
