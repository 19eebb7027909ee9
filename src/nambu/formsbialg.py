"""The bracket on one-forms, its dual-pair axioms, and conormal restriction.

An order-n structure induces an n-ary bracket on one-forms:

    [a_1, .., a_n] = d(Pi(a_1, .., a_n))
                     + sum_k (-1)^(n-k) i_(sharp(a_1^..^a^_k..^a_n)) d a_k

(a^_k marks the omitted slot). An equivalent Lie-derivative expansion is
implemented separately and the two are compared, never trusted singly.
On top of it sit the five bracket properties, the dual-pair axioms for
(tangent bundle, cotangent bundle), the degree-raising delta operator,
pointwise finite bracket tables at zeros of the tensor, and coisotropy
checks for adapted subbundles.

Sign note for the compatibility axiom: the bracket extension to a wedge
in one slot is [.., mu^nu, ..] = [.., mu, ..]^nu + mu^[.., nu, ..]; of
the four sign choices this is the unique one under which
d[a_1..a_n] = sum_k [a_1, .., d a_k, .., a_n] holds for verified
structures, and it matches the shifted-degree-zero role of 1-form slots.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Mapping, Optional, Sequence

from .cartan import de_rham_d, lie_derivative, schouten
from .exterior import (
    Form,
    MultiVec,
    evaluate,
    interior_product,
    pairing,
    sort_with_sign,
    vector_interior,
    wedge_all,
)
from .geomaps import (
    CoisotropyReport,
    SolvedSubmanifold,
    coisotropy_check,
    conormal_frame,
    tangent_frame,
)
from .ratpoly import Chart, Poly, Rat, Scalar
from .structures import NambuStructure, nambu_bracket, sharp

_COEFFS = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2)]


class _Sampler:
    """Seed-deterministic polynomial and one-form inputs for the sweeps."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def poly(self, ch: Chart, degree: int, terms: int = 2) -> Poly:
        out: dict = {}
        for _ in range(self.rng.randint(1, terms)):
            exps = [0] * ch.dim
            for _ in range(self.rng.randint(0, degree)):
                exps[self.rng.randrange(ch.dim)] += 1
            out[tuple(exps)] = self.rng.choice(_COEFFS)
        return Poly(ch, out)

    def one_form(self, ch: Chart, degree: int) -> Form:
        comps = {}
        for _ in range(self.rng.randint(1, 2)):
            comps[(self.rng.randrange(ch.dim),)] = self.poly(ch, degree)
        return Form(ch, 1, comps)


def form_bracket(s: NambuStructure, alphas: Sequence[Form]) -> Form:
    """The interior-product expansion of the bracket on one-forms."""
    n = s.order
    if len(alphas) != n:
        raise ValueError(f"bracket of order {n} takes {n} one-forms")
    acc = de_rham_d(evaluate(s.tensor, list(alphas)))
    for k in range(n):
        rest = [alphas[j] for j in range(n) if j != k]
        da = de_rham_d(alphas[k])
        if da.is_zero:
            continue
        x = sharp(s, rest)
        if x.is_zero:
            continue
        acc = acc + vector_interior(x, da).scale(Fraction((-1) ** (n - k - 1)))
    return acc


def form_bracket_lie_expansion(s: NambuStructure, alphas: Sequence[Form]) -> Form:
    """The Lie-derivative expansion; must agree with form_bracket exactly."""
    n = s.order
    if len(alphas) != n:
        raise ValueError(f"bracket of order {n} takes {n} one-forms")
    acc = Form.zero(s.chart, 1)
    for k in range(n):
        rest = [alphas[j] for j in range(n) if j != k]
        x = sharp(s, rest)
        if x.is_zero:
            continue
        acc = acc + lie_derivative(x, alphas[k]).scale(Fraction((-1) ** (n - k - 1)))
    correction = de_rham_d(evaluate(s.tensor, list(alphas)))
    return acc - correction.scale(Fraction(n - 1))


def form_bracket_both(s: NambuStructure, alphas: Sequence[Form]) -> tuple[Form, Form]:
    return form_bracket(s, alphas), form_bracket_lie_expansion(s, alphas)


def graded_slot_bracket(
    s: NambuStructure, alphas: Sequence[Form], k: int, mu: Form, nu: Form
) -> Form:
    """[a_1, .., mu^nu at slot k, .., a_n], a two-form, by the slot extension."""
    left = list(alphas)
    left[k] = mu
    right = list(alphas)
    right[k] = nu
    return form_bracket(s, left).wedge(nu) + mu.wedge(form_bracket(s, right))


def compatibility_defect(s: NambuStructure, alphas: Sequence[Form]) -> Form:
    """d[a_1..a_n] - sum_k [a_1, .., d a_k, .., a_n], the two-form d a_k
    expanded canonically as sum_i d(coeff_i)^dx_i."""
    n = s.order
    ch = s.chart
    lhs = de_rham_d(form_bracket(s, alphas))
    rhs = Form.zero(ch, 2)
    for k in range(n):
        for (i,), p in alphas[k].comps.items():
            dp = de_rham_d(p)
            if dp.is_zero:
                continue
            dxi = Form.coordinate_differential(ch, ch.coords[i])
            rhs = rhs + graded_slot_bracket(s, alphas, k, dp, dxi)
    return lhs - rhs


def _leibniz_defect(s: NambuStructure, alphas: list[Form], f: Poly) -> Form:
    """[a_1, .., f*a_n] - f*[a_1, .., a_n] - sharp(a_1..a_(n-1))(f)*a_n."""
    lhs = form_bracket(s, alphas[:-1] + [alphas[-1].scale(f)])
    rhs = form_bracket(s, alphas).scale(f) + alphas[-1].scale(
        sharp(s, alphas[:-1]).apply_to(f)
    )
    return lhs - rhs


def _fundamental_defect(s: NambuStructure, alphas: list[Form], betas: list[Form]) -> Form:
    """[A, [B]] - sum_k [b_1, .., [A, b_k], .., b_n] for n-1 alphas, n betas."""
    lhs = form_bracket(s, alphas + [form_bracket(s, betas)])
    rhs = Form.zero(s.chart, 1)
    for k in range(len(betas)):
        inner = form_bracket(s, alphas + [betas[k]])
        rhs = rhs + form_bracket(s, betas[:k] + [inner] + betas[k + 1 :])
    return lhs - rhs


def _anchor_defect(s: NambuStructure, alphas: list[Form], betas: list[Form]) -> MultiVec:
    """[sharp(A), sharp(B)] - sum_k sharp(b_1, .., [A, b_k], ..) for n-1 of each."""
    lhs = schouten(sharp(s, alphas), sharp(s, betas))
    rhs = MultiVec.zero(s.chart, 1)
    for k in range(len(betas)):
        inner = form_bracket(s, alphas + [betas[k]])
        rhs = rhs + sharp(s, betas[:k] + [inner] + betas[k + 1 :])
    return lhs - rhs


@dataclass(frozen=True)
class PropertyFailure:
    prop: str
    inputs: tuple
    defect: object


@dataclass(frozen=True)
class PropertyReport:
    verdicts: tuple[tuple[str, bool], ...]
    seed: int
    trials: int
    degree: int
    failures: tuple[PropertyFailure, ...]

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.verdicts)

    def verdict(self, prop: str) -> bool:
        return dict(self.verdicts)[prop]


def form_bracket_properties(
    s: NambuStructure, trials: int = 8, degree: int = 2, seed: int = 0
) -> PropertyReport:
    """Randomized exact sweep of the five bracket properties.

    skew: transposing two slots negates; repeated slot kills.
    exact: [df_1, .., df_n] = d{f_1, .., f_n}.
    leibniz: last-slot function factor splits off a sharp-derivative term.
    fundamental: the n-ary Jacobi-type identity, first group closed.
    morphism: sharp turns the bracket into the vector-field bracket,
    first group closed.

    Sampled coefficients have total degree at most `degree`, which must be
    at least 1: constant samples would make every property hold vacuously.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    n = s.order
    ch = s.chart
    smp = _Sampler(seed)
    failures: list[PropertyFailure] = []
    verdicts: dict[str, bool] = {}

    def record(prop: str, ok: bool, inputs, defect) -> None:
        if not ok and verdicts.get(prop, True):
            failures.append(PropertyFailure(prop, tuple(inputs), defect))
        verdicts[prop] = verdicts.get(prop, True) and ok

    for _ in range(trials):
        alphas = [smp.one_form(ch, degree) for _ in range(n)]
        i, j = sorted(smp.rng.sample(range(n), 2))
        swapped = list(alphas)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        d1 = form_bracket(s, alphas) + form_bracket(s, swapped)
        repeated = list(alphas)
        repeated[j] = repeated[i]
        d2 = form_bracket(s, repeated)
        record("skew", d1.is_zero and d2.is_zero, alphas, d1 if not d1.is_zero else d2)

        fs = [smp.poly(ch, degree) for _ in range(n)]
        d = form_bracket(s, [de_rham_d(f) for f in fs]) - de_rham_d(
            nambu_bracket(s, fs)
        )
        record("exact", d.is_zero, fs, d)

        f = smp.poly(ch, degree)
        d = _leibniz_defect(s, alphas, f)
        record("leibniz", d.is_zero, (alphas, f), d)

        closed = [de_rham_d(smp.poly(ch, degree)) for _ in range(n - 1)]
        betas = [smp.one_form(ch, degree) for _ in range(n)]
        d = _fundamental_defect(s, closed, betas)
        record("fundamental", d.is_zero, (closed, betas), d)

        beta_group = [smp.one_form(ch, degree) for _ in range(n - 1)]
        d = _anchor_defect(s, closed, beta_group)
        record("morphism", d.is_zero, (closed, beta_group), d)

    order = ("skew", "exact", "leibniz", "fundamental", "morphism")
    return PropertyReport(
        tuple((p, verdicts[p]) for p in order), seed, trials, degree, tuple(failures)
    )


@dataclass(frozen=True)
class RestrictionReport:
    coisotropy: CoisotropyReport
    sharp_tangent: bool
    bracket_in_conormal: bool
    extension_independent: bool
    seed: int

    @property
    def passed(self) -> bool:
        return (
            self.coisotropy.coisotropic
            and self.sharp_tangent
            and self.bracket_in_conormal
            and self.extension_independent
        )


def _sharp_stays_tangent(
    s: NambuStructure,
    sub: SolvedSubmanifold,
    covectors: Sequence[Form],
    conormals: Sequence[Form],
) -> bool:
    """sharp of every (n-1)-subset of the covectors pairs to zero with every
    conormal covector, reduced mod the ideal of the locus."""
    ok = True
    for pick in combinations(covectors, s.order - 1):
        x = sharp(s, list(pick))
        for theta in conormals:
            if not sub.reduce(pairing(theta, x)).is_zero:
                ok = False
    return ok


def conormal_restriction_check(
    s: NambuStructure, sub: SolvedSubmanifold, trials: int = 6, seed: int = 0
) -> RestrictionReport:
    """On a coisotropic locus, the bracket closes on conormal sections.

    Requires coisotropy up front (reported, not silently assumed). Then:
    sharp of conormal wedges stays tangent; brackets of coefficient-dressed
    frame covectors pair to zero with the tangent frame after reduction;
    and changing a section by an ideal multiple leaves the reduced bracket
    unchanged componentwise.
    """
    coiso = coisotropy_check(s, sub)
    if not coiso.coisotropic:
        return RestrictionReport(coiso, False, False, False, seed)
    n = s.order
    ch = s.chart
    smp = _Sampler(seed)
    frame = conormal_frame(sub)
    tangents = tangent_frame(sub)

    sharp_tangent = _sharp_stays_tangent(s, sub, frame, frame)

    def conormal_section() -> Form:
        acc = Form.zero(ch, 1)
        for theta in frame:
            acc = acc + theta.scale(smp.poly(ch, 2))
        return acc

    bracket_in_conormal = True
    extension_independent = True
    ideal = [Poly.coordinate(ch, c) - p for c, p in sub.solved]
    for _ in range(trials):
        alphas = [conormal_section() for _ in range(n)]
        out = form_bracket(s, alphas)
        for t in tangents:
            if not sub.reduce(pairing(out, t)).is_zero:
                bracket_in_conormal = False
        gen = smp.rng.choice(ideal)
        bump = smp.one_form(ch, 2).scale(gen)
        slot = smp.rng.randrange(n)
        bumped = list(alphas)
        bumped[slot] = bumped[slot] + bump
        diff = form_bracket(s, bumped) - out
        for (i,), comp in diff.comps.items():
            if not sub.reduce(comp).is_zero:
                extension_independent = False
    return RestrictionReport(
        coiso, sharp_tangent, bracket_in_conormal, extension_independent, seed
    )


def delta_pi(s: NambuStructure, p) -> MultiVec:
    """Degree-raising operator: functions via contraction, fields via the
    Schouten bracket with the tensor (negated). Higher grades only through
    delta_pi_wedge with explicit factors."""
    if isinstance(p, Poly):
        return interior_product(s.tensor, [de_rham_d(p)])
    if isinstance(p, MultiVec) and p.grade == 0:
        return interior_product(s.tensor, [de_rham_d(p.component(()))])
    if isinstance(p, MultiVec) and p.grade == 1:
        return -schouten(p, s.tensor)
    raise ValueError(
        "grade >= 2 input must come as explicit wedge factors; use delta_pi_wedge"
    )


def delta_pi_wedge(s: NambuStructure, factors: Sequence[MultiVec]) -> MultiVec:
    """delta of X_1 ^ .. ^ X_k via delta(P^Q) = dP^Q + (-1)^(|P|(n-1)) P^dQ."""
    if not factors:
        raise ValueError("need at least one factor")
    for f in factors:
        if f.grade != 1:
            raise ValueError("factors must be vector fields")
    if len(factors) == 1:
        return delta_pi(s, factors[0])
    head, tail = factors[0], list(factors[1:])
    sign = Fraction((-1) ** (s.order - 1))
    return delta_pi(s, head).wedge(wedge_all(tail)) + head.wedge(
        delta_pi_wedge(s, tail)
    ).scale(sign)


@dataclass(frozen=True)
class DeltaReport:
    defect: MultiVec
    dd_probe: Optional[MultiVec] = None

    @property
    def passed(self) -> bool:
        return self.defect.is_zero

    @property
    def dd_vanishes(self) -> Optional[bool]:
        return None if self.dd_probe is None else self.dd_probe.is_zero


def delta_compatibility_check(
    s: NambuStructure,
    p: MultiVec,
    q: MultiVec,
    dd_function: Optional[Poly] = None,
    dd_factors: Optional[Sequence[MultiVec]] = None,
) -> DeltaReport:
    """delta([P,Q]) against [dP,Q] + (-1)^((|P|-1)(n-1)) [P,dQ] for fields.

    Optionally also evaluates delta(delta(f)) through caller-supplied wedge
    factors of delta(f); the result is recorded, not asserted, in either
    direction.
    """
    if p.grade != 1 or q.grade != 1:
        raise ValueError("compatibility check takes two vector fields")
    sign = Fraction((-1) ** ((p.grade - 1) * (s.order - 1)))
    lhs = delta_pi(s, schouten(p, q))
    rhs = schouten(delta_pi(s, p), q) + schouten(p, delta_pi(s, q)).scale(sign)
    probe = None
    if dd_function is not None:
        if dd_factors is None:
            raise ValueError("dd probe needs explicit wedge factors of delta(f)")
        if wedge_all(list(dd_factors)) != delta_pi(s, dd_function):
            raise ValueError("supplied factors do not multiply to delta(f)")
        probe = delta_pi_wedge(s, list(dd_factors))
    return DeltaReport(lhs - rhs, probe)


@dataclass(frozen=True)
class AxiomResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class WlfbReport:
    axioms: tuple[AxiomResult, ...]
    order: int
    seed: int
    trials: int
    degree: int
    unrestricted: tuple[AxiomResult, ...] = ()

    @property
    def all_pass(self) -> bool:
        return all(a.passed for a in self.axioms)


def wlfb_check(
    s: NambuStructure, trials: int = 6, degree: int = 2, seed: int = 0
) -> WlfbReport:
    """Dual-pair axioms for (tangent bundle, cotangent bundle) of the chart.

    The differential is the de Rham d, the dual bracket is form_bracket,
    the anchor is sharp. Axioms: (algebroid) the tangent side is a genuine
    bracket-and-anchor pair; (fundamental) and (anchor) hold with the first
    argument group closed; (leibniz) holds unrestricted; (compatibility)
    holds with the pinned slot extension. At order 2 the unrestricted
    variants of (fundamental) and (anchor) are additionally reported.

    Sampled coefficients have total degree at most `degree`, which must be
    at least 1: constant samples would make every axiom hold vacuously.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    n = s.order
    ch = s.chart
    smp = _Sampler(seed)

    def rand_field() -> MultiVec:
        comps = {}
        for _ in range(smp.rng.randint(1, 2)):
            comps[(smp.rng.randrange(ch.dim),)] = smp.poly(ch, degree)
        return MultiVec(ch, 1, comps)

    algebroid_ok = True
    for _ in range(trials):
        f = smp.poly(ch, degree)
        om = smp.one_form(ch, degree)
        if not de_rham_d(de_rham_d(f)).is_zero:
            algebroid_ok = False
        if not de_rham_d(de_rham_d(om)).is_zero:
            algebroid_ok = False
        x, y = rand_field(), rand_field()
        g = smp.poly(ch, degree)
        d = schouten(x, y.scale(g)) - (
            schouten(x, y).scale(g) + y.scale(x.apply_to(g))
        )
        if not d.is_zero:
            algebroid_ok = False

    def sweep(defect, width: int, closed_first: bool) -> bool:
        ok = True
        for _ in range(trials):
            if closed_first:
                alphas = [de_rham_d(smp.poly(ch, degree)) for _ in range(n - 1)]
            else:
                alphas = [smp.one_form(ch, degree) for _ in range(n - 1)]
            betas = [smp.one_form(ch, degree) for _ in range(width)]
            if not defect(s, alphas, betas).is_zero:
                ok = False
        return ok

    leibniz_ok = True
    for _ in range(trials):
        alphas = [smp.one_form(ch, degree) for _ in range(n)]
        f = smp.poly(ch, degree)
        if not _leibniz_defect(s, alphas, f).is_zero:
            leibniz_ok = False

    compat_ok = True
    for _ in range(trials):
        alphas = [smp.one_form(ch, degree) for _ in range(n)]
        if not compatibility_defect(s, alphas).is_zero:
            compat_ok = False

    axioms = (
        AxiomResult("algebroid", algebroid_ok),
        AxiomResult(
            "fundamental", sweep(_fundamental_defect, n, True), "closed first group"
        ),
        AxiomResult("anchor", sweep(_anchor_defect, n - 1, True), "closed first group"),
        AxiomResult("leibniz", leibniz_ok, "unrestricted"),
        AxiomResult("compatibility", compat_ok, "pinned slot extension"),
    )
    unrestricted: tuple[AxiomResult, ...] = ()
    if n == 2:
        unrestricted = (
            AxiomResult("fundamental_unrestricted", sweep(_fundamental_defect, n, False)),
            AxiomResult("anchor_unrestricted", sweep(_anchor_defect, n - 1, False)),
        )
    return WlfbReport(axioms, n, seed, trials, degree, unrestricted)


@dataclass(frozen=True)
class BialgebroidModel:
    """A dual pair presented by its base chart, differential, anchor, bracket.

    Dual sections are whatever the callables exchange (one-forms for the
    tangent pair; conormal-frame combinations for doubled-chart models).
    """

    base: Chart
    order: int
    d0: Callable[[Poly], object]
    rho: Callable[[Sequence], MultiVec]
    bracket: Optional[Callable[[Sequence], object]] = None
    label: str = ""


def tangent_pair_model(s: NambuStructure) -> BialgebroidModel:
    return BialgebroidModel(
        base=s.chart,
        order=s.order,
        d0=de_rham_d,
        rho=lambda alphas: sharp(s, list(alphas)),
        bracket=lambda alphas: form_bracket(s, list(alphas)),
        label="tangent pair",
    )


def induced_base_bracket(model: BialgebroidModel, fs: Sequence[Poly]) -> Poly:
    """{f_1, .., f_n} = rho(d f_1 ^ .. ^ d f_(n-1)) applied to f_n."""
    if len(fs) != model.order:
        raise ValueError(f"bracket of order {model.order} takes {model.order} functions")
    for f in fs:
        if f.chart != model.base:
            raise ValueError("functions must live on the base chart")
    x = model.rho([model.d0(f) for f in fs[:-1]])
    return x.apply_to(fs[-1])


@dataclass(frozen=True)
class FilippovTable:
    """Constant structure table c^j_I of a pointwise n-ary bracket."""

    dim: int
    order: int
    constants: tuple[tuple[tuple[int, ...], tuple[Rat, ...]], ...]

    def coefficient(self, indices: Sequence[int], j: int) -> Rat:
        hit = sort_with_sign(tuple(indices))
        if hit is None:
            return Fraction(0)
        sign, key = hit
        for idx, row in self.constants:
            if idx == key:
                return Fraction(sign) * row[j]
        return Fraction(0)

    def is_zero(self) -> bool:
        return all(all(c == 0 for c in row) for _, row in self.constants)

    def fundamental_identity_defects(self) -> list[tuple]:
        """All violations of the finite n-ary Jacobi-type identity."""
        n, m = self.order, self.dim
        bad = []
        for a in combinations(range(m), n - 1):
            for b in combinations(range(m), n):
                for j in range(m):
                    lhs = sum(
                        (
                            self.coefficient(b, l) * self.coefficient(a + (l,), j)
                            for l in range(m)
                        ),
                        Fraction(0),
                    )
                    rhs = Fraction(0)
                    for k in range(n):
                        for l in range(m):
                            c_inner = self.coefficient(a + (b[k],), l)
                            if c_inner == 0:
                                continue
                            outer = b[:k] + (l,) + b[k + 1 :]
                            rhs += c_inner * self.coefficient(outer, j)
                    if lhs != rhs:
                        bad.append((a, b, j, lhs, rhs))
        return bad

    def canonical_str(self) -> str:
        rows = []
        for idx, row in self.constants:
            if all(c == 0 for c in row):
                continue
            terms = []
            for j, c in enumerate(row):
                if c == 0:
                    continue
                terms.append(f"{c}*e{j + 1}" if c != 1 else f"e{j + 1}")
            name = ",".join(f"e{i + 1}" for i in idx)
            rows.append(f"[{name}] = {' + '.join(terms)}")
        return "; ".join(rows) if rows else "zero table"


def pointwise_filippov(
    s: NambuStructure, point: Mapping[str, Scalar]
) -> FilippovTable:
    """The bracket table on conormal covectors at a zero of the tensor.

    Coordinate differentials with constant coefficients are canonical
    extensions; the bracket of such a tuple collapses to the differential
    of the matching tensor component, evaluated at the point.
    """
    for idx, coeff in s.tensor.comps.items():
        if coeff.eval_at(point) != 0:
            raise ValueError("tensor does not vanish at the point")
    m, n = s.chart.dim, s.order
    rows = []
    for idx in combinations(range(m), n):
        comp = s.tensor.component(tuple(idx))
        row = tuple(comp.partial(j).eval_at(point) for j in range(m))
        rows.append((tuple(idx), row))
    return FilippovTable(m, n, tuple(rows))


@dataclass(frozen=True)
class SubalgebroidModel:
    """An adapted subbundle over a solved-form base: B = span(frame) along N."""

    base: SolvedSubmanifold
    frame: tuple[MultiVec, ...]

    def __post_init__(self) -> None:
        for v in self.frame:
            if v.chart != self.base.chart or v.grade != 1:
                raise ValueError("frame entries must be vector fields on the chart")
        conormals = conormal_frame(self.base)
        for v in self.frame:
            for theta in conormals:
                if not self.base.reduce(pairing(theta, v)).is_zero:
                    raise ValueError("frame vector is not tangent to the base")


def tangent_subalgebroid(sub: SolvedSubmanifold) -> SubalgebroidModel:
    return SubalgebroidModel(sub, tuple(tangent_frame(sub)))


def _annihilator_frame(model: SubalgebroidModel) -> list[Form]:
    """Adapted covectors annihilating the subbundle frame along the base."""
    sub = model.base
    ch = sub.chart
    candidates = conormal_frame(sub) + [
        Form.coordinate_differential(ch, c) for c in sub.free_names
    ]
    out = []
    for gamma in candidates:
        if all(
            sub.reduce(pairing(gamma, v)).is_zero for v in model.frame
        ):
            out.append(gamma)
    return out


@dataclass(frozen=True)
class SubalgebroidReport:
    anchor_into_base_tangent: bool
    bracket_into_annihilator: bool
    vanishing_section: bool
    base_coisotropy: CoisotropyReport
    seed: int

    @property
    def passed(self) -> bool:
        return (
            self.anchor_into_base_tangent
            and self.bracket_into_annihilator
            and self.vanishing_section
            and self.base_coisotropy.coisotropic
        )


def coiso_subalgebroid_check(
    s: NambuStructure, model: SubalgebroidModel, trials: int = 6, seed: int = 0
) -> SubalgebroidReport:
    """The three subbundle conditions plus base coisotropy, all reduced mod N.

    Annihilator-valued sections are coefficient-dressed combinations of the
    adapted annihilator frame; vanishing sections get an extra ideal factor.
    """
    if model.base.chart != s.chart:
        raise ValueError("model and structure live on different charts")
    n = s.order
    ch = s.chart
    sub = model.base
    smp = _Sampler(seed)
    ann = _annihilator_frame(model)

    anchor_ok = _sharp_stays_tangent(s, sub, ann, conormal_frame(sub))

    def ann_section(vanishing: bool) -> Form:
        acc = Form.zero(ch, 1)
        ideal = [Poly.coordinate(ch, c) - p for c, p in sub.solved]
        for gamma in ann:
            coeff = smp.poly(ch, 2)
            if vanishing:
                coeff = coeff * smp.rng.choice(ideal)
            acc = acc + gamma.scale(coeff)
        return acc

    bracket_ok = True
    vanishing_ok = True
    for _ in range(trials):
        alphas = [ann_section(False) for _ in range(n)]
        out = form_bracket(s, alphas)
        for v in model.frame:
            if not sub.reduce(pairing(out, v)).is_zero:
                bracket_ok = False
        vanishing = alphas[:-1] + [ann_section(True)]
        out_v = form_bracket(s, vanishing)
        for (i,), comp in out_v.comps.items():
            if not sub.reduce(comp).is_zero:
                vanishing_ok = False
    base = coisotropy_check(s, sub)
    return SubalgebroidReport(anchor_ok, bracket_ok, vanishing_ok, base, seed)
