"""Session evaluation: name environment, command dispatch, reports.

A session's charts may not share coordinate names, so every identifier in an
expression resolves to exactly one chart. Declarations and bindings emit no
report; commands emit exactly one each. The first semantic error aborts the
run with an ERROR report appended to the partial list; so does an internal
contradiction (`InvariantError`), whose report says it is internal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

from .exterior import Form, GradedTensor, MultiVec
from .formsbialg import form_bracket_both, wlfb_check
from .geomaps import (
    PolyMap,
    SolvedSubmanifold,
    coinduce,
    coisotropy_check,
    graph_equivalence_check,
)
from .groupoids import (
    Groupoid,
    NotCoisotropicError,
    coiso_subgroupoid_check,
    group_law,
    heisenberg_group,
    multiplicativity_check,
    pair_groupoid,
    theorem_diagnostics,
    translation_group,
)
from .parser import (
    Binding,
    BinOp,
    ChartDecl,
    CheckCommand,
    CoinduceCommand,
    EvalCommand,
    Expr,
    ExprStatement,
    FieldAtom,
    FormAtom,
    GroupDecl,
    MapDecl,
    Name,
    Neg,
    Num,
    PairDecl,
    Power,
    Session,
    SubDecl,
    Statement,
)
from .ratpoly import Chart, InvariantError, Poly, concat_charts
from .structures import NambuStructure, fi_check, nambu_bracket

PASS = "PASS"
FAIL = "FAIL"
ERROR = "ERROR"
OK_VERDICTS = frozenset({"PASS", "VERIFIED_ON_FAMILY"})

Value = Union[Fraction, Poly, MultiVec, Form]
Bound = Union[Value, SolvedSubmanifold, PolyMap, Groupoid]


class SemanticError(ValueError):
    pass


@dataclass(frozen=True)
class Report:
    command: str
    inputs: tuple[tuple[str, str], ...]
    verdict: str
    witness: Optional[str] = None
    value: Optional[str] = None
    seed: Optional[int] = None
    degree: Optional[int] = None
    timing_ms: int = 0

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": [list(pair) for pair in self.inputs],
            "verdict": self.verdict,
            "witness": self.witness,
            "value": self.value,
            "seed": self.seed,
            "degree": self.degree,
            "timing_ms": self.timing_ms,
        }


@dataclass
class RunResult:
    session: Session
    reports: list[Report]
    warnings: list[str]
    seed: int
    degree: int

    @property
    def ok(self) -> bool:
        return all(r.verdict in OK_VERDICTS for r in self.reports)

    def to_dict(self) -> dict:
        return {
            "schema": "report-v1",
            "seed": self.seed,
            "degree": self.degree,
            "session": self.session.canonical_text(),
            "warnings": list(self.warnings),
            "reports": [r.to_dict() for r in self.reports],
        }


def describe(v: Bound) -> str:
    if isinstance(v, Poly):
        return v.canonical_str()
    if isinstance(v, GradedTensor):
        return v.canonical_str()
    if isinstance(v, SolvedSubmanifold):
        body = ", ".join(f"{n} = {p.canonical_str()}" for n, p in v.solved)
        return "{ " + body + " }"
    if isinstance(v, PolyMap):
        return "(" + ", ".join(c.canonical_str() for c in v.comps) + ")"
    if isinstance(v, Groupoid):
        if v.over is None:
            return "group law on (" + ", ".join(v.chart.coords) + ")"
        return "pair model over " + v.over.tensor.canonical_str()
    return str(v)


def _kind(v: Bound) -> str:
    if isinstance(v, Fraction):
        return "scalar"
    if isinstance(v, Poly):
        return "polynomial"
    if isinstance(v, MultiVec):
        return "multivector field"
    if isinstance(v, Form):
        return "differential form"
    return type(v).__name__


class Environment:
    def __init__(self) -> None:
        self.charts: dict[str, Chart] = {}
        self.coord_owner: dict[str, Chart] = {}
        self.values: dict[str, Bound] = {}

    def declare_chart(self, name: str, ch: Chart) -> None:
        if name in self.charts or name in self.values:
            raise SemanticError(f"name {name!r} is already bound")
        for c in ch.coords:
            if c in self.coord_owner:
                raise SemanticError(
                    f"coordinate {c!r} already belongs to another chart; "
                    "session charts may not share coordinate names"
                )
        self.charts[name] = ch
        for c in ch.coords:
            self.coord_owner[c] = ch

    def bind(self, name: str, v: Bound) -> None:
        if name in self.values or name in self.charts or name in self.coord_owner:
            raise SemanticError(f"name {name!r} is already bound")
        self.values[name] = v

    def value(self, name: str) -> Bound:
        if name not in self.values:
            raise SemanticError(f"unknown name {name!r}")
        return self.values[name]

    def chart(self, name: str) -> Chart:
        if name not in self.charts:
            raise SemanticError(f"unknown chart {name!r}")
        return self.charts[name]

    def coord_chart(self, coord: str, override: Optional[Chart]) -> Chart:
        if override is not None and coord in override.coords:
            return override
        if coord in self.coord_owner:
            return self.coord_owner[coord]
        raise SemanticError(f"unknown coordinate {coord!r}")


def _as_poly(v: Value, ch: Chart) -> Poly:
    if isinstance(v, Fraction):
        return Poly.constant(ch, v)
    if isinstance(v, Poly):
        if v.chart != ch:
            raise SemanticError("operands live on different charts")
        return v
    raise SemanticError(f"expected a polynomial, found a {_kind(v)}")


def _chart_of(v: Value) -> Optional[Chart]:
    if isinstance(v, Fraction):
        return None
    return v.chart


def eval_expr(env: Environment, e: Expr, override: Optional[Chart] = None) -> Value:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Name):
        if override is not None and e.ident in override.coords:
            return Poly.coordinate(override, e.ident)
        if e.ident in env.coord_owner:
            return Poly.coordinate(env.coord_owner[e.ident], e.ident)
        v = env.value(e.ident)
        if not isinstance(v, (Fraction, Poly, MultiVec, Form)):
            raise SemanticError(f"{e.ident!r} is not usable in an expression")
        return v
    if isinstance(e, FieldAtom):
        ch = env.coord_chart(e.coord, override)
        return MultiVec.coordinate_field(ch, e.coord)
    if isinstance(e, FormAtom):
        ch = env.coord_chart(e.coord, override)
        return Form.coordinate_differential(ch, e.coord)
    if isinstance(e, Neg):
        v = eval_expr(env, e.arg, override)
        return -v if isinstance(v, Fraction) else v.scale(-1)
    if isinstance(e, Power):
        v = eval_expr(env, e.base, override)
        if e.exponent < 0:
            raise SemanticError("negative exponents are not supported")
        if isinstance(v, Fraction):
            return v ** e.exponent
        if isinstance(v, Poly):
            return v ** e.exponent
        raise SemanticError(f"cannot raise a {_kind(v)} to a power")
    if isinstance(e, BinOp):
        a = eval_expr(env, e.left, override)
        b = eval_expr(env, e.right, override)
        return _binop(e.op, a, b)
    raise SemanticError(f"unhandled expression node {e!r}")


def _binop(op: str, a: Value, b: Value) -> Value:
    if op in ("+", "-"):
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a + b if op == "+" else a - b
        for ch in (_chart_of(a), _chart_of(b)):
            if ch is not None:
                break
        if isinstance(a, (Fraction, Poly)) and isinstance(b, (Fraction, Poly)):
            pa, pb = _as_poly(a, ch), _as_poly(b, ch)
            return pa + pb if op == "+" else pa - pb
        if isinstance(a, GradedTensor) and isinstance(b, GradedTensor):
            if type(a) is not type(b) or a.grade != b.grade or a.chart != b.chart:
                raise SemanticError("can only add tensors of one kind and grade")
            return a + b if op == "+" else a - b
        raise SemanticError(f"cannot combine a {_kind(a)} and a {_kind(b)} with {op!r}")
    if op == "*":
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a * b
        if isinstance(a, GradedTensor) and isinstance(b, GradedTensor):
            raise SemanticError("use ^ to wedge tensors; * is scalar multiplication")
        if isinstance(a, GradedTensor):
            return a.scale(_as_poly(b, a.chart))
        if isinstance(b, GradedTensor):
            return b.scale(_as_poly(a, b.chart))
        ch = _chart_of(a) or _chart_of(b)
        return _as_poly(a, ch) * _as_poly(b, ch)
    if op == "^":
        if isinstance(a, GradedTensor) and isinstance(b, GradedTensor):
            if type(a) is not type(b):
                raise SemanticError("cannot wedge a field with a form")
            if a.chart != b.chart:
                raise SemanticError("operands live on different charts")
            return a.wedge(b)
        if isinstance(a, GradedTensor):
            return a.scale(_as_poly(b, a.chart))
        if isinstance(b, GradedTensor):
            return b.scale(_as_poly(a, b.chart))
        raise SemanticError(
            "wedge of two scalars is ambiguous: use * for products "
            "or an integer literal exponent for powers"
        )
    raise SemanticError(f"unknown operator {op!r}")


def _structure(env: Environment, name: str) -> NambuStructure:
    v = env.value(name)
    if isinstance(v, NambuStructure):
        return v
    if not isinstance(v, MultiVec):
        raise SemanticError(f"{name!r} is not a multivector field")
    try:
        return NambuStructure(v.chart, v.grade, v)
    except ValueError as exc:
        raise SemanticError(f"{name!r} is not a usable structure: {exc}") from exc


class Runner:
    def __init__(self, env: Environment, seed: int, degree: int):
        self.env = env
        self.seed = seed
        self.degree = degree
        self.warnings: list[str] = []

    # declarations (no report)

    def declare(self, st: Statement) -> None:
        env = self.env
        if isinstance(st, ChartDecl):
            env.declare_chart(st.name, Chart(tuple(st.coords), st.name))
        elif isinstance(st, Binding):
            v = eval_expr(env, st.expr)
            if isinstance(v, GradedTensor) and v.is_zero:
                self.warnings.append(
                    f"binding {st.name!r} evaluates to the zero tensor"
                )
            env.bind(st.name, v)
        elif isinstance(st, SubDecl):
            owners = {env.coord_chart(c, None) for c, _ in st.items}
            if len(owners) != 1:
                raise SemanticError("locus coordinates must belong to one chart")
            (ch,) = owners
            solved = tuple(
                (c, _as_poly(eval_expr(env, e), ch)) for c, e in st.items
            )
            try:
                env.bind(st.name, SolvedSubmanifold(ch, solved))
            except ValueError as exc:
                raise SemanticError(str(exc)) from exc
        elif isinstance(st, MapDecl):
            source = env.chart(st.source)
            target = env.chart(st.target)
            comps = tuple(_as_poly(eval_expr(env, e), source) for e in st.comps)
            try:
                env.bind(st.name, PolyMap(source, target, comps))
            except ValueError as exc:
                raise SemanticError(str(exc)) from exc
        elif isinstance(st, GroupDecl):
            env.bind(st.name, self._group(st))
        elif isinstance(st, PairDecl):
            env.bind(st.name, pair_groupoid(_structure(env, st.base)))
        else:
            raise SemanticError(f"unhandled declaration {st!r}")

    def _group(self, st: GroupDecl) -> Groupoid:
        env = self.env
        if st.kind == "translation":
            return translation_group(env.chart(st.chart))
        if st.kind == "heisenberg":
            law = heisenberg_group()
            for c in law.chart.coords:
                if c in env.coord_owner:
                    raise SemanticError(
                        f"coordinate {c!r} is taken; the built-in group needs (a, b, c)"
                    )
            for c in law.chart.coords:
                env.coord_owner[c] = law.chart
            return law
        ch = env.chart(st.chart)
        doubled, _ = concat_charts(ch, ch)
        mult = tuple(
            _as_poly(eval_expr(env, e, override=doubled), doubled) for e in st.mult
        )
        inv = tuple(_as_poly(eval_expr(env, e, override=ch), ch) for e in st.inv)
        try:
            return group_law(
                ch,
                PolyMap(doubled, ch, mult),
                tuple(st.unit),
                PolyMap(ch, ch, inv),
            )
        except ValueError as exc:
            raise SemanticError(str(exc)) from exc

    # commands (one report each)

    def command(self, st: Statement) -> Report:
        start = time.perf_counter()
        rep = self._dispatch(st)
        ms = int((time.perf_counter() - start) * 1000)
        return replace(rep, timing_ms=ms)

    def _inputs(self, names: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
        return tuple((n, describe(self.env.value(n))) for n in names)

    def _dispatch(self, st: Statement) -> Report:
        env = self.env
        echo = st.canonical_text()
        if isinstance(st, ExprStatement):
            v = eval_expr(env, st.expr)
            return Report(echo, (), PASS, value=describe(v))
        if isinstance(st, EvalCommand):
            s = _structure(env, st.target)
            inputs = self._inputs((st.target,))
            if st.kind == "bracket":
                fs = [_as_poly(eval_expr(env, e), s.chart) for e in st.args]
                if len(fs) != s.order:
                    raise SemanticError(
                        f"bracket of order {s.order} takes {s.order} functions"
                    )
                return Report(echo, inputs, PASS, value=nambu_bracket(s, fs).canonical_str())
            alphas = []
            for e in st.args:
                v = eval_expr(env, e)
                if not isinstance(v, Form) or v.grade != 1:
                    raise SemanticError("formbracket arguments must be one-forms")
                alphas.append(v)
            if len(alphas) != s.order:
                raise SemanticError(
                    f"formbracket of order {s.order} takes {s.order} one-forms"
                )
            a, b = form_bracket_both(s, alphas)
            if a != b:
                return Report(echo, inputs, ERROR, witness="expansion mismatch")
            return Report(echo, inputs, PASS, value=a.canonical_str())
        if isinstance(st, CoinduceCommand):
            phi = env.value(st.map_name)
            if not isinstance(phi, PolyMap):
                raise SemanticError(f"{st.map_name!r} is not a map")
            s = _structure(env, st.tensor)
            rep = coinduce(phi, s, degree=self.degree)
            inputs = self._inputs((st.map_name, st.tensor))
            if rep.coinduced:
                return Report(
                    echo, inputs, PASS,
                    value=rep.structure.tensor.canonical_str(), degree=rep.degree,
                )
            return Report(
                echo, inputs, FAIL,
                witness=rep.obstruction.canonical_str(), degree=rep.degree,
            )
        if isinstance(st, CheckCommand):
            return self._check(st, echo)
        raise SemanticError(f"unhandled command {st!r}")

    def _check(self, st: CheckCommand, echo: str) -> Report:
        env = self.env
        if st.kind == "fi":
            s = _structure(env, st.args[0])
            degree = st.degree if st.degree is not None else self.degree
            rep = fi_check(s, degree=degree)
            witness = rep.witness.canonical_str() if rep.witness else None
            return Report(
                echo, self._inputs(st.args), rep.verdict,
                witness=witness, degree=degree,
            )
        if st.kind == "coisotropic":
            s = _structure(env, st.args[0])
            sub = env.value(st.args[1])
            if not isinstance(sub, SolvedSubmanifold):
                raise SemanticError(f"{st.args[1]!r} is not a locus")
            rep = coisotropy_check(s, sub)
            witness = rep.witness.canonical_str() if rep.witness else None
            return Report(
                echo, self._inputs(st.args),
                PASS if rep.coisotropic else FAIL, witness=witness,
            )
        if st.kind == "multiplicative":
            model = env.value(st.args[0])
            s = _structure(env, st.args[1])
            if not isinstance(model, Groupoid):
                raise SemanticError(f"{st.args[0]!r} is not a group or pair model")
            if model.over is not None:
                if s != model.over:
                    raise SemanticError(
                        "pair model checks take the base structure as the tensor"
                    )
                s = model.structure
            rep = multiplicativity_check(model, s)
            if not rep.agree:
                return Report(
                    echo, self._inputs(st.args), ERROR,
                    witness="graph and translation routes disagree",
                )
            if rep.multiplicative:
                diag = theorem_diagnostics(model, s)
                if not diag.passed:
                    return Report(
                        echo, self._inputs(st.args), ERROR,
                        witness="diagnostics disagree with a passing check",
                    )
                return Report(echo, self._inputs(st.args), PASS)
            witness = rep.graph.witness.canonical_str() if rep.graph.witness else None
            return Report(echo, self._inputs(st.args), FAIL, witness=witness)
        if st.kind == "wlfb":
            s = _structure(env, st.args[0])
            rep = wlfb_check(s, trials=4, degree=self.degree, seed=self.seed)
            if rep.all_pass:
                return Report(
                    echo, self._inputs(st.args), PASS,
                    seed=self.seed, degree=self.degree,
                )
            failing = ", ".join(a.name for a in rep.axioms if not a.passed)
            return Report(
                echo, self._inputs(st.args), FAIL,
                witness=f"failing axioms: {failing}",
                seed=self.seed, degree=self.degree,
            )
        if st.kind == "graph":
            phi = env.value(st.args[0])
            if not isinstance(phi, PolyMap):
                raise SemanticError(f"{st.args[0]!r} is not a map")
            sa = _structure(env, st.args[1])
            sb = _structure(env, st.args[2])
            rep = graph_equivalence_check(phi, sa, sb)
            if not rep.agree:
                return Report(
                    echo, self._inputs(st.args), ERROR,
                    witness="graph and pushforward verdicts disagree",
                )
            if rep.relatedness.related:
                return Report(echo, self._inputs(st.args), PASS)
            w = rep.relatedness.witness
            witness = None
            if w is not None:
                witness = (
                    f"coframe {w.coframe} at {w.target_coord}: "
                    f"{w.pushed.canonical_str()} != {w.expected.canonical_str()}"
                )
            elif rep.coisotropy.witness is not None:
                witness = rep.coisotropy.witness.canonical_str()
            return Report(echo, self._inputs(st.args), FAIL, witness=witness)
        if st.kind == "subgroupoid":
            model = env.value(st.args[0])
            if not isinstance(model, Groupoid) or model.over is None:
                raise SemanticError(f"{st.args[0]!r} is not a pair model")
            sub = env.value(st.args[1])
            if not isinstance(sub, SolvedSubmanifold):
                raise SemanticError(f"{st.args[1]!r} is not a locus")
            try:
                rep = coiso_subgroupoid_check(model, sub, trials=4, seed=self.seed)
            except NotCoisotropicError as exc:
                witness = None
                if exc.report.witness is not None:
                    witness = exc.report.witness.canonical_str()
                return Report(
                    echo, self._inputs(st.args), FAIL,
                    witness=witness, seed=self.seed,
                )
            return Report(
                echo, self._inputs(st.args),
                PASS if rep.passed else FAIL, seed=self.seed,
            )
        raise SemanticError(f"unknown check {st.kind!r}")


_DECLARATIONS = (ChartDecl, Binding, SubDecl, MapDecl, GroupDecl, PairDecl)


def run_session(session: Session, seed: int = 0, degree: int = 2) -> RunResult:
    env = Environment()
    runner = Runner(env, seed, degree)
    reports: list[Report] = []
    for st in session.statements:
        try:
            if isinstance(st, _DECLARATIONS):
                runner.declare(st)
            else:
                reports.append(runner.command(st))
        except (SemanticError, ValueError, InvariantError) as exc:
            internal = "internal error: " if isinstance(exc, InvariantError) else ""
            reports.append(
                Report(st.canonical_text(), (), ERROR, witness=internal + str(exc))
            )
            break
    return RunResult(session, reports, runner.warnings, seed, degree)
